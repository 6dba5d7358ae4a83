"""The dense Tensor wrapper shared by both simulated frameworks.

Design notes
------------
* Everything is a matrix: 1-D input becomes a column (n×1), scalars become
  (1×1).  This matches how the paper's expressions treat ``x, y ∈ Rⁿ`` and
  keeps the IR a single-sorted algebra.
* ``Tensor`` is immutable by convention; operations return new tensors.
* Each tensor carries a closed :class:`PropertySet`.  Eager operations
  *propagate* properties (bookkeeping is O(set size)) but — matching the
  frameworks under study — the default execution path never *uses* them for
  kernel selection.  The property-aware dispatcher in
  :mod:`repro.passes.property_dispatch` is the opt-in "aware" path.
* ``__matmul__`` picks GEMM/GEMV/DOT by operand shape, exactly like the
  frameworks lower ``@`` onto MKL.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

import numpy as np

from ..errors import ShapeError
from ..kernels import blas1, blas2, blas3
from ..properties import algebra as prop_algebra
from .dtypes import normalize_dtype, result_dtype
from .properties import (
    Property,
    PropertySet,
    closure,
    detect_properties,
    verify_property,
)


def _as_matrix(data: object, dtype: np.dtype | None) -> np.ndarray:
    a = np.asarray(data)
    if dtype is not None:
        a = a.astype(dtype, copy=False)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise ShapeError(f"Tensor only supports matrices; got shape {a.shape}")
    return a


def _shape_props(shape: tuple[int, int]) -> set[Property]:
    props: set[Property] = {Property.GENERAL}
    if shape[0] == shape[1]:
        props.add(Property.SQUARE)
    if 1 in shape:
        props.add(Property.VECTOR)
    if shape == (1, 1):
        props.add(Property.SCALAR)
    return props


@functools.lru_cache(maxsize=1024)
def _shape_closure(shape: tuple[int, int]) -> PropertySet:
    """The closed property set of an unannotated matrix of ``shape`` —
    what every compiled call's result gets, computed once per shape."""
    return closure(_shape_props(shape))


class Tensor:
    """A 2-D array plus a set of matrix properties.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts; normalized to 2-D.
    props:
        Extra property annotations (beyond the shape-derived ones).  Closed
        under implication on construction.
    dtype:
        Target dtype; defaults to the configured float32.
    verify:
        Numerically check each annotated property (slow; for tests and
        user-facing annotation APIs).
    detect:
        Run full O(n²) property detection instead of trusting annotations.
    """

    __slots__ = ("data", "props")

    def __init__(
        self,
        data: object,
        props: Iterable[Property] = (),
        *,
        dtype: object | None = None,
        verify: bool = False,
        detect: bool = False,
    ) -> None:
        if isinstance(data, Tensor):
            props = closure(set(data.props) | set(props))
            data = data.data
        arr = _as_matrix(data, normalize_dtype(dtype) if dtype is not None else None)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(normalize_dtype(None))
        if detect:
            p = detect_properties(arr)
        else:
            p = closure(set(props) | _shape_props(arr.shape)) if props \
                else _shape_closure(arr.shape)
            if verify:
                from ..errors import PropertyError

                for prop in p:
                    if not verify_property(arr, prop):
                        raise PropertyError(
                            f"matrix does not satisfy annotated property {prop}"
                        )
        self.data = arr
        self.props = p

    # -- basic protocol ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value of a 1×1 tensor."""
        if self.shape != (1, 1):
            raise ShapeError(f"item() requires a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def has(self, prop: Property) -> bool:
        """Membership test in the closed property set."""
        return prop in self.props

    def with_props(self, *extra: Property, verify: bool = False) -> "Tensor":
        """Return a tensor sharing this data with additional annotations."""
        return Tensor(self.data, set(self.props) | set(extra), verify=verify)

    def astype(self, dtype: object) -> "Tensor":
        d = normalize_dtype(dtype)
        if d == self.dtype:
            return self
        return Tensor(self.data.astype(d), self.props)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ",".join(sorted(p.value for p in self.props if p is not Property.GENERAL))
        tag = f" [{names}]" if names else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{tag})"

    # -- linear algebra ----------------------------------------------------

    @property
    def T(self) -> "Tensor":
        """Transpose (a numpy view — zero copy, like ``tf.transpose`` is
        fused into the downstream kernel by MKL)."""
        return Tensor(self.data.T, prop_algebra.transpose_props(self.props))

    @staticmethod
    def _is_symbolic(other: object) -> bool:
        """True for SymbolicTensor operands — defer to their reflected op
        so eager constants fold into traces as const nodes."""
        from ..ir.tracing import SymbolicTensor

        return isinstance(other, SymbolicTensor)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if self._is_symbolic(other):
            return NotImplemented
        other = other if isinstance(other, Tensor) else Tensor(other)
        m, k = self.shape
        k2, n = other.shape
        if k != k2:
            raise ShapeError(f"matmul: {self.shape} @ {other.shape}")
        result_dtype(self.dtype, other.dtype)
        square = m == n
        props = prop_algebra.matmul_props(
            self.props,
            other.props,
            b_is_a_transposed=other.data.base is not None
            and other.data.base is self.data.base
            and other.data.shape == self.data.T.shape
            and np.shares_memory(self.data, other.data),
            square_result=square,
        )
        if m == 1 and n == 1:
            out = np.array(
                [[blas1.dot(np.ascontiguousarray(self.data).ravel(),
                            np.ascontiguousarray(other.data).ravel())]],
                dtype=self.dtype,
            )
        elif n == 1:
            out = blas2.gemv(self.data, np.ascontiguousarray(other.data).ravel()).reshape(-1, 1)
        elif m == 1:
            out = blas2.gemv(
                other.data, np.ascontiguousarray(self.data).ravel(), trans=True
            ).reshape(1, -1)
        else:
            out = blas3.gemm(self.data, other.data)
        return Tensor(out, props)

    def __add__(self, other: "Tensor") -> "Tensor":
        if self._is_symbolic(other):
            return NotImplemented
        other = other if isinstance(other, Tensor) else Tensor(other)
        if self.shape != other.shape:
            raise ShapeError(f"add: {self.shape} + {other.shape}")
        result_dtype(self.dtype, other.dtype)
        props = prop_algebra.add_props(self.props, other.props)
        return Tensor(self.data + other.data, props)

    def __sub__(self, other: "Tensor") -> "Tensor":
        if self._is_symbolic(other):
            return NotImplemented
        other = other if isinstance(other, Tensor) else Tensor(other)
        if self.shape != other.shape:
            raise ShapeError(f"sub: {self.shape} - {other.shape}")
        result_dtype(self.dtype, other.dtype)
        props = prop_algebra.add_props(self.props, other.props, negate_b=True)
        return Tensor(self.data - other.data, props)

    def __neg__(self) -> "Tensor":
        return Tensor(-self.data, prop_algebra.negate_props(self.props))

    def __mul__(self, alpha: float) -> "Tensor":
        if isinstance(alpha, Tensor):
            raise TypeError(
                "`*` is scalar scaling; use `matmul`/`@` for matrix products "
                "or `hadamard` for element-wise products"
            )
        alpha = float(alpha)
        return Tensor(self.data * self.dtype.type(alpha),
                      prop_algebra.scale_props(self.props, alpha))

    __rmul__ = __mul__

    def hadamard(self, other: "Tensor") -> "Tensor":
        """Element-wise product."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        if self.shape != other.shape:
            raise ShapeError(f"hadamard: {self.shape} * {other.shape}")
        return Tensor(self.data * other.data)

    def __getitem__(self, key: object) -> "Tensor":
        out = self.data[key]
        if np.isscalar(out) or (isinstance(out, np.ndarray) and out.ndim == 0):
            arr = np.asarray(out).reshape(1, 1)
        else:
            arr = np.asarray(out)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
        return Tensor(arr, prop_algebra.slice_props(self.props, *arr.shape)
                      if arr.ndim == 2 else ())

    # -- comparisons (value semantics for tests) ---------------------------

    def allclose(self, other: "Tensor | np.ndarray", *, rtol: float = 1e-4,
                 atol: float = 1e-5) -> bool:
        """Numeric comparison helper (float32-friendly default tolerances)."""
        other_arr = other.data if isinstance(other, Tensor) else np.asarray(other)
        return bool(np.allclose(self.data, other_arr.reshape(self.shape),
                                rtol=rtol, atol=atol))
