"""Level-3 BLAS wrappers: matrix-matrix operations.

These are the kernels whose relative costs drive every experiment in the
paper: GEMM (the 2mnk baseline), TRMM and SYRK (the half-cost structured
kernels of Experiment 3), SYMM, and TRSM.

Row-major calls
---------------
Operands and results are C-ordered (the layout tensors carry), and BLAS
is column-major.  Rather than copying each operand into Fortran order,
GEMM, TRMM, SYMM and SYRK hand BLAS the Fortran *view* ``X.T`` of every
C buffer — the same memory, read as the transposed matrix — and compute
the transposed problem, exactly as row-major frameworks call a
column-major BLAS:

* GEMM: ``C = op(A) op(B)`` runs as ``Cᵀ = op(B)ᵀ op(A)ᵀ`` — operands
  swap, and so do their TRANS flags;
* TRMM / SYMM: ``op(A) B`` runs as ``Bᵀ op(A)ᵀ`` — the side flips, and
  so does ``uplo`` (the view of a lower triangle is an upper one);
* SYRK: ``A Aᵀ`` runs as ``(Aᵀ)ᵀ Aᵀ`` — ``trans`` flips, and ``uplo``
  flips so the triangle named by ``lower`` is still the one computed.

Results therefore come out C-ordered, and an ``out=`` destination must be
C-contiguous.  A Fortran-ordered or strided operand is copied once by
f2py on its way in, so the bits are a function of the logical operands
and the flags, never of their memory layout.  The compiled runtime
(:mod:`repro.runtime.compiler`) issues these same routines with these
same flags on views it keeps with its slot buffers.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import blas as _blas

from ..errors import KernelError, ShapeError
from .validation import (
    as_ndarray,
    check_matmul_shapes,
    require_matrix,
    require_same_dtype,
    require_square,
)

_GEMM = {np.dtype(np.float32): _blas.sgemm, np.dtype(np.float64): _blas.dgemm}
_TRMM = {np.dtype(np.float32): _blas.strmm, np.dtype(np.float64): _blas.dtrmm}
_SYRK = {np.dtype(np.float32): _blas.ssyrk, np.dtype(np.float64): _blas.dsyrk}
_SYMM = {np.dtype(np.float32): _blas.ssymm, np.dtype(np.float64): _blas.dsymm}
_TRSM = {np.dtype(np.float32): _blas.strsm, np.dtype(np.float64): _blas.dtrsm}


def _routine(table: dict, dtype: np.dtype, name: str):
    try:
        return table[np.dtype(dtype)]
    except KeyError:  # pragma: no cover
        raise KernelError(f"no {name} kernel for dtype {dtype}") from None


def _check_out(
    out: np.ndarray, shape: tuple[int, int], dtype: np.dtype, name: str
) -> None:
    """Validate a caller-provided destination buffer.

    Every destination-aware kernel has the same contract: exact result
    shape, operand dtype, C order (its ``.T`` is the Fortran buffer BLAS
    writes — any other layout would force a hidden f2py copy, silently
    defeating the zero-allocation point).
    """
    if out.shape != shape:
        raise ShapeError(f"{name}: out has shape {out.shape}, result is {shape}")
    if out.dtype != dtype:
        raise KernelError(
            f"{name}: out dtype {out.dtype} does not match operands ({dtype})"
        )
    if not out.flags.c_contiguous:
        raise KernelError(
            f"{name}: out must be C-contiguous — any other layout forces "
            "a hidden copy"
        )


#: Diagonal blocks at most this wide are mirrored in one gather/scatter.
_MIRROR_LEAF = 32


@functools.lru_cache(maxsize=None)
def _upper_indices(size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(size, 1)``, built once per block size."""
    return np.triu_indices(size, 1)


def _mirror_triangle(c: np.ndarray, *, lower: bool) -> np.ndarray:
    """Fill the missing triangle of ``c`` with the computed one, in place.

    Recursive halving: each off-diagonal block is one transposing slice
    assignment, and each diagonal block of at most :data:`_MIRROR_LEAF`
    rows one gather/scatter through a cached index pair — about
    ``2n/32`` copies rather than one Python-level copy per row.  No
    matrix-sized temporary: a leaf's gather holds at most 32·31/2
    entries, freed at once, so nothing allocated outlives the call.  The
    mirrored entries are bit-copies of the computed triangle, which is
    also what the historical ``c + np.tril(c, -1).T`` fill produced
    (adding a strictly-triangular transpose to exact zeros), minus its
    two full-matrix temporaries.
    """
    # Copy the strictly lower triangle of ``v`` into its upper one; for
    # an upper source that is the transposed view.
    v = c if lower else c.T

    def fill(lo: int, hi: int) -> None:
        if hi - lo <= _MIRROR_LEAF:
            block = v[lo:hi, lo:hi]
            upper = _upper_indices(hi - lo)
            block[upper] = block.T[upper]
            return
        mid = (lo + hi) // 2
        v[lo:mid, mid:hi] = v[mid:hi, lo:mid].T
        fill(lo, mid)
        fill(mid, hi)

    fill(0, c.shape[0])
    return c


def gemm(
    a: np.ndarray,
    b: np.ndarray,
    *,
    alpha: float = 1.0,
    beta: float = 0.0,
    out: np.ndarray | None = None,
    trans_a: bool = False,
    trans_b: bool = False,
) -> np.ndarray:
    """GEMM: return ``alpha * op(A) op(B) + beta * C`` (2mnk FLOPs).

    The transpose flags map to the BLAS ``TRANSA``/``TRANSB`` arguments, so
    ``AᵀB`` costs no explicit transpose — exactly how the paper's reference
    "MKL-C" implementation computes the Table I expressions.  The scaling
    ``alpha`` rides along for free, which is why the frameworks' CSE rewrite
    of ``AᵀB + AᵀB`` into ``2·(AᵀB)`` has negligible overhead (Experiment 1).

    ``out`` is the destination-aware mode: the result is written into the
    caller's buffer (the Fortran view of it is BLAS's own ``C`` argument,
    ``overwrite_c=1``) and that same buffer is returned — no allocation.
    The buffer must be C-contiguous (see *Row-major calls* above), of the
    result's exact shape and dtype.  ``beta`` defaults to 0 so ``out``
    acts as a pure destination; a nonzero ``beta`` accumulates into it
    and requires ``out``.
    """
    a = require_matrix(as_ndarray(a, "a"), "a")
    b = require_matrix(as_ndarray(b, "b"), "b")
    require_same_dtype((a, "a"), (b, "b"))
    op_a = a.T if trans_a else a
    op_b = b.T if trans_b else b
    check_matmul_shapes(op_a, op_b)
    fn = _routine(_GEMM, a.dtype, "gemm")
    # Cᵀ = op(B)ᵀ op(A)ᵀ: the operands swap, and their flags with them.
    flags = dict(trans_a=1 if trans_b else 0, trans_b=1 if trans_a else 0)
    if out is None:
        if beta != 0.0:
            raise KernelError("gemm: beta != 0 accumulates into C — pass out=")
        return fn(a.dtype.type(alpha), b.T, a.T, **flags).T
    _check_out(out, (op_a.shape[0], op_b.shape[1]), a.dtype, "gemm")
    fn(
        a.dtype.type(alpha), b.T, a.T, beta=a.dtype.type(beta), c=out.T,
        overwrite_c=1, **flags,
    )
    return out


def trmm(
    a: np.ndarray,
    b: np.ndarray,
    *,
    alpha: float = 1.0,
    side_left: bool = True,
    lower: bool = True,
    trans_a: bool = False,
    unit_diag: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """TRMM: triangular matrix product ``alpha * op(A) B`` (or ``B op(A)``).

    Cost: ~n²m FLOPs — half of the 2n²m a GEMM would spend, because the zero
    triangle is never touched.  This is the kernel the paper's SciPy
    reference uses for the ``LB`` row of Table IV.

    ``out`` is the destination-aware mode.  BLAS TRMM has no separate
    ``C`` argument — it overwrites ``B`` in place — so the out mode
    stages ``B`` into ``out`` (one memcpy, no allocation) and runs the
    routine on its Fortran view with ``overwrite_b=1``.  Same routine, same bits as the
    allocating path, which f2py realizes as exactly this copy-then-
    overwrite sequence on a hidden fresh buffer.
    """
    a = require_square(as_ndarray(a, "a"), "a")
    b = require_matrix(as_ndarray(b, "b"), "b")
    require_same_dtype((a, "a"), (b, "b"))
    n = a.shape[0]
    if side_left and b.shape[0] != n:
        raise ShapeError(f"trmm: A is {a.shape}, B is {b.shape} (left multiply)")
    if not side_left and b.shape[1] != n:
        raise ShapeError(f"trmm: A is {a.shape}, B is {b.shape} (right multiply)")
    fn = _routine(_TRMM, a.dtype, "trmm")
    # Bᵀ op(A)ᵀ on the views: the other side, the other triangle.
    kwargs = dict(
        side=1 if side_left else 0,
        lower=0 if lower else 1,
        trans_a=1 if trans_a else 0,
        diag=1 if unit_diag else 0,
    )
    if out is None:
        return fn(a.dtype.type(alpha), a.T, b.T, **kwargs).T
    _check_out(out, b.shape, a.dtype, "trmm")
    np.copyto(out, b)
    fn(a.dtype.type(alpha), a.T, out.T, overwrite_b=1, **kwargs)
    return out


def syrk(
    a: np.ndarray,
    *,
    alpha: float = 1.0,
    trans: bool = False,
    lower: bool = True,
    fill: bool = True,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """SYRK: symmetric rank-k update ``alpha * A Aᵀ`` (or ``Aᵀ A`` when ``trans``).

    Cost: ~n²k FLOPs — half a GEMM — because only one triangle of the
    symmetric result is computed.  By default the missing triangle is filled
    in afterwards (an O(n²) copy) so the return value is a full dense
    matrix, comparable with ``gemm(a, a.T)``; pass ``fill=False`` to get the
    raw one-triangle BLAS output.

    ``out`` is the destination-aware mode: BLAS writes the computed
    triangle straight into the caller's buffer (``c=out.T``, ``beta=0``,
    ``overwrite_c=1``) and the mirror fill runs in place — no allocation,
    and the untouched triangle of a dirty buffer is fully overwritten by
    the fill (``out`` therefore requires ``fill=True``).
    """
    a = require_matrix(as_ndarray(a, "a"), "a")
    fn = _routine(_SYRK, a.dtype, "syrk")
    # (Aᵀ)ᵀAᵀ on the view; C is symmetric, so its Fortran view is C
    # itself, with the triangles swapped.
    flags = dict(trans=0 if trans else 1, lower=0 if lower else 1)
    if out is None:
        c = fn(a.dtype.type(alpha), a.T, **flags).T
        return _mirror_triangle(c, lower=lower) if fill else c
    if not fill:
        # BLAS leaves the unreferenced triangle of C untouched; without
        # the fill pass a reused destination would leak stale garbage.
        raise KernelError("syrk: out= requires fill=True")
    n = a.shape[1] if trans else a.shape[0]
    _check_out(out, (n, n), a.dtype, "syrk")
    fn(
        a.dtype.type(alpha), a.T, beta=a.dtype.type(0.0), c=out.T,
        overwrite_c=1, **flags,
    )
    return _mirror_triangle(out, lower=lower)


def symm(
    a: np.ndarray,
    b: np.ndarray,
    *,
    alpha: float = 1.0,
    side_left: bool = True,
    lower: bool = True,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """SYMM: ``alpha * A B`` with symmetric ``A`` (2n²m FLOPs; same count as
    GEMM but only one triangle of ``A`` is read, halving its memory traffic).

    ``out`` is the destination-aware mode: the result is written into the
    caller's buffer (its Fortran view is BLAS's own ``C`` argument, with
    ``beta=0``, ``overwrite_c=1``) and that buffer is returned — no
    allocation, same bits as the allocating path.
    """
    a = require_square(as_ndarray(a, "a"), "a")
    b = require_matrix(as_ndarray(b, "b"), "b")
    require_same_dtype((a, "a"), (b, "b"))
    n = a.shape[0]
    if side_left and b.shape[0] != n:
        raise ShapeError(f"symm: A is {a.shape}, B is {b.shape} (left multiply)")
    if not side_left and b.shape[1] != n:
        raise ShapeError(f"symm: A is {a.shape}, B is {b.shape} (right multiply)")
    fn = _routine(_SYMM, a.dtype, "symm")
    # Bᵀ Aᵀ on the views: the other side, the other stored triangle.
    kwargs = dict(side=1 if side_left else 0, lower=0 if lower else 1)
    if out is None:
        return fn(a.dtype.type(alpha), a.T, b.T, **kwargs).T
    _check_out(out, b.shape if side_left else (b.shape[0], n), a.dtype, "symm")
    fn(
        a.dtype.type(alpha), a.T, b.T, beta=a.dtype.type(0.0), c=out.T,
        overwrite_c=1, **kwargs,
    )
    return out


def trsm(
    a: np.ndarray,
    b: np.ndarray,
    *,
    alpha: float = 1.0,
    side_left: bool = True,
    lower: bool = True,
    trans_a: bool = False,
    unit_diag: bool = False,
) -> np.ndarray:
    """TRSM: solve ``op(A) X = alpha B`` with triangular ``A`` (~n²m FLOPs)."""
    a = require_square(as_ndarray(a, "a"), "a")
    b = require_matrix(as_ndarray(b, "b"), "b")
    require_same_dtype((a, "a"), (b, "b"))
    n = a.shape[0]
    if side_left and b.shape[0] != n:
        raise ShapeError(f"trsm: A is {a.shape}, B is {b.shape} (left solve)")
    if not side_left and b.shape[1] != n:
        raise ShapeError(f"trsm: A is {a.shape}, B is {b.shape} (right solve)")
    fn = _routine(_TRSM, a.dtype, "trsm")
    return fn(
        a.dtype.type(alpha),
        a,
        b,
        side=0 if side_left else 1,
        lower=1 if lower else 0,
        trans_a=1 if trans_a else 0,
        diag=1 if unit_diag else 0,
    )
