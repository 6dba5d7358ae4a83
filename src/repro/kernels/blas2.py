"""Level-2 BLAS wrappers: matrix-vector operations."""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas as _blas

from ..errors import KernelError
from .validation import (
    as_ndarray,
    check_matvec_shapes,
    check_same_length,
    require_same_dtype,
    require_square,
    require_vector,
)

_GEMV = {np.dtype(np.float32): _blas.sgemv, np.dtype(np.float64): _blas.dgemv}
_GER = {np.dtype(np.float32): _blas.sger, np.dtype(np.float64): _blas.dger}
_SYMV = {np.dtype(np.float32): _blas.ssymv, np.dtype(np.float64): _blas.dsymv}
_TRMV = {np.dtype(np.float32): _blas.strmv, np.dtype(np.float64): _blas.dtrmv}
_TRSV = {np.dtype(np.float32): _blas.strsv, np.dtype(np.float64): _blas.dtrsv}


def _routine(table: dict, dtype: np.dtype, name: str):
    try:
        return table[np.dtype(dtype)]
    except KeyError:  # pragma: no cover
        raise KernelError(f"no {name} kernel for dtype {dtype}") from None


def gemv(
    a: np.ndarray,
    x: np.ndarray,
    *,
    alpha: float = 1.0,
    trans: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """GEMV: return ``alpha * op(A) x`` where ``op`` is identity or transpose.

    Cost: 2mn FLOPs.  The ``trans`` flag lets callers compute ``Aᵀx`` without
    materializing the transpose — the trick the paper's right-to-left chain
    evaluation relies on.

    Row-major call: BLAS reads the C-ordered ``A`` in place through its
    Fortran view ``A.T``, with the TRANS flag flipped (``A x`` is
    ``(A.T)ᵀ x``); a Fortran-ordered or strided ``A`` is copied once by
    f2py, so the bits depend on the values and ``trans``, not the layout
    (see :mod:`repro.kernels.blas3`).

    ``out`` is the destination-aware mode: the result vector is written into
    the caller's contiguous 1-D buffer (BLAS's ``y`` argument with
    ``beta=0``, ``overwrite_y=1``) and that buffer is returned — no
    allocation.  Results are bit-identical to the allocating path (same
    routine, same accumulation).
    """
    a = as_ndarray(a, "a")
    x = as_ndarray(x, "x")
    require_same_dtype((a, "a"), (x, "x"))
    if trans:
        # op(A) x with op = T: validate against A's rows.
        require_vector(x, "x")
        if a.ndim != 2 or a.shape[0] != x.shape[0]:
            from ..errors import ShapeError

            raise ShapeError(
                f"gemv(trans): dimensions disagree: a is {a.shape}, x is {x.shape}"
            )
    else:
        check_matvec_shapes(a, x)
    fn = _routine(_GEMV, a.dtype, "gemv")
    flipped = 0 if trans else 1
    if out is None:
        return fn(a.dtype.type(alpha), a.T, x, trans=flipped)
    result_len = a.shape[1] if trans else a.shape[0]
    if out.ndim != 1 or out.shape[0] != result_len:
        from ..errors import ShapeError

        raise ShapeError(
            f"gemv: out has shape {out.shape}, result is ({result_len},)"
        )
    if out.dtype != a.dtype:
        raise KernelError(
            f"gemv: out dtype {out.dtype} does not match operands ({a.dtype})"
        )
    if not out.flags.c_contiguous:
        raise KernelError("gemv: out must be a contiguous vector")
    return fn(
        a.dtype.type(alpha),
        a.T,
        x,
        beta=a.dtype.type(0.0),
        y=out,
        overwrite_y=1,
        trans=flipped,
    )


def ger(x: np.ndarray, y: np.ndarray, *, alpha: float = 1.0) -> np.ndarray:
    """GER: rank-1 update; return the outer product ``alpha * x yᵀ`` (2mn FLOPs)."""
    x = require_vector(as_ndarray(x, "x"), "x")
    y = require_vector(as_ndarray(y, "y"), "y")
    require_same_dtype((x, "x"), (y, "y"))
    fn = _routine(_GER, x.dtype, "ger")
    return fn(x.dtype.type(alpha), x, y)


def symv(a: np.ndarray, x: np.ndarray, *, alpha: float = 1.0, lower: bool = True) -> np.ndarray:
    """SYMV: ``alpha * A x`` with symmetric ``A``; only one triangle is read (2n² FLOPs)."""
    a = require_square(as_ndarray(a, "a"), "a")
    x = as_ndarray(x, "x")
    check_matvec_shapes(a, x)
    require_same_dtype((a, "a"), (x, "x"))
    fn = _routine(_SYMV, a.dtype, "symv")
    return fn(a.dtype.type(alpha), a, x, lower=1 if lower else 0)


def trmv(
    a: np.ndarray,
    x: np.ndarray,
    *,
    lower: bool = True,
    trans: bool = False,
    unit_diag: bool = False,
) -> np.ndarray:
    """TRMV: ``op(A) x`` with triangular ``A`` (~n² FLOPs, half of GEMV)."""
    a = require_square(as_ndarray(a, "a"), "a")
    x = as_ndarray(x, "x")
    check_matvec_shapes(a, x)
    require_same_dtype((a, "a"), (x, "x"))
    fn = _routine(_TRMV, a.dtype, "trmv")
    return fn(
        a,
        x.copy(),
        lower=1 if lower else 0,
        trans=1 if trans else 0,
        diag=1 if unit_diag else 0,
        overwrite_x=True,
    )


def trsv(
    a: np.ndarray,
    b: np.ndarray,
    *,
    lower: bool = True,
    trans: bool = False,
    unit_diag: bool = False,
) -> np.ndarray:
    """TRSV: solve ``op(A) x = b`` with triangular ``A`` (~n² FLOPs)."""
    a = require_square(as_ndarray(a, "a"), "a")
    b = as_ndarray(b, "b")
    check_same_length(np.empty(a.shape[0], dtype=a.dtype), b)
    require_same_dtype((a, "a"), (b, "b"))
    fn = _routine(_TRSV, a.dtype, "trsv")
    return fn(
        a,
        b.copy(),
        lower=1 if lower else 0,
        trans=1 if trans else 0,
        diag=1 if unit_diag else 0,
        overwrite_x=True,
    )
