"""Independent references.

* :func:`oracle` / :func:`matches` — the correctness oracle: the hand-written
  expression evaluated in float64 numpy, compared with a dtype-scaled
  tolerance.  Never the plan or the interpreter under test.
* ``optimum_*`` / ``chain_*`` — hand-written float32 implementations timed in
  the same windows as the program: what a programmer calling BLAS directly
  pays for the same expression (the paper's reference column).
* :func:`machine_refs` — an sgemm and a C→F copy at n=512: machine speed,
  which must not move with the program's code.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from scipy.linalg import blas

from .inputs import CHAIN_LOOPS, Case

#: Allowed error as a multiple of the output dtype's epsilon, relative to the
#: largest reference entry.  A wrong kernel, a dropped term or a transposed
#: operand is off by O(1); float32 round-off of every expression here
#: measures below 8 epsilon.
TOLERANCE_EPS = 512.0


def _arrays(result) -> list[np.ndarray]:
    items = result if isinstance(result, (tuple, list)) else [result]
    out = []
    for item in items:
        if not isinstance(item, np.ndarray):
            item = getattr(item, "data", item)  # the program's Tensor
        item = np.asarray(item)
        # BLAS level-1/2 results come back 0-d / 1-D: a 1x1 and a column.
        out.append(item.reshape(-1, 1) if item.ndim < 2 else item)
    return out


def oracle(case: Case) -> list[np.ndarray]:
    """``case.fn`` over float64 copies of its operands, in plain numpy."""
    return _arrays(case.fn(*[a.astype(np.float64) for a in case.arrays]))


def matches(result, reference: list[np.ndarray], dtype=np.float32) -> bool:
    actual = _arrays(result)
    if len(actual) != len(reference):
        return False
    tol = TOLERANCE_EPS * float(np.finfo(dtype).eps)
    for got, want in zip(actual, reference):
        if got.shape != want.shape or not np.all(np.isfinite(got)):
            return False
        scale = max(float(np.max(np.abs(want))), 1e-6)
        if float(np.max(np.abs(got.astype(np.float64) - want))) > tol * scale:
            return False
    return True


# -- the dispatch-bound chain, hand-written ------------------------------------------


def chain_numpy(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Eager numpy, as a user would write it."""
    acc = a
    for _ in range(CHAIN_LOOPS):
        acc = (acc @ b + c - a) @ a.T
    return acc + acc.T


def chain_blas(arrays: list[np.ndarray]) -> Callable[[], np.ndarray]:
    """The chain's BLAS calls issued directly on preallocated F operands."""
    a, b, c = (np.asfortranarray(x) for x in arrays)
    t = np.empty_like(a, order="F")
    acc2 = np.empty_like(a, order="F")
    out = np.empty_like(a, order="F")
    sgemm = blas.sgemm

    def run() -> np.ndarray:
        acc = a
        for _ in range(CHAIN_LOOPS):
            sgemm(1.0, acc, b, beta=0.0, c=t, overwrite_c=1)
            np.add(t, c, out=t)
            np.subtract(t, a, out=t)
            sgemm(1.0, t, a, beta=0.0, c=acc2, overwrite_c=1, trans_b=1)
            acc = acc2
        np.add(acc, acc.T, out=out)
        return out

    return run


def chain128_numpy(p: np.ndarray, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    return p @ (q @ v)


# -- the paper's recommended implementations ---------------------------------------------


def optimum(case: Case) -> tuple[Callable[[], np.ndarray], int]:
    """The hand-written optimum for one suite expression and its FLOPs.

    Operands are F-ordered once, outside the timed call, as a program
    calling BLAS directly would keep them; n³-class outputs are
    preallocated.
    """
    ops = [np.asfortranarray(x) for x in case.arrays]
    n = ops[0].shape[0]
    name = case.name
    if name == "cse_sum":  # one GEMM, the sum folded into alpha
        a, b = ops
        c = np.empty((n, n), np.float32, order="F")
        return (lambda: blas.sgemm(2.0, a, b, beta=0.0, c=c, overwrite_c=1,
                                   trans_a=1)), 2 * n**3
    if name == "cse_gram":  # S = AᵀB once, then SᵀS by SYRK (one triangle) and a mirror
        a, b = ops
        s = np.empty((n, n), np.float32, order="F")
        c = np.empty((n, n), np.float32, order="F")
        below = np.asfortranarray(np.tril(np.ones((n, n), bool), -1))

        def gram():
            blas.sgemm(1.0, a, b, beta=0.0, c=s, overwrite_c=1, trans_a=1)
            out = blas.ssyrk(1.0, s, beta=0.0, c=c, overwrite_c=1, trans=1)
            np.copyto(out, out.T, where=below)
            return out

        return gram, 3 * n**3
    if name == "chain_rl":  # Hᵀ(Hx): two GEMVs
        h, x = ops
        return (lambda: blas.sgemv(1.0, h, blas.sgemv(1.0, h, x), trans=1)), 4 * n**2
    if name == "chain_mixed":  # (Hᵀy)(xᵀH): two GEMVs and an outer product
        h, y, x = ops
        out = np.empty((n, n), np.float32, order="F")

        def mixed():
            u = blas.sgemv(1.0, h, y, trans=1)
            v = blas.sgemv(1.0, h, x, trans=1)
            return np.multiply(u[:, None], v[None, :], out=out)

        return mixed, 5 * n**2
    if name == "dist":  # A(B+C)
        a, b, c = ops
        s = np.empty((n, n), np.float32, order="F")
        out = np.empty((n, n), np.float32, order="F")

        def dist():
            np.add(b, c, out=s)
            return blas.sgemm(1.0, a, s, beta=0.0, c=out, overwrite_c=1)

        return dist, 2 * n**3 + n**2
    if name == "eq10":  # Ax − Hᵀ(Hx): three GEMVs
        a, h, x = ops

        def eq10():
            y = blas.sgemv(1.0, a, x)
            return blas.sgemv(-1.0, h, blas.sgemv(1.0, h, x), beta=1.0, y=y,
                              overwrite_y=1, trans=1)

        return eq10, 6 * n**2
    if name == "trmm":
        l, b = ops
        return (lambda: blas.strmm(1.0, l, b, lower=1)), n**3
    if name == "tridiag":  # three vectorised row scalings
        t, b = ops
        lo, d, up = (np.ascontiguousarray(np.diag(t, k))[:, None] for k in (-1, 0, 1))
        out = np.empty((n, n), np.float32, order="F")

        def tridiag():
            np.multiply(d, b, out=out)
            out[1:] += lo * b[:-1]
            out[:-1] += up * b[1:]
            return out

        return tridiag, 5 * n**2
    if name == "diag":
        dmat, b = ops
        d = np.ascontiguousarray(np.diag(dmat))[:, None]
        out = np.empty((n, n), np.float32, order="F")
        return (lambda: np.multiply(d, b, out=out)), n**2
    if name == "partial":  # one DOT
        a, b = ops
        row, col = np.ascontiguousarray(a[2, :]), np.ascontiguousarray(b[:, 2])
        return (lambda: blas.sdot(row, col)), 2 * n
    if name == "gemm":
        a, b = ops
        c = np.empty((n, n), np.float32, order="F")
        return (lambda: blas.sgemm(1.0, a, b, beta=0.0, c=c, overwrite_c=1)), 2 * n**3
    raise KeyError(f"no hand-written optimum for {name!r}")


# -- machine references ------------------------------------------------------------------


def machine_refs(n: int = 512) -> tuple[Callable[[], object], Callable[[], object], int, int]:
    """``(sgemm, copy, gemm_flops, copy_bytes)``: an sgemm on F operands and
    a C→F staging copy of one n×n float32 operand."""
    rng = np.random.default_rng(0)
    a = np.asfortranarray(rng.random((n, n), dtype=np.float32))
    b = np.asfortranarray(rng.random((n, n), dtype=np.float32))
    c = np.empty((n, n), np.float32, order="F")
    src = np.ascontiguousarray(a)
    dst = np.empty((n, n), np.float32, order="F")
    return (
        lambda: blas.sgemm(1.0, a, b, beta=0.0, c=c, overwrite_c=1),
        lambda: np.copyto(dst, src),
        2 * n**3,
        2 * src.nbytes,
    )
