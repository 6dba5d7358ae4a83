"""The numerics contract of the row-major BLAS calls, as generated tests.

Every wrapper that ``repro.kernels`` issues as a row-major call — GEMM,
GEMV, TRMM, SYMM, SYRK: BLAS reads each C-ordered operand in place
through its Fortran view, flags flipped (:mod:`repro.kernels.blas3`) —
is drawn over all of its flag, side and ``uplo`` combinations, shapes
1–64 (the skinny regime, where the row-major call and the column-major
one need not agree bit for bit) and adversarial values: uniform,
cancellation-heavy (large alternating terms whose sums nearly vanish)
and badly scaled (entries spread over 2^±30).  Every draw asserts:

(a) the bits are a function of the logical operands and the flags, not
    of their memory layout: C-ordered, Fortran-ordered and strided
    operands (all alike, and a drawn mix) give the same bytes, and so
    does the ``out=`` form;
(b) the forward error against an extended-precision reference is within
    ``γ_k · (|α||op(A)||op(B)| + |β||C|)`` elementwise, ``γ_k = k·u/(1 −
    k·u)`` for the inner dimension ``k`` (plus the reference's own
    ``γ_k`` where ``longdouble`` carries no extra precision).

Example budgets come from the Hypothesis profile: the default 100 per
test in tier-1, 2 500 under ``--hypothesis-profile=thorough``
(conftest.py; CI's chaos-smoke job).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import blas2, blas3

DTYPES = (np.float32, np.float64)
LAYOUTS = ("C", "F", "S")
#: Powers of two: scaling by alpha is exact, so the bound stays γ_k.
ALPHAS = (1.0, -1.0, 2.0, 0.5)

dims = st.integers(1, 64)
dtypes = st.sampled_from(DTYPES)
seeds = st.integers(0, 2**32 - 1)
kinds = st.sampled_from(("uniform", "cancel", "scaled"))


def values(kind: str, shape: tuple, dtype, seed: int) -> np.ndarray:
    """A C-ordered operand of ``kind`` values."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, shape)
    if kind == "cancel":
        sign = np.where(np.indices(shape).sum(axis=0) % 2, -1.0, 1.0)
        u = sign * rng.uniform(0.5, 1.0, shape) * 2.0**10 + u * 2.0**-10
    elif kind == "scaled":
        u = u * 2.0 ** rng.integers(-30, 31, shape)
    return np.ascontiguousarray(u.astype(dtype))


def laid(a: np.ndarray, layout: str) -> np.ndarray:
    """``a``'s values in layout ``layout``: C, F, or a strided view."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    wide = np.zeros(tuple(2 * d for d in a.shape), dtype=a.dtype)
    view = wide[tuple(slice(None, None, 2) for _ in a.shape)]
    view[...] = a
    assert a.size <= 1 or not view.flags.c_contiguous
    return view


def assert_layout_free(compute, operands, mix) -> np.ndarray:
    """(a): the same bytes for every operand layout; returns them."""
    ref = compute(*operands)
    assert ref.flags.c_contiguous
    for layouts in ([lay] * len(operands) for lay in ("F", "S")):
        got = compute(*(laid(o, lay) for o, lay in zip(operands, layouts)))
        assert got.tobytes() == ref.tobytes(), layouts
    got = compute(*(laid(o, lay) for o, lay in zip(operands, mix)))
    assert got.tobytes() == ref.tobytes(), mix
    return ref


def assert_within_gamma(got, exact, magnitude, k: int, dtype) -> None:
    """(b): ``|got − exact| ≤ γ_k · magnitude`` elementwise."""
    def gamma(u):
        return k * u / (1 - k * u)

    bound = gamma(np.finfo(dtype).eps / 2)
    ref_u = np.finfo(np.longdouble).eps / 2
    bound += gamma(ref_u)
    err = np.abs(got.astype(np.longdouble) - exact)
    assert np.all(err <= bound * magnitude), float(np.max(err - bound * magnitude))


def ld(a: np.ndarray) -> np.ndarray:
    return a.astype(np.longdouble)


@settings(deadline=None)
@given(m=dims, n=dims, k=dims, dtype=dtypes, trans_a=st.booleans(),
       trans_b=st.booleans(), alpha=st.sampled_from(ALPHAS),
       beta=st.sampled_from((0.0, 1.0, -1.0)), kind=kinds, seed=seeds,
       mix=st.lists(st.sampled_from(LAYOUTS), min_size=2, max_size=2))
def test_gemm(m, n, k, dtype, trans_a, trans_b, alpha, beta, kind, seed, mix):
    a = values(kind, (k, m) if trans_a else (m, k), dtype, seed)
    b = values(kind, (n, k) if trans_b else (k, n), dtype, seed + 1)
    c = values("uniform", (m, n), dtype, seed + 2)
    flags = dict(alpha=alpha, trans_a=trans_a, trans_b=trans_b)

    def compute(x, y):
        if beta != 0.0:
            out = c.copy()
            assert blas3.gemm(x, y, beta=beta, out=out, **flags) is out
            return out
        got = blas3.gemm(x, y, **flags)
        out = np.full((m, n), np.nan, dtype=dtype)
        assert blas3.gemm(x, y, out=out, **flags) is out
        assert out.tobytes() == got.tobytes()
        return got

    got = assert_layout_free(compute, [a, b], mix)
    op_a = a.T if trans_a else a
    op_b = b.T if trans_b else b
    exact = alpha * (ld(op_a) @ ld(op_b)) + beta * ld(c)
    magnitude = abs(alpha) * (np.abs(ld(op_a)) @ np.abs(ld(op_b))) \
        + abs(beta) * np.abs(ld(c))
    assert_within_gamma(got, exact, magnitude, k + (beta != 0.0), dtype)


@settings(deadline=None)
@given(m=dims, n=dims, dtype=dtypes, trans=st.booleans(),
       alpha=st.sampled_from(ALPHAS), kind=kinds, seed=seeds,
       mix=st.lists(st.sampled_from(LAYOUTS), min_size=2, max_size=2))
def test_gemv(m, n, dtype, trans, alpha, kind, seed, mix):
    a = values(kind, (m, n), dtype, seed)
    x = values(kind, (m if trans else n,), dtype, seed + 1)
    rows = n if trans else m

    def compute(mat, vec):
        got = blas2.gemv(mat, vec, alpha=alpha, trans=trans)
        out = np.full(rows, np.nan, dtype=dtype)
        assert blas2.gemv(mat, vec, alpha=alpha, trans=trans, out=out) is out
        assert out.tobytes() == got.tobytes()
        return got

    got = assert_layout_free(compute, [a, x], mix)
    op_a = ld(a.T if trans else a)
    assert_within_gamma(got, alpha * (op_a @ ld(x)),
                        abs(alpha) * (np.abs(op_a) @ np.abs(ld(x))),
                        x.shape[0], dtype)


def _triangle(a: np.ndarray, lower: bool, unit: bool) -> np.ndarray:
    """The triangular matrix TRMM reads out of a full square ``a``."""
    t = np.tril(a) if lower else np.triu(a)
    if unit:
        np.fill_diagonal(t, 1)
    return t


@settings(deadline=None)
@given(n=dims, m=dims, dtype=dtypes, side_left=st.booleans(),
       lower=st.booleans(), trans_a=st.booleans(), unit=st.booleans(),
       alpha=st.sampled_from(ALPHAS), kind=kinds, seed=seeds,
       mix=st.lists(st.sampled_from(LAYOUTS), min_size=2, max_size=2))
def test_trmm(n, m, dtype, side_left, lower, trans_a, unit, alpha, kind,
              seed, mix):
    # A full square: the wrapper must read only the named triangle.
    a = values(kind, (n, n), dtype, seed)
    b = values(kind, (n, m) if side_left else (m, n), dtype, seed + 1)
    flags = dict(alpha=alpha, side_left=side_left, lower=lower,
                 trans_a=trans_a, unit_diag=unit)

    def compute(t, rhs):
        got = blas3.trmm(t, rhs, **flags)
        out = np.full(b.shape, np.nan, dtype=dtype)
        assert blas3.trmm(t, rhs, out=out, **flags) is out
        assert out.tobytes() == got.tobytes()
        return got

    got = assert_layout_free(compute, [a, b], mix)
    t = ld(_triangle(a, lower, unit))
    op_t = t.T if trans_a else t
    pairs = (op_t, ld(b)) if side_left else (ld(b), op_t)
    exact = alpha * (pairs[0] @ pairs[1])
    magnitude = abs(alpha) * (np.abs(pairs[0]) @ np.abs(pairs[1]))
    assert_within_gamma(got, exact, magnitude, n, dtype)


@settings(deadline=None)
@given(n=dims, m=dims, dtype=dtypes, side_left=st.booleans(),
       lower=st.booleans(), alpha=st.sampled_from(ALPHAS), kind=kinds,
       seed=seeds,
       mix=st.lists(st.sampled_from(LAYOUTS), min_size=2, max_size=2))
def test_symm(n, m, dtype, side_left, lower, alpha, kind, seed, mix):
    # A full square: the wrapper must read only the named triangle.
    a = values(kind, (n, n), dtype, seed)
    b = values(kind, (n, m) if side_left else (m, n), dtype, seed + 1)
    flags = dict(alpha=alpha, side_left=side_left, lower=lower)

    def compute(s, rhs):
        got = blas3.symm(s, rhs, **flags)
        out = np.full(b.shape, np.nan, dtype=dtype)
        assert blas3.symm(s, rhs, out=out, **flags) is out
        assert out.tobytes() == got.tobytes()
        return got

    got = assert_layout_free(compute, [a, b], mix)
    half = np.tril(a) if lower else np.triu(a)
    s = ld(half + half.T - np.diag(np.diag(a)))
    pairs = (s, ld(b)) if side_left else (ld(b), s)
    assert_within_gamma(got, alpha * (pairs[0] @ pairs[1]),
                        abs(alpha) * (np.abs(pairs[0]) @ np.abs(pairs[1])),
                        n, dtype)


@settings(deadline=None)
@given(n=dims, k=dims, dtype=dtypes, trans=st.booleans(),
       lower=st.booleans(), alpha=st.sampled_from(ALPHAS), kind=kinds,
       seed=seeds, layout=st.sampled_from(LAYOUTS))
def test_syrk(n, k, dtype, trans, lower, alpha, kind, seed, layout):
    a = values(kind, (k, n) if trans else (n, k), dtype, seed)
    flags = dict(alpha=alpha, trans=trans, lower=lower)

    def compute(x):
        got = blas3.syrk(x, **flags)
        out = np.full((n, n), np.nan, dtype=dtype)
        assert blas3.syrk(x, out=out, **flags) is out
        assert out.tobytes() == got.tobytes()
        # The named triangle is the one BLAS computed; fill mirrors it.
        raw = blas3.syrk(x, fill=False, **flags)
        pick = np.tril if lower else np.triu
        assert pick(raw).tobytes() == pick(got).tobytes()
        return got

    got = assert_layout_free(compute, [a], [layout])
    assert got.tobytes() == np.ascontiguousarray(got.T).tobytes()
    op = ld(a.T if trans else a)
    assert_within_gamma(got, alpha * (op @ op.T),
                        abs(alpha) * (np.abs(op) @ np.abs(op).T),
                        op.shape[1], dtype)
