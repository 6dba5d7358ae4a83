"""Tests for the BLAS kernel wrappers (levels 1-3) against numpy oracles."""

import numpy as np
import pytest

from repro.errors import DTypeError, KernelError, ShapeError
from repro.kernels import blas1, blas2, blas3


def _mat(rng, m, n, dtype=np.float32):
    return (rng.random((m, n)) - 0.5).astype(dtype)


def _vec(rng, n, dtype=np.float32):
    return (rng.random(n) - 0.5).astype(dtype)


class TestBlas1:
    def test_scal(self, rng):
        x = _vec(rng, 50)
        assert np.allclose(blas1.scal(2.5, x), 2.5 * x, atol=1e-6)

    def test_scal_does_not_mutate_by_default(self, rng):
        x = _vec(rng, 10)
        orig = x.copy()
        blas1.scal(3.0, x)
        assert np.array_equal(x, orig)

    def test_scal_overwrite_mutates(self, rng):
        x = _vec(rng, 10)
        expected = 3.0 * x
        out = blas1.scal(3.0, x, overwrite=True)
        assert np.allclose(out, expected, atol=1e-6)

    def test_axpy(self, rng):
        x, y = _vec(rng, 40), _vec(rng, 40)
        assert np.allclose(blas1.axpy(1.5, x, y), 1.5 * x + y, atol=1e-6)

    def test_axpy_preserves_y(self, rng):
        x, y = _vec(rng, 12), _vec(rng, 12)
        y0 = y.copy()
        blas1.axpy(2.0, x, y)
        assert np.array_equal(y, y0)

    def test_dot(self, rng):
        x, y = _vec(rng, 100), _vec(rng, 100)
        assert blas1.dot(x, y) == pytest.approx(float(x @ y), rel=1e-5)

    def test_nrm2(self, rng):
        x = _vec(rng, 64)
        assert blas1.nrm2(x) == pytest.approx(float(np.linalg.norm(x)), rel=1e-5)

    def test_asum(self, rng):
        x = _vec(rng, 64)
        assert blas1.asum(x) == pytest.approx(float(np.abs(x).sum()), rel=1e-5)

    def test_copy(self, rng):
        x = _vec(rng, 30)
        out = blas1.copy(x)
        assert np.array_equal(out, x)
        assert out is not x

    def test_float64_dispatch(self, rng):
        x = _vec(rng, 20, np.float64)
        y = _vec(rng, 20, np.float64)
        out = blas1.axpy(1.0, x, y)
        assert out.dtype == np.float64
        assert np.allclose(out, x + y)

    def test_length_mismatch(self, rng):
        with pytest.raises(ShapeError):
            blas1.dot(_vec(rng, 5), _vec(rng, 6))

    def test_mixed_dtypes_rejected(self, rng):
        with pytest.raises(DTypeError):
            blas1.axpy(1.0, _vec(rng, 5), _vec(rng, 5, np.float64))

    def test_matrix_rejected_for_vector_op(self, rng):
        with pytest.raises(ShapeError):
            blas1.nrm2(_mat(rng, 3, 3))

    def test_int_input_promoted_to_float32(self):
        out = blas1.scal(2.0, np.array([1, 2, 3]))
        assert out.dtype == np.float32
        assert np.allclose(out, [2, 4, 6])


class TestBlas2:
    def test_gemv(self, rng):
        a, x = _mat(rng, 20, 30), _vec(rng, 30)
        assert np.allclose(blas2.gemv(a, x), a @ x, atol=1e-5)

    def test_gemv_trans(self, rng):
        a, x = _mat(rng, 20, 30), _vec(rng, 20)
        assert np.allclose(blas2.gemv(a, x, trans=True), a.T @ x, atol=1e-5)

    def test_gemv_alpha(self, rng):
        a, x = _mat(rng, 10, 10), _vec(rng, 10)
        assert np.allclose(blas2.gemv(a, x, alpha=2.0), 2.0 * (a @ x), atol=1e-5)

    def test_gemv_shape_error(self, rng):
        with pytest.raises(ShapeError):
            blas2.gemv(_mat(rng, 4, 5), _vec(rng, 4))

    def test_gemv_trans_shape_error(self, rng):
        with pytest.raises(ShapeError):
            blas2.gemv(_mat(rng, 4, 5), _vec(rng, 5), trans=True)

    def test_ger(self, rng):
        x, y = _vec(rng, 15), _vec(rng, 25)
        assert np.allclose(blas2.ger(x, y), np.outer(x, y), atol=1e-5)

    def test_symv_reads_one_triangle(self, rng):
        s = _mat(rng, 16, 16)
        s = (s + s.T) / 2
        x = _vec(rng, 16)
        # corrupt the strict upper triangle; lower=True must ignore it
        corrupted = s.copy()
        corrupted[np.triu_indices(16, 1)] = 99.0
        assert np.allclose(blas2.symv(corrupted, x, lower=True), s @ x, atol=1e-4)

    def test_trmv_lower(self, rng):
        l = np.tril(_mat(rng, 12, 12))
        x = _vec(rng, 12)
        assert np.allclose(blas2.trmv(l, x, lower=True), l @ x, atol=1e-5)

    def test_trmv_upper(self, rng):
        u = np.triu(_mat(rng, 12, 12))
        x = _vec(rng, 12)
        assert np.allclose(blas2.trmv(u, x, lower=False), u @ x, atol=1e-5)

    def test_trsv_solves(self, rng):
        l = np.tril(_mat(rng, 10, 10)) + 2 * np.eye(10, dtype=np.float32)
        b = _vec(rng, 10)
        x = blas2.trsv(l, b, lower=True)
        assert np.allclose(l @ x, b, atol=1e-4)

    def test_trsv_trans_solves(self, rng):
        l = np.tril(_mat(rng, 10, 10)) + 2 * np.eye(10, dtype=np.float32)
        b = _vec(rng, 10)
        x = blas2.trsv(l, b, lower=True, trans=True)
        assert np.allclose(l.T @ x, b, atol=1e-4)

    def test_nonsquare_rejected_for_trmv(self, rng):
        with pytest.raises(ShapeError):
            blas2.trmv(_mat(rng, 4, 5), _vec(rng, 5))


class TestBlas3:
    def test_gemm(self, rng):
        a, b = _mat(rng, 10, 20), _mat(rng, 20, 15)
        assert np.allclose(blas3.gemm(a, b), a @ b, atol=1e-5)

    @pytest.mark.parametrize("ta,tb", [(False, False), (True, False),
                                       (False, True), (True, True)])
    def test_gemm_transpose_flags(self, rng, ta, tb):
        a = _mat(rng, 8, 12) if not ta else _mat(rng, 12, 8)
        b = _mat(rng, 12, 9) if not tb else _mat(rng, 9, 12)
        ref = (a.T if ta else a) @ (b.T if tb else b)
        assert np.allclose(blas3.gemm(a, b, trans_a=ta, trans_b=tb), ref, atol=1e-5)

    def test_gemm_alpha(self, rng):
        a, b = _mat(rng, 6, 6), _mat(rng, 6, 6)
        assert np.allclose(blas3.gemm(a, b, alpha=-0.5), -0.5 * (a @ b), atol=1e-5)

    def test_gemm_inner_mismatch(self, rng):
        with pytest.raises(ShapeError):
            blas3.gemm(_mat(rng, 4, 5), _mat(rng, 6, 4))

    def test_trmm_lower(self, rng):
        l = np.tril(_mat(rng, 14, 14))
        b = _mat(rng, 14, 9)
        assert np.allclose(blas3.trmm(l, b, lower=True), l @ b, atol=1e-5)

    def test_trmm_upper(self, rng):
        u = np.triu(_mat(rng, 14, 14))
        b = _mat(rng, 14, 9)
        assert np.allclose(blas3.trmm(u, b, lower=False), u @ b, atol=1e-5)

    def test_trmm_right_side(self, rng):
        l = np.tril(_mat(rng, 9, 9))
        b = _mat(rng, 14, 9)
        assert np.allclose(
            blas3.trmm(l, b, side_left=False, lower=True), b @ l, atol=1e-5
        )

    def test_trmm_ignores_other_triangle(self, rng):
        """TRMM must never read the zero triangle — the very reason it is
        half the FLOPs of GEMM."""
        dense = _mat(rng, 10, 10)
        b = _mat(rng, 10, 10)
        assert np.allclose(
            blas3.trmm(dense, b, lower=True), np.tril(dense) @ b, atol=1e-5
        )

    def test_trmm_shape_error(self, rng):
        with pytest.raises(ShapeError):
            blas3.trmm(np.tril(_mat(rng, 5, 5)), _mat(rng, 6, 4))

    def test_syrk_a_at(self, rng):
        a = _mat(rng, 12, 7)
        assert np.allclose(blas3.syrk(a), a @ a.T, atol=1e-5)

    def test_syrk_at_a(self, rng):
        a = _mat(rng, 12, 7)
        assert np.allclose(blas3.syrk(a, trans=True), a.T @ a, atol=1e-5)

    def test_syrk_unfilled_is_triangular(self, rng):
        a = _mat(rng, 8, 8)
        c = blas3.syrk(a, fill=False, lower=True)
        assert np.allclose(c, np.tril(c))

    def test_syrk_result_symmetric(self, rng):
        c = blas3.syrk(_mat(rng, 9, 5))
        assert np.allclose(c, c.T, atol=1e-6)

    def test_symm(self, rng):
        s = _mat(rng, 11, 11)
        s = (s + s.T) / 2
        b = _mat(rng, 11, 6)
        assert np.allclose(blas3.symm(s, b), s @ b, atol=1e-5)

    def test_trsm_solves(self, rng):
        l = np.tril(_mat(rng, 10, 10)) + 2 * np.eye(10, dtype=np.float32)
        b = _mat(rng, 10, 4)
        x = blas3.trsm(l, b, lower=True)
        assert np.allclose(l @ x, b, atol=1e-4)

    def test_float64_gemm(self, rng):
        a, b = _mat(rng, 8, 8, np.float64), _mat(rng, 8, 8, np.float64)
        out = blas3.gemm(a, b)
        assert out.dtype == np.float64
        assert np.allclose(out, a @ b)

    def test_mixed_dtype_rejected(self, rng):
        with pytest.raises(DTypeError):
            blas3.gemm(_mat(rng, 4, 4), _mat(rng, 4, 4, np.float64))


class TestDestinationAware:
    """The ``out=``/``overwrite`` variants must be bit-identical to the
    allocating paths and genuinely write into the caller's buffer —
    that is the contract arena execution is built on."""

    def test_add_sub_neg_out(self, rng):
        x = _mat(rng, 12, 12)
        y = _mat(rng, 12, 12)
        out = np.empty_like(x)
        assert blas1.add(x, y, out=out) is out
        assert out.tobytes() == (x + y).tobytes()
        assert blas1.sub(x, y, out=out) is out
        assert out.tobytes() == (x - y).tobytes()
        assert blas1.neg(x, out=out) is out
        assert out.tobytes() == (-x).tobytes()

    def test_add_without_out_allocates(self, rng):
        x = _mat(rng, 8, 8)
        y = _mat(rng, 8, 8)
        r = blas1.add(x, y)
        assert r is not x and r is not y
        assert r.tobytes() == (x + y).tobytes()

    def test_out_may_alias_operand(self, rng):
        x = _mat(rng, 10, 10)
        y = _mat(rng, 10, 10)
        expected = (x + y).tobytes()
        blas1.add(x, y, out=x)
        assert x.tobytes() == expected

    def test_scal_out_mode(self, rng):
        x = _mat(rng, 9, 9)
        out = np.empty_like(x)
        assert blas1.scal(2.5, x, out=out) is out
        assert out.tobytes() == (x * x.dtype.type(2.5)).tobytes()

    def test_scal_rejects_out_plus_overwrite(self, rng):
        x = _vec(rng, 8)
        with pytest.raises(KernelError):
            blas1.scal(2.0, x, overwrite=True, out=np.empty_like(x))

    def test_gemm_out(self, rng):
        a = _mat(rng, 14, 10)
        b = _mat(rng, 10, 12)
        ref = blas3.gemm(a, b)
        out = np.empty((14, 12), dtype=a.dtype)
        res = blas3.gemm(a, b, out=out)
        assert res is out
        assert out.tobytes() == ref.tobytes()

    def test_gemm_out_with_alpha_and_trans(self, rng):
        a = _mat(rng, 10, 14)
        b = _mat(rng, 10, 12)
        ref = blas3.gemm(a, b, alpha=2.0, trans_a=True)
        out = np.empty((14, 12), dtype=a.dtype)
        assert blas3.gemm(a, b, alpha=2.0, trans_a=True, out=out) is out
        assert out.tobytes() == ref.tobytes()

    def test_gemm_alpha_fold_is_bit_identical(self, rng):
        """alpha rides along after accumulation: scaling inside the BLAS
        call equals an elementwise post-scale, bit for bit."""
        a = _mat(rng, 16, 16)
        b = _mat(rng, 16, 16)
        folded = blas3.gemm(a, b, alpha=2.5)
        scaled = blas3.gemm(a, b) * a.dtype.type(2.5)
        assert folded.tobytes() == scaled.tobytes()

    def test_gemm_beta_accumulates(self, rng):
        a = _mat(rng, 8, 8)
        b = _mat(rng, 8, 8)
        c = _mat(rng, 8, 8)
        expected = blas3.gemm(a, b) + c
        res = blas3.gemm(a, b, beta=1.0, out=c)
        assert np.allclose(res, expected, atol=1e-5)

    def test_gemm_out_rejects_bad_buffers(self, rng):
        a = _mat(rng, 8, 8)
        b = _mat(rng, 8, 8)
        with pytest.raises(ShapeError):
            blas3.gemm(a, b, out=np.empty((4, 4), dtype=a.dtype))
        with pytest.raises(KernelError):
            blas3.gemm(a, b, out=np.empty((8, 8), dtype=np.float64))
        with pytest.raises(KernelError):
            blas3.gemm(a, b, out=np.ones((8, 8), dtype=a.dtype, order="F"))
        with pytest.raises(KernelError):
            blas3.gemm(a, b, beta=0.5)  # beta without out

    def test_gemv_out(self, rng):
        a = _mat(rng, 12, 9)
        x = _vec(rng, 9)
        ref = blas2.gemv(a, x)
        out = np.empty(12, dtype=a.dtype)
        assert blas2.gemv(a, x, out=out) is out
        assert out.tobytes() == ref.tobytes()

    def test_gemv_out_trans(self, rng):
        a = _mat(rng, 12, 9)
        x = _vec(rng, 12)
        ref = blas2.gemv(a, x, trans=True)
        out = np.empty(9, dtype=a.dtype)
        assert blas2.gemv(a, x, trans=True, out=out) is out
        assert out.tobytes() == ref.tobytes()

    def test_gemv_out_rejects_bad_buffers(self, rng):
        a = _mat(rng, 12, 9)
        x = _vec(rng, 9)
        with pytest.raises(ShapeError):
            blas2.gemv(a, x, out=np.empty(5, dtype=a.dtype))
        with pytest.raises(KernelError):
            blas2.gemv(a, x, out=np.empty(12, dtype=np.float64))


class TestStructuredDestinationAware:
    """``out=`` on TRMM/SYMM/SYRK: bit-identical to the allocating path,
    written into the caller's C-ordered buffer through its Fortran view
    (the contract arena mode's structured kernels rely on)."""

    def test_trmm_out(self, rng):
        a = np.tril(_mat(rng, 10, 10))
        b = _mat(rng, 10, 7)
        ref = blas3.trmm(a, b)
        out = np.empty((10, 7), dtype=a.dtype)
        assert blas3.trmm(a, b, out=out) is out
        assert out.tobytes() == ref.tobytes()

    def test_trmm_out_right_side(self, rng):
        a = np.tril(_mat(rng, 7, 7))
        b = _mat(rng, 10, 7)
        ref = blas3.trmm(a, b, side_left=False)
        out = np.empty((10, 7), dtype=a.dtype)
        assert blas3.trmm(a, b, side_left=False, out=out) is out
        assert out.tobytes() == ref.tobytes()

    def test_symm_out(self, rng):
        s = _mat(rng, 9, 9)
        s = s + s.T
        b = _mat(rng, 9, 6)
        ref = blas3.symm(s, b)
        out = np.full((9, 6), np.nan, dtype=s.dtype)
        assert blas3.symm(s, b, out=out) is out
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
    @pytest.mark.parametrize("trans", [False, True], ids=["a_at", "at_a"])
    def test_syrk_out_overwrites_dirty_buffer(self, rng, lower, trans):
        a = _mat(rng, 8, 5)
        ref = blas3.syrk(a, trans=trans, lower=lower)
        n = ref.shape[0]
        # A dirty destination must be fully overwritten: BLAS only
        # touches one triangle, the in-place mirror fill covers the rest.
        out = np.full((n, n), 123.0, dtype=a.dtype)
        assert blas3.syrk(a, trans=trans, lower=lower, out=out) is out
        assert out.tobytes() == ref.tobytes()

    def test_syrk_fill_is_exact_mirror(self, rng):
        a = _mat(rng, 9, 4)
        c = blas3.syrk(a)
        assert c.tobytes() == np.ascontiguousarray(c.T).tobytes()

    def test_syrk_out_requires_fill(self, rng):
        a = _mat(rng, 6, 4)
        out = np.empty((6, 6), dtype=a.dtype)
        with pytest.raises(KernelError, match="fill"):
            blas3.syrk(a, fill=False, out=out)

    def test_structured_out_rejects_bad_buffers(self, rng):
        a = np.tril(_mat(rng, 8, 8))
        b = _mat(rng, 8, 5)
        with pytest.raises(ShapeError):
            blas3.trmm(a, b, out=np.empty((5, 5), dtype=a.dtype))
        with pytest.raises(KernelError, match="dtype"):
            blas3.trmm(a, b, out=np.empty((8, 5), dtype=np.float64))
        with pytest.raises(KernelError, match="C-contiguous"):
            blas3.trmm(a, b, out=np.empty((8, 5), dtype=a.dtype, order="F"))
        s = a + a.T
        with pytest.raises(KernelError, match="C-contiguous"):
            blas3.symm(s, b, out=np.empty((8, 5), dtype=a.dtype, order="F"))
