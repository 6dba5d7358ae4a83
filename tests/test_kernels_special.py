"""Tests for structured-matrix kernels and LAPACK wrappers."""

import numpy as np
import pytest

from repro.errors import KernelError, ShapeError
from repro.kernels import lapack, special


def _mat(rng, m, n, dtype=np.float32):
    return (rng.random((m, n)) - 0.5).astype(dtype)


class TestTridiagonal:
    def _tridiag(self, rng, n):
        dl = (rng.random(n - 1) - 0.5).astype(np.float32)
        d = (rng.random(n) - 0.5).astype(np.float32)
        du = (rng.random(n - 1) - 0.5).astype(np.float32)
        return dl, d, du

    def test_from_bands_roundtrip(self, rng):
        dl, d, du = self._tridiag(rng, 9)
        t = special.tridiag_from_bands(dl, d, du)
        dl2, d2, du2 = special.bands_from_tridiag(t)
        assert np.allclose(dl, dl2) and np.allclose(d, d2) and np.allclose(du, du2)

    def test_from_bands_structure(self, rng):
        dl, d, du = self._tridiag(rng, 7)
        t = special.tridiag_from_bands(dl, d, du)
        band = np.tril(np.triu(t, -1), 1)
        assert np.allclose(t, band)

    def test_matmul_dense_input(self, rng):
        dl, d, du = self._tridiag(rng, 12)
        t = special.tridiag_from_bands(dl, d, du)
        b = _mat(rng, 12, 8)
        assert np.allclose(special.tridiagonal_matmul(t, b), t @ b, atol=1e-5)

    def test_matmul_band_input(self, rng):
        dl, d, du = self._tridiag(rng, 12)
        t = special.tridiag_from_bands(dl, d, du)
        b = _mat(rng, 12, 8)
        out = special.tridiagonal_matmul((dl, d, du), b)
        assert np.allclose(out, t @ b, atol=1e-5)

    def test_scal_loop_matches_vectorized(self, rng):
        dl, d, du = self._tridiag(rng, 15)
        t = special.tridiag_from_bands(dl, d, du)
        b = _mat(rng, 15, 6)
        assert np.allclose(
            special.tridiagonal_matmul_scal_loop(t, b),
            special.tridiagonal_matmul(t, b),
            atol=1e-5,
        )

    def test_matmul_n2_case(self, rng):
        """n = 2 has empty-ish bands on one side after slicing."""
        dl, d, du = self._tridiag(rng, 2)
        t = special.tridiag_from_bands(dl, d, du)
        b = _mat(rng, 2, 3)
        assert np.allclose(special.tridiagonal_matmul(t, b), t @ b, atol=1e-6)

    def test_band_length_mismatch(self, rng):
        with pytest.raises(ShapeError):
            special.tridiag_from_bands(np.ones(3), np.ones(3), np.ones(2))

    def test_shape_mismatch(self, rng):
        t = special.tridiag_from_bands(np.ones(4), np.ones(5), np.ones(4))
        with pytest.raises(ShapeError):
            special.tridiagonal_matmul(t, _mat(rng, 6, 2))


class TestDiagonal:
    def test_matmul_vector_diag(self, rng):
        d = (rng.random(10) - 0.5).astype(np.float32)
        b = _mat(rng, 10, 7)
        assert np.allclose(special.diag_matmul(d, b), np.diag(d) @ b, atol=1e-6)

    def test_matmul_dense_diag(self, rng):
        d = np.diag((rng.random(10) - 0.5).astype(np.float32))
        b = _mat(rng, 10, 7)
        assert np.allclose(special.diag_matmul(d, b), d @ b, atol=1e-6)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            special.diag_matmul(np.ones(4, dtype=np.float32), _mat(rng, 5, 2))


class TestBlockDiag:
    def test_two_blocks(self, rng):
        a1, a2 = _mat(rng, 6, 6), _mat(rng, 6, 6)
        b = _mat(rng, 12, 5)
        big = np.zeros((12, 12), dtype=np.float32)
        big[:6, :6], big[6:, 6:] = a1, a2
        assert np.allclose(
            special.block_diag_matmul([a1, a2], b), big @ b, atol=1e-5
        )

    def test_unequal_blocks(self, rng):
        a1, a2, a3 = _mat(rng, 3, 3), _mat(rng, 5, 5), _mat(rng, 2, 2)
        b = _mat(rng, 10, 4)
        big = np.zeros((10, 10), dtype=np.float32)
        big[:3, :3], big[3:8, 3:8], big[8:, 8:] = a1, a2, a3
        assert np.allclose(
            special.block_diag_matmul([a1, a2, a3], b), big @ b, atol=1e-5
        )

    def test_empty_blocks_rejected(self, rng):
        with pytest.raises(ShapeError):
            special.block_diag_matmul([], _mat(rng, 4, 4))

    def test_row_count_mismatch(self, rng):
        with pytest.raises(ShapeError):
            special.block_diag_matmul([_mat(rng, 3, 3)], _mat(rng, 4, 4))

    def test_nonsquare_block_rejected(self, rng):
        with pytest.raises(ShapeError):
            special.block_diag_matmul([_mat(rng, 3, 4)], _mat(rng, 3, 4))


class TestLapack:
    def _spd(self, rng, n, dtype=np.float32):
        a = (rng.random((n, n)) - 0.5).astype(np.float64)
        return (a @ a.T + n * np.eye(n)).astype(dtype)

    def test_potrf_lower(self, rng):
        a = self._spd(rng, 8)
        c = lapack.potrf(a, lower=True)
        assert np.allclose(c @ c.T, a, rtol=1e-3, atol=1e-3)
        assert np.allclose(c, np.tril(c))

    def test_potrf_upper(self, rng):
        a = self._spd(rng, 8)
        c = lapack.potrf(a, lower=False)
        assert np.allclose(c.T @ c, a, rtol=1e-3, atol=1e-3)

    def test_potrf_rejects_indefinite(self, rng):
        a = np.eye(5, dtype=np.float32)
        a[3, 3] = -1.0
        with pytest.raises(KernelError):
            lapack.potrf(a)

    def test_cholesky_solve(self, rng):
        a = self._spd(rng, 12, np.float64)
        b = rng.random(12)
        x = lapack.cholesky_solve(a, b)
        assert np.allclose(a @ x, b, atol=1e-8)

    def test_cholesky_solve_multiple_rhs(self, rng):
        a = self._spd(rng, 10, np.float64)
        b = rng.random((10, 3))
        x = lapack.cholesky_solve(a, b)
        assert x.shape == (10, 3)
        assert np.allclose(a @ x, b, atol=1e-8)

    def test_lu_solve(self, rng):
        a = (rng.random((9, 9)) + 2 * np.eye(9)).astype(np.float64)
        b = rng.random(9)
        x = lapack.lu_solve(a, b)
        assert np.allclose(a @ x, b, atol=1e-8)

    def test_lu_solve_matches_numpy(self, rng):
        a = (rng.random((7, 7)) + 2 * np.eye(7)).astype(np.float64)
        b = rng.random(7)
        assert np.allclose(lapack.lu_solve(a, b), np.linalg.solve(a, b), atol=1e-8)

    def test_getrf_singular_detected(self):
        with pytest.raises(KernelError):
            lapack.getrf(np.zeros((4, 4), dtype=np.float64))

    def test_shape_mismatch(self, rng):
        a = self._spd(rng, 6, np.float64)
        with pytest.raises(ShapeError):
            lapack.cholesky_solve(a, rng.random(7))


class TestBandViews:
    """Zero-copy band extraction and the destination-aware specials."""

    def _t(self, rng, n=9):
        dl = (rng.random(n - 1) - 0.5).astype(np.float32)
        d = (rng.random(n) - 0.5).astype(np.float32)
        du = (rng.random(n - 1) - 0.5).astype(np.float32)
        return special.tridiag_from_bands(dl, d, du)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_views_match_diagonals_without_copying(self, rng, order):
        t = np.asarray(self._t(rng), order=order)
        dl, d, du = special.tridiag_band_views(t)
        assert np.array_equal(dl, np.diag(t, -1))
        assert np.array_equal(d, np.diag(t))
        assert np.array_equal(du, np.diag(t, 1))
        for band in (dl, d, du):
            assert np.shares_memory(band, t)

    def test_non_contiguous_returns_none_and_gather_works(self, rng):
        big = np.zeros((14, 14), dtype=np.float32)
        t = self._t(rng, 7)
        big[:7, :7] = t
        view = big[:7, :7]  # row-sliced: neither C- nor F-contiguous
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        assert special.tridiag_band_views(view) is None
        dl, d, du = special.bands_from_tridiag(view)
        assert np.array_equal(d, np.diag(t))
        assert np.array_equal(dl, np.diag(t, -1))

    def test_bands_from_tridiag_returns_owned_copies(self, rng):
        t = self._t(rng)
        dl, d, du = special.bands_from_tridiag(t)
        d[0] = 999.0
        assert t[0, 0] != 999.0

    def test_bands_from_tridiag_out(self, rng):
        t = self._t(rng)
        out = (np.empty(8, np.float32), np.empty(9, np.float32),
               np.empty(8, np.float32))
        assert special.bands_from_tridiag(t, out=out) is out
        assert np.array_equal(out[1], np.diag(t))
        with pytest.raises(ShapeError):
            special.bands_from_tridiag(
                t, out=(np.empty(3, np.float32),) * 3)

    def test_tridiagonal_matmul_out_bit_identical(self, rng):
        t = self._t(rng)
        b = _mat(rng, 9, 5)
        ref = special.tridiagonal_matmul(t, b)
        out = np.empty((9, 5), dtype=b.dtype)
        scratch = np.empty((9, 5), dtype=b.dtype)
        assert special.tridiagonal_matmul(t, b, out=out,
                                          scratch=scratch) is out
        assert out.tobytes() == ref.tobytes()
        # scratch is optional (allocated internally when omitted)
        out2 = np.empty((9, 5), dtype=b.dtype)
        special.tridiagonal_matmul(t, b, out=out2)
        assert out2.tobytes() == ref.tobytes()
        with pytest.raises(ShapeError):
            special.tridiagonal_matmul(t, b, out=np.empty((3, 3), b.dtype))

    def test_tridiagonal_matmul_out_one_by_one(self, rng):
        t = np.array([[3.0]], dtype=np.float32)
        b = np.array([[2.0, -1.0]], dtype=np.float32)
        out = np.empty((1, 2), dtype=np.float32)
        special.tridiagonal_matmul(t, b, out=out)
        assert np.array_equal(out, [[6.0, -3.0]])

    def test_diag_matmul_out_bit_identical(self, rng):
        d = np.diag((rng.random(8) - 0.5).astype(np.float32))
        b = _mat(rng, 8, 6)
        ref = special.diag_matmul(d, b)
        out = np.empty((8, 6), dtype=b.dtype)
        assert special.diag_matmul(d, b, out=out) is out
        assert out.tobytes() == ref.tobytes()
        with pytest.raises(ShapeError):
            special.diag_matmul(d, b, out=np.empty((2, 2), b.dtype))
