"""Table I — Eager vs Graph vs MKL-C reference.

Expected shape (paper, n = 3000): row 1 indistinguishable across all five
columns; row 2 eager ≈ 1.5× graph (3 GEMMs vs 2 after CSE).
"""

import pytest

from repro.experiments.scipy_reference import gemm_reference, gram_reference
from repro.frameworks import pytsim, tfsim


@pytest.fixture(scope="module")
def compiled(dense):
    a, b, _ = dense

    @tfsim.function
    def tf_atb(p, q):
        return tfsim.transpose(p) @ q

    @pytsim.jit.script
    def pyt_atb(p, q):
        return p.T @ q

    @tfsim.function
    def tf_gram(p, q):
        return tfsim.transpose(tfsim.transpose(p) @ q) @ (tfsim.transpose(p) @ q)

    @pytsim.jit.script
    def pyt_gram(p, q):
        return (p.T @ q).T @ (p.T @ q)

    for fn in (tf_atb, pyt_atb, tf_gram, pyt_gram):
        fn.get_concrete(a, b)  # trace outside the timed region
    return tf_atb, pyt_atb, tf_gram, pyt_gram


@pytest.mark.benchmark(group="table1-row1-AtB")
class TestRow1:
    def test_mkl_c_reference(self, benchmark, dense, w):
        a, b, _ = dense
        af, bf = w.blas_operand(a), w.blas_operand(b)
        benchmark(lambda: gemm_reference(af, bf, trans_a=True))

    def test_tf_eager(self, benchmark, dense):
        a, b, _ = dense
        benchmark(lambda: tfsim.transpose(a) @ b)

    def test_pyt_eager(self, benchmark, dense):
        a, b, _ = dense
        benchmark(lambda: a.T @ b)

    def test_tf_graph(self, benchmark, dense, compiled):
        a, b, _ = dense
        tf_atb = compiled[0]
        benchmark(lambda: tf_atb(a, b))

    def test_pyt_graph(self, benchmark, dense, compiled):
        a, b, _ = dense
        pyt_atb = compiled[1]
        benchmark(lambda: pyt_atb(a, b))


@pytest.mark.benchmark(group="table1-row2-gram")
class TestRow2:
    def test_mkl_c_two_gemms(self, benchmark, dense, w):
        """Hand-written reference with an explicit temporary (2 GEMMs)."""
        a, b, _ = dense
        af, bf = w.blas_operand(a), w.blas_operand(b)
        benchmark(lambda: gram_reference(af, bf))

    def test_tf_eager(self, benchmark, dense):
        a, b, _ = dense

        def eager():
            return tfsim.transpose(tfsim.transpose(a) @ b) @ (
                tfsim.transpose(a) @ b
            )

        benchmark(eager)

    def test_pyt_eager(self, benchmark, dense):
        a, b, _ = dense
        benchmark(lambda: (a.T @ b).T @ (a.T @ b))

    def test_tf_graph(self, benchmark, dense, compiled):
        a, b, _ = dense
        tf_gram = compiled[2]
        benchmark(lambda: tf_gram(a, b))

    def test_pyt_graph(self, benchmark, dense, compiled):
        a, b, _ = dense
        pyt_gram = compiled[3]
        benchmark(lambda: pyt_gram(a, b))
