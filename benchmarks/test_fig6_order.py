"""Fig. 6 — equal-FLOP instruction orders of (AB)(CD).

Expected shape: both variants perform 3 identical GEMMs; times are within
noise of each other (memory-order effects are second-order for dense
compute-bound kernels — the paper's justification for FLOP-based costing).
"""

import pytest

from repro.kernels import blas3


@pytest.fixture(scope="module")
def quad(w, n):
    return (
        w.blas_operand(w.general(0)),
        w.blas_operand(w.general(1)),
        w.blas_operand(w.general(2)),
        w.blas_operand(w.general_rect(n, n, 3)),
    )


@pytest.mark.benchmark(group="fig6-instruction-order")
class TestFig6:
    def test_variant1_u_first(self, benchmark, quad):
        a, b, c, d = quad

        def variant1():
            u = blas3.gemm(a, b)
            v = blas3.gemm(c, d)
            return blas3.gemm(u, v)

        benchmark(variant1)

    def test_variant2_v_first(self, benchmark, quad):
        a, b, c, d = quad

        def variant2():
            v = blas3.gemm(c, d)
            u = blas3.gemm(a, b)
            return blas3.gemm(u, v)

        benchmark(variant2)
