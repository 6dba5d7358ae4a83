"""Fig. 6 — equal-FLOP variants that differ only in instruction order.

The paper's Fig. 6: ``Y = (AB)(CD)`` computed as

* Variant 1: ``U = A@B; V = C@D; Y = U@V``
* Variant 2: ``V = C@D; U = A@B; Y = U@V``

Both perform exactly the same three GEMMs; any timing difference comes from
memory behaviour (which temporary is cache-hot when the final product runs
— Peise & Bientinesi [34]).  This experiment measures both orders with the
cache flushed between repetitions and applies the bootstrap test of [11]:
on typical hardware with these sizes the verdict is *indistinguishable* —
which is the paper's point that FLOPs, not instruction order, dominate for
compute-bound dense kernels.
"""

from __future__ import annotations

from ..bench.bootstrap import bootstrap_compare
from ..bench.cache import CacheFlusher
from ..bench.registry import register_experiment
from ..bench.reporting import Cell, ExperimentTable
from ..bench.timing import measure
from ..kernels import blas3
from .sizes import experiment_size
from .workloads import Workloads


@register_experiment(
    "fig6",
    "Fig. 6",
    "equal-FLOP instruction orders of (AB)(CD): memory effects + bootstrap verdict",
)
def run(n: int | None = None, repetitions: int | None = None) -> ExperimentTable:
    n = experiment_size(n)
    w = Workloads(n)
    a, b = w.blas_operand(w.general(0)), w.blas_operand(w.general(1))
    c, d = w.blas_operand(w.general(2)), w.blas_operand(w.general_rect(n, n, 3))
    flush = CacheFlusher()

    def variant1():
        u = blas3.gemm(a, b)
        v = blas3.gemm(c, d)
        return blas3.gemm(u, v)

    def variant2():
        v = blas3.gemm(c, d)
        u = blas3.gemm(a, b)
        return blas3.gemm(u, v)

    def flushed(fn):
        def run_once():
            flush()
            return fn()

        return run_once

    t1 = measure(flushed(variant1), label="variant1 (U first)",
                 repetitions=repetitions)
    t2 = measure(flushed(variant2), label="variant2 (V first)",
                 repetitions=repetitions)
    verdict = bootstrap_compare(t1, t2)

    table = ExperimentTable(
        title=f"Fig. 6: instruction-order variants of (AB)(CD), n = {n}",
        columns=["best (s)", "median (s)", "FLOPs"],
    )
    flops = f"{3 * 2 * n**3:,}"
    table.add_row("U=AB; V=CD; Y=UV",
                  best__s_=t1.best, median__s_=t1.median,
                  FLOPs=Cell(text=flops))
    table.add_row("V=CD; U=AB; Y=UV",
                  best__s_=t2.best, median__s_=t2.median,
                  FLOPs=Cell(text=flops))
    table.notes.append(f"bootstrap verdict [11]: {verdict.describe()}")
    table.notes.append(
        "expected shape: identical FLOPs; differences, if any, are memory "
        "effects — typically statistically indistinguishable for dense "
        "compute-bound GEMMs (the paper's premise for using FLOPs as cost)"
    )
    return table
