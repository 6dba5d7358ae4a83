"""Table I — Graph mode vs Eager mode vs the MKL-C reference.

Two expressions at size n (paper: n = 3000, float32):

* ``AᵀB`` — one GEMM.  Expectation: no significant difference between the
  direct BLAS call and either framework in either mode (everyone runs the
  same kernel; "we confirm that the frameworks do link to MKL").
* ``(AᵀB)ᵀ(AᵀB)`` — Eager recomputes the common product (3 GEMMs), Graph
  mode CSEs it away (2 GEMMs): Eager ≈ 1.5× Graph.
"""

from __future__ import annotations

from ..bench.registry import register_experiment
from ..bench.reporting import Cell, ExperimentTable
from ..bench.timing import measure
from ..frameworks import pytsim, tfsim
from ._measure import time_compiled, time_eager
from .scipy_reference import gemm_reference
from .sizes import experiment_size
from .workloads import Workloads


def _tf_graph_atb():
    @tfsim.function
    def fn(a, b):
        return tfsim.transpose(a) @ b

    return fn


def _pyt_graph_atb():
    @pytsim.jit.script
    def fn(a, b):
        return a.T @ b

    return fn


def _tf_graph_gram():
    @tfsim.function
    def fn(a, b):
        return tfsim.transpose(tfsim.transpose(a) @ b) @ (tfsim.transpose(a) @ b)

    return fn


def _pyt_graph_gram():
    @pytsim.jit.script
    def fn(a, b):
        return (a.T @ b).T @ (a.T @ b)

    return fn


@register_experiment(
    "table1",
    "Table I",
    "Eager vs Graph vs direct-BLAS reference for AᵀB and (AᵀB)ᵀ(AᵀB)",
)
def run(n: int | None = None, repetitions: int | None = None) -> ExperimentTable:
    n = experiment_size(n)
    w = Workloads(n)
    a, b = w.general(0), w.general(1)
    af, bf = w.blas_operand(a), w.blas_operand(b)

    table = ExperimentTable(
        title=f"Table I: execution time (s), n = {n}",
        columns=["MKL-C", "TF eager", "PyT eager", "TF graph", "PyT graph"],
    )

    # -- row 1: AᵀB ------------------------------------------------------------
    ref = measure(lambda: gemm_reference(af, bf, trans_a=True),
                  label="mkl_c", repetitions=repetitions)
    tf_eager = time_eager(lambda: tfsim.transpose(a) @ b,
                          label="tf_eager", repetitions=repetitions)
    pyt_eager = time_eager(lambda: a.T @ b,
                           label="pyt_eager", repetitions=repetitions)
    tf_graph = time_compiled(_tf_graph_atb(), [a, b],
                             label="tf_graph", repetitions=repetitions)
    pyt_graph = time_compiled(_pyt_graph_atb(), [a, b],
                              label="pyt_graph", repetitions=repetitions)
    table.add_row(
        "AᵀB",
        MKL_C=ref.best,
        TF_eager=tf_eager.best,
        PyT_eager=pyt_eager.best,
        TF_graph=tf_graph.best,
        PyT_graph=pyt_graph.best,
    )

    # -- row 2: (AᵀB)ᵀ(AᵀB) ------------------------------------------------------
    def tf_eager_gram():
        return tfsim.transpose(tfsim.transpose(a) @ b) @ (tfsim.transpose(a) @ b)

    def pyt_eager_gram():
        return (a.T @ b).T @ (a.T @ b)

    tf_eager2 = time_eager(tf_eager_gram, label="tf_eager",
                           repetitions=repetitions)
    pyt_eager2 = time_eager(pyt_eager_gram, label="pyt_eager",
                            repetitions=repetitions)
    tf_graph2 = time_compiled(_tf_graph_gram(), [a, b],
                              label="tf_graph", repetitions=repetitions)
    pyt_graph2 = time_compiled(_pyt_graph_gram(), [a, b],
                               label="pyt_graph", repetitions=repetitions)
    table.add_row(
        "(AᵀB)ᵀ(AᵀB)",
        MKL_C=Cell(text="–"),
        TF_eager=tf_eager2.best,
        PyT_eager=pyt_eager2.best,
        TF_graph=tf_graph2.best,
        PyT_graph=pyt_graph2.best,
    )

    tf_fn, pyt_fn = _tf_graph_gram(), _pyt_graph_gram()
    tf_fn.get_concrete(a, b)
    pyt_fn.get_concrete(a, b)
    table.notes.append(
        "trace/compile overheads (excluded from timings, cf. paper footnote 4): "
        f"tfsim {tf_fn.last_trace_seconds:.1e}s, "
        f"pytsim {pyt_fn.last_trace_seconds:.1e}s"
    )
    table.notes.append(
        "expected shape: row 1 ≈ equal everywhere; row 2 eager ≈ 1.5× graph "
        "(3 GEMMs vs 2 after CSE)"
    )
    return table
