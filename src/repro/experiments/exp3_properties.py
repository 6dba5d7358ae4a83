"""Experiment 3 (Table IV) — Exploiting Matrix Properties.

Products ``Y := AB`` where structure admits cheaper kernels:

=======  ======================  =============================
Row      Structure               Cheap implementation
=======  ======================  =============================
``AB``   none                    GEMM (baseline)
``LB``   L lower triangular      TRMM — half the FLOPs
``AAᵀ``  symmetric output        SYRK — half the FLOPs
``TB``   T tridiagonal           sequence of row scalings (6n²)
``DB``   D diagonal              row scaling (n²)
=======  ======================  =============================

Columns: the hand-coded SciPy/BLAS reference; both frameworks' plain
``matmul`` (expected: blind to structure, all ≈ GEMM); TF's opt-in
``linalg.tridiagonal_matmul`` where it exists (expected: beats the
sequential SciPy loop — the scalings are vectorized); PyT has no optimized
entry point (``n.a.``).
"""

from __future__ import annotations

from ..bench.registry import register_experiment
from ..bench.reporting import Cell, ExperimentTable
from ..bench.timing import measure
from ..frameworks import pytsim, tfsim
from ._measure import time_compiled
from .scipy_reference import (
    diag_scale_reference,
    gemm_reference,
    syrk_reference,
    tridiag_scal_reference,
    trmm_reference,
)
from .sizes import experiment_size
from .workloads import Workloads


@register_experiment(
    "exp3",
    "Table IV",
    "matrix properties: TRMM/SYRK/tridiagonal/diagonal vs blind matmul",
)
def run(n: int | None = None, repetitions: int | None = None) -> ExperimentTable:
    n = experiment_size(n)
    w = Workloads(n)
    a, b = w.general(0), w.general(1)
    l = w.lower_triangular()
    t = w.tridiagonal()
    d = w.diagonal()

    af, bf = w.blas_operand(a), w.blas_operand(b)
    lf, tf_arr, df = w.blas_operand(l), w.blas_operand(t), w.blas_operand(d)

    @tfsim.function
    def tf_matmul(p, q):
        return p @ q

    @pytsim.jit.script
    def pyt_matmul(p, q):
        return p @ q

    @tfsim.function
    def tf_gram(p):
        return p @ tfsim.transpose(p)

    @pytsim.jit.script
    def pyt_gram(p):
        return p @ p.T

    @tfsim.function
    def tf_tridiag_op(p, q):
        return tfsim.linalg.tridiagonal_matmul(p, q)

    table = ExperimentTable(
        title=f"Table IV: matrix properties, execution time (s), n = {n}",
        columns=["SciPy BLAS", "TF matmul", "TF optim", "PyT matmul", "PyT optim"],
    )

    def row(label, ref_fn, tf_args, pyt_args, tf_opt_fn=None,
            tf_fn=tf_matmul, pyt_fn=pyt_matmul):
        ref = measure(ref_fn, label="scipy", repetitions=repetitions)
        tf_t = time_compiled(tf_fn, tf_args, label="tf", repetitions=repetitions)
        pyt_t = time_compiled(pyt_fn, pyt_args, label="pyt",
                              repetitions=repetitions)
        if tf_opt_fn is not None:
            opt = time_compiled(tf_opt_fn, tf_args, label="tf_opt",
                                repetitions=repetitions)
            tf_opt_cell: Cell | float = opt.best
        else:
            tf_opt_cell = Cell(text="n.a.")
        table.add_row(
            label,
            SciPy_BLAS=ref.best,
            TF_matmul=tf_t.best,
            TF_optim=tf_opt_cell,
            PyT_matmul=pyt_t.best,
            PyT_optim=Cell(text="n.a."),
        )

    row("AB", lambda: gemm_reference(af, bf), [a, b], [a, b])
    row("LB", lambda: trmm_reference(lf, bf), [l, b], [l, b])
    row("AAᵀ", lambda: syrk_reference(af), [a], [a],
        tf_fn=tf_gram, pyt_fn=pyt_gram)
    row("TB", lambda: tridiag_scal_reference(tf_arr, bf), [t, b], [t, b],
        tf_opt_fn=tf_tridiag_op)
    row("DB", lambda: diag_scale_reference(df, bf), [d, b], [d, b],
        tf_opt_fn=tf_tridiag_op)
    table.notes.append(
        "expected shape: framework matmul columns ≈ the AB baseline on every "
        "row (structure ignored); SciPy BLAS ≈ 0.5-0.6× for LB/AAᵀ, ≪ for "
        "TB/DB; TF tridiagonal_matmul ≤ the SciPy SCAL loop"
    )
    return table
