"""Quickstart: the ``repro.api`` Session — one compile/run surface.

Run:  python examples/quickstart.py [n]

Walks through the paper's Table I expression (AᵀB)ᵀ(AᵀB) on both
simulated backends through a single :class:`repro.api.Session`:

* eager mode pays 3 GEMMs (AᵀB computed twice);
* graph mode's CSE removes one — the paper's ~1.5× observation;
* the session's plan cache dedupes the *structurally identical* tfsim
  and pytsim traces: the second backend is a cache hit, no recompile;
* ``session.stats()`` shows it all — hits/misses plus per-plan timings.
"""

import sys
import time

from repro import limit_threads

limit_threads(1)  # single-threaded, like the paper (set before BLAS use)

from repro import api  # noqa: E402
from repro import tensor as T  # noqa: E402
from repro.frameworks import tfsim  # noqa: E402


def gram(a, b):
    """(AᵀB)ᵀ(AᵀB) — parenthesized, so graph mode can CSE the shared AᵀB."""
    return (a.T @ b).T @ (a.T @ b)


def main(n: int = 800) -> None:
    print(f"== quickstart (n = {n}) ==\n")
    A = T.random_general(n, seed=1)
    B = T.random_general(n, seed=2)

    # ----- eager mode: every op runs immediately, nothing is shared --------
    t0 = time.perf_counter()
    eager = tfsim.transpose(tfsim.transpose(A) @ B) @ (tfsim.transpose(A) @ B)
    t_eager = time.perf_counter() - t0
    print(f"eager       : {t_eager:.4f}s  (3 GEMMs: AᵀB computed twice)")

    # ----- graph mode through an explicit Session -----------------------------
    with api.Session() as session:
        f = session.compile(gram, backend="tfsim")
        f(A, B)  # first call traces + optimizes (excluded, like the paper)
        t0 = time.perf_counter()
        graph = session.run(f, A, B)
        t_graph = time.perf_counter() - t0
        kernels = f.last_report.kernel_counts()
        print(f"tfsim graph : {t_graph:.4f}s  (kernels: {kernels})")
        print(f"eager / graph ratio: {t_eager / t_graph:.2f}x  (paper: ~1.5x)\n")

        assert graph.allclose(eager, rtol=1e-2), "modes disagree!"

        # ----- the same program, PyTorch-flavoured: a plan-cache *hit* -------
        g = session.compile(gram, backend="pytsim")
        g(A, B)
        print(f"pytsim graph kernels: {g.last_report.kernel_counts()}")
        shared = f.get_concrete(A, B).plan is g.get_concrete(A, B).plan
        print(f"structurally identical trace -> one shared plan: {shared}")

        # ----- throughput serving: one plan, many feeds ----------------------
        feeds = [[A, T.random_general(n, seed=100 + i)] for i in range(8)]
        batch = session.run_batch(f, feeds)
        print(f"run_batch   : {len(batch)} feed sets through one cached plan")

        # ----- what the session saw ------------------------------------------
        print("\n" + session.stats().render())

    # ----- inspect what the optimizer saw and produced ------------------------
    from repro.ir.pretty import render_graph

    print("\n" + render_graph(f.initial_graph(A, B), title="initial DAG (Fig. 3 left)"))
    print("\n" + render_graph(f.optimized_graph(A, B), title="optimized DAG (Fig. 3 right)"))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 800)
