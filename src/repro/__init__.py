"""repro — reproduction of *Benchmarking the Linear Algebra Awareness of
TensorFlow and PyTorch* (Sankaran, Akbari Alashti, Psarras, Bientinesi;
IPDPSW 2022, arXiv:2202.09888).

The original study probes two real frameworks; this package *builds* both
frameworks as faithful simulators over a real BLAS substrate and re-runs
every experiment:

* :mod:`repro.api`         — **the public surface**: ``Session`` (scoped plan
  cache + options), backend registry, one compile/run/stats entry point
* :mod:`repro.kernels`     — BLAS/LAPACK substrate (the "MKL" role)
* :mod:`repro.tensor`      — dense tensors + matrix-property annotations
* :mod:`repro.ir`          — computational-graph IR, tracing, interpreter
* :mod:`repro.passes`      — Grappler-analogue optimizer + "aware" passes
* :mod:`repro.runtime`     — compiled plans, plan cache, sharded execution
* :mod:`repro.serve`       — async serving: coalescing, admission, SLO metrics
* :mod:`repro.faults`      — deterministic fault injection (chaos testing)
* :mod:`repro.chaos`       — scripted recovery drills (``laab chaos``)
* :mod:`repro.chain`       — matrix-chain DP and enumeration
* :mod:`repro.properties`  — property algebra, inference, annotations
* :mod:`repro.rewrite`     — Linnea-analogue derivation-graph engine
* :mod:`repro.frameworks`  — ``tfsim`` (TensorFlow) and ``pytsim`` (PyTorch)
* :mod:`repro.bench`       — timing, bootstrap significance, reporting
* :mod:`repro.experiments` — one module per paper table/figure (+ CLI)

Quickstart::

    from repro import api, tensor as T

    A, B = T.random_general(1000, seed=1), T.random_general(1000, seed=2)

    with api.Session() as session:
        f = session.compile(lambda a, b: (a.T @ b).T @ (a.T @ b),
                            backend="tfsim")
        y = session.run(f, A, B)                  # CSE: 2 GEMMs, not 3
        print(f.last_report.kernel_counts())
        print(session.stats().render())           # cache + per-plan timings
"""

__version__ = "1.0.0"

from .config import config, limit_threads, override
from .errors import ReproError

__all__ = ["config", "limit_threads", "override", "ReproError", "__version__"]
