"""laab_e2e — the end-to-end benchmark of the LAAB runtime.

The benchmark touches nothing under ``src/``: every layer is measured from
outside, by timing calls into the layer's public functions.

``stats``      windowed sampling and the quiet-window / median estimators
``spans``      in-memory span recorder for the traced run (JSONL export)
``inputs``     seeded inputs: operands, graph draw, arrival schedule
``refs``       independent references (float64 oracle, hand-written optimum)
``compat``     forward-compatible access to the program under test
``layers``     outside-in per-layer probes shared by every workload
``metrics``    the declared metric tables (mirrors ``BENCHMARK.json``)
``dispatch_small`` / ``paper_dense`` / ``cold_compile`` / ``serve_mixed``
               the four workloads
"""

WORKLOADS = ("dispatch_small", "paper_dense", "cold_compile", "serve_mixed")
