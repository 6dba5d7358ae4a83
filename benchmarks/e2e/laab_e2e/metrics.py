"""The declared metrics: what ``BENCHMARK.json`` lists and what every run
prints.  ``test_e2e_contract.py`` checks the two stay in step.

Every workload reports every metric, so the end-to-end metrics are four
roles plus set-up time and memory; what fills a role on each workload is in
``ROLES`` below, with the name the issue and the README use for it.  A
per-layer metric of a layer the workload does not exercise reads 0 in the
result line and ``null`` in the ``--out`` report.
"""

from __future__ import annotations

#: name -> (unit, better, bound).  A bound is three times the widest
#: run-to-run spread (quartile distance over ten seeds, as a share of the
#: median) any workload showed for the metric when the benchmark was sized:
#: op 5.0 %, alt 5.6 %, bulk 6.9 % (all but bulk on ``serve_mixed``, whose
#: threads and worker process make it the noisiest), reference ratio 4.7 %.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.10),
    "op_p50_us": ("us", "lower", 0.15),
    "op_alt_p50_us": ("us", "lower", 0.20),
    "bulk_items_per_s": ("1/s", "higher", 0.25),
    "vs_reference_x": ("x", "lower", 0.15),
}

#: workload -> role -> (alias, estimator, what it is)
ROLES = {
    "dispatch_small": {
        "op_p50_us": ("call_p50_us", "quiet",
                      "Session call of the 53-node chain, serving options"),
        "op_alt_p50_us": ("call_default_p50_us", "quiet",
                          "the same call under Options() defaults"),
        "bulk_items_per_s": ("batch_feeds_per_s", "quiet",
                             "Session.run_batch over 64 feed sets, feeds/s"),
        "vs_reference_x": ("call_vs_numpy_x", "quiet",
                           "serving call / the chain in eager numpy"),
    },
    "paper_dense": {
        "op_p50_us": ("suite_aware_us", "quiet",
                      "sum over the ten expressions, aware pipeline"),
        "op_alt_p50_us": ("suite_default_us", "quiet",
                          "the same sum, default pipeline"),
        "bulk_items_per_s": ("gemm_batch_feeds_per_s", "quiet",
                             "run_batch of a plain A@B over 4 feed sets, feeds/s"),
        "vs_reference_x": ("aware_slowdown_x", "quiet",
                           "geometric mean of aware call / hand-written optimum"),
    },
    "cold_compile": {
        "op_p50_us": ("cold_first_call_us", "quiet",
                      "fresh Session, compile and first call; mean over the graphs"),
        "op_alt_p50_us": ("warm_first_call_us", "quiet",
                          "the same on a pre-populated plan store"),
        "bulk_items_per_s": ("publish_graphs_per_s", "quiet",
                             "cold first calls per second with an empty store attached"),
        "vs_reference_x": ("cold_vs_numpy_x", "quiet",
                           "cold first call / the graph in eager numpy"),
    },
    "serve_mixed": {
        "op_p50_us": ("serve_open_p50_us", "quiet",
                      "open loop at 1000 req/s, p50 from the due time"),
        "op_alt_p50_us": ("serve_sharded_p50_us", "quiet",
                          "closed loop, 8 clients, Options(shards=1), p50"),
        "bulk_items_per_s": ("serve_closed_rps", "quiet",
                             "closed loop, 8 clients, in-process, req/s"),
        "vs_reference_x": ("serve_cost_x", "quiet",
                           "closed-loop time per request / direct run_batch per feed"),
    },
}

#: name -> (unit, better).  Timed ones use the windowed statistic; counts must
#: repeat exactly for one seed.
PER_LAYER = {
    "setup.import_s": ("s", "lower"),
    "stats.quiet_window_share": ("share", "higher"),
    "fail_share": ("share", "lower"),
    "ir.trace_us": ("us", "lower"),
    "ir.nodes": ("count", "lower"),
    "ir.interpreter_us": ("us", "lower"),
    "passes.default_us": ("us", "lower"),
    "passes.aware_us": ("us", "lower"),
    "passes.nodes_after_default": ("count", "lower"),
    "passes.nodes_after_aware": ("count", "lower"),
    "passes.flops_default": ("flop", "lower"),
    "passes.flops_aware": ("flop", "lower"),
    "passes.flops_optimal": ("flop", "lower"),
    "passes.flops_ratio_aware": ("x", "lower"),
    "runtime.compiler.lower_us": ("us", "lower"),
    "runtime.compiler.instructions": ("count", "lower"),
    "runtime.fusion.lower_fused_us": ("us", "lower"),
    "runtime.fusion.sites": ("count", "higher"),
    "runtime.fusion.beta_folds": ("count", "higher"),
    "runtime.plan.exec_percall_us": ("us", "lower"),
    "runtime.plan.exec_arena_us": ("us", "lower"),
    "runtime.plan.exec_pinned_us": ("us", "lower"),
    "runtime.plan.bytes_copied_per_call": ("B", "lower"),
    "runtime.plan.dispatch_residual_us": ("us", "lower"),
    "runtime.plan.alloc_peak_bytes": ("B", "lower"),
    "runtime.plan.flops": ("flop", "lower"),
    "kernels.blas_floor_us": ("us", "lower"),
    "kernels.flops_floor_us": ("us", "lower"),
    "kernels.ref_expr_us": ("us", "lower"),
    "kernels.gemm_gflops": ("GFLOP/s", "higher"),
    "kernels.copy_gbps": ("GB/s", "higher"),
    "api.call_overhead_us": ("us", "lower"),
    "api.call_p99_us": ("us", "lower"),
    "api.first_call_residual_us": ("us", "lower"),
    "api.copy_overhead_us": ("us", "lower"),
    "runtime.cache.hit_us": ("us", "lower"),
    "runtime.cache.hits": ("count", "higher"),
    "runtime.cache.misses": ("count", "lower"),
    "runtime.cache.store_hits": ("count", "higher"),
    "runtime.store.put_us": ("us", "lower"),
    "runtime.store.load_us": ("us", "lower"),
    "runtime.store.artifact_bytes": ("B", "lower"),
    "runtime.store.corrupt_evicted": ("count", "lower"),
    "runtime.batch.seq_feeds_per_s": ("1/s", "higher"),
    "runtime.batch.threads2_feeds_per_s": ("1/s", "higher"),
    "runtime.shard.spawn_ms": ("ms", "lower"),
    "runtime.shard.wave8_us": ("us", "lower"),
    "runtime.shard.run64_feeds_per_s": ("1/s", "higher"),
    "runtime.shard.bytes_copied": ("B", "lower"),
    "runtime.shard.respawns": ("count", "lower"),
    "runtime.shard.hangs": ("count", "lower"),
    "runtime.autotune.tuning_ms": ("ms", "lower"),
    "runtime.autotune.promotions": ("count", "higher"),
    "runtime.autotune.rejected": ("count", "lower"),
    "serve.waves": ("count", "lower"),
    "serve.wave_occupancy_mean": ("req", "higher"),
    "serve.queue_depth_high_water": ("req", "lower"),
    "serve.rejected": ("count", "lower"),
    "serve.deadline_expired": ("count", "lower"),
    "serve.breaker_trips": ("count", "lower"),
    "serve.wave_exec_us": ("us", "lower"),
    "serve.overhead_us_per_req": ("us", "lower"),
    "serve.sharded_rps": ("1/s", "higher"),
    "serve.closed_p50_ms": ("ms", "lower"),
    "serve.closed_p99_ms": ("ms", "lower"),
    "serve.open_within_limit_share": ("share", "higher"),
    "serve.open_p99_ms": ("ms", "lower"),
    "serve.open_p999_ms": ("ms", "lower"),
    "serve.open2000_p50_ms": ("ms", "lower"),
    "serve.open3000_within_limit_share": ("share", "higher"),
    "serve.max_ok_rate_rps": ("1/s", "higher"),
    "serve.loadgen_late_p99_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans": ("count", "higher"),
}

#: Count metrics that must be equal across two runs of one seed.
EXACT_COUNTS = (
    "ir.nodes", "passes.nodes_after_default", "passes.nodes_after_aware",
    "passes.flops_default", "passes.flops_aware", "passes.flops_optimal",
    "runtime.compiler.instructions", "runtime.fusion.sites",
    "runtime.fusion.beta_folds", "runtime.plan.bytes_copied_per_call",
    "runtime.plan.flops",
)
