"""Compiled execution runtime: plans, plan cache, fusion, sharded execution.

The reference :class:`~repro.ir.interpreter.Interpreter` re-walks the
graph on *every* call — recomputing topological order and liveness and
re-selecting kernels per node.  That is exactly the per-dispatch overhead
the paper attributes to TF/PyTorch eager execution; graph mode only wins
when knowledge about the expression is compiled into the execution once.
This package is that compile-once / execute-many layer:

``signature``  Canonical structural key of a Graph (ops, shapes, dtypes,
               attrs, property annotations) — node-identity-free, so
               independently built but structurally identical graphs
               share one key.
``compiler``   ``compile_plan(graph)``: Graph → :class:`Plan` — a flat
               instruction list with the schedule, kernel selection,
               FLOP/report records and buffer liveness all resolved at
               compile time.  Slot recycling is shape-aware, so every
               slot has one static shape.
``fusion``     Opt-in post-schedule rewrite (``compile_plan(...,
               fusion=True)``): adjacent elementwise chains collapse into
               single fused closures and trailing scales fold into GEMM's
               alpha — fewer kernel launches, no materialized
               intermediates, FLOP-total/peak-bytes-preserving reports.
``plan``       The :class:`Plan` object and its executor, plus
               :class:`PlanArena` — preallocated per-slot ndarray storage
               driven through the kernels' destination-aware (``out=``)
               variants, making repeated execution allocation-free after
               warmup — with feeds bound by one rule (alias when
               contiguous in the slot's order, else copy) through
               :class:`PinnedBinding` slot tables.  Execution is output-
               and report-parity with the Interpreter in every fusion ×
               arena combination (verified by
               ``tests/test_runtime_plans.py``).
``cache``      :class:`PlanCache` — signature-keyed LRU of compiled
               plans (the fold/fusion knobs key separately) with
               hit/miss/eviction stats and single-flight concurrent
               compilation.  Caches are instance-scoped and owned by
               :class:`repro.api.Session`; the process-wide default
               instance survives as the default session's cache.
``shard``      :class:`ShardPool` — N worker processes, each compiling
               the plan once (plans pickle *by reconstruction* via
               ``serialize``) and serving feed waves through
               shared-memory ring buffers with pinned bindings: the
               parent writes feeds straight into the shard's input
               slots, workers execute copy-free, outputs land in shared
               memory.  The GIL-free dispatch path.
``serialize``  Structural graph payloads — what crosses the process
               boundary (and what ``Plan.__reduce__`` pickles).
``store``      :class:`PlanStore` — the persistent, content-addressed
               on-disk plan store: versioned artifacts (optimized-graph
               payload + compile knobs, large consts as mmap-loaded
               ``.npy`` sidecars)
               keyed by signature digest, with trace-signature aliases
               so a cold ``Session`` skips the optimization pipeline
               and shard workers warm-start instead of recompiling.
               Bounded by :meth:`PlanStore.gc` (LRU-by-atime eviction,
               orphan and dangling-alias sweeps — ``laab store-gc``).
``autotune``   Online plan autotuning — hot signatures race rewrite
               derivations and compile-knob variants on real feeds,
               bit-identity-gated, and promote the winner into the
               cache and the store (``Options(autotune=...)``).
"""

from .autotune import AutotuneConfig, AutotuneStats, Autotuner
from .cache import CacheStats, PlanCache
from .compiler import compile_plan
from .fusion import FusionStats, fuse_instructions
from .plan import (
    BatchResult,
    Instruction,
    PinnedBinding,
    Plan,
    PlanArena,
    SlotDescriptor,
)
from .serialize import graph_from_payload, graph_to_payload
from .shard import ShardPool, ShardWorkerError, default_shards
from .signature import graph_signature
from .store import GCStats, PlanStore, StoreStats, runtime_fingerprint

__all__ = [
    "AutotuneConfig",
    "AutotuneStats",
    "Autotuner",
    "BatchResult",
    "CacheStats",
    "FusionStats",
    "GCStats",
    "Instruction",
    "PinnedBinding",
    "Plan",
    "PlanArena",
    "PlanCache",
    "PlanStore",
    "ShardPool",
    "ShardWorkerError",
    "SlotDescriptor",
    "StoreStats",
    "compile_plan",
    "default_shards",
    "fuse_instructions",
    "graph_from_payload",
    "graph_signature",
    "graph_to_payload",
    "runtime_fingerprint",
]
