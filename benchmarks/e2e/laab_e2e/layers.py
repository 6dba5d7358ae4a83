"""Outside-in per-layer probes shared by every workload.

For each of a workload's graphs the probes call the public function of one
layer at a time — ``repro.ir.trace``, ``default_pipeline().run``,
``compile_plan``, ``Plan.execute``, ``PlanCache.get``, ``PlanStore.put_plan``
… — on that graph, inside the same windows as the workload's own timers.
Entry points are resolved lazily: one that is gone yields ``None`` plus a
reason for the metrics that needed it, never a crash.

A workload's value for a layer metric is the weighted sum over its graphs
(weight 1 per graph for a suite that runs every graph per operation, 1/N for
a workload whose operation is one graph of N).
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import os
import shutil
import time
import tracemalloc
from collections.abc import Callable

import numpy as np

from .base import Checks
from .compat import Missing, make_tensor, resolve
from .inputs import Case
from .stats import Sampler, timed

#: Feed sets of the bulk probes (and of ``dispatch_small``'s batch).
BATCH = 64
#: Timers that time themselves (set-up that must stay outside the timing).
_SELF_TIMED = {"runtime.store.put_us"}
#: Seconds one timer may take per round; sets its repetitions.
_ROUND_BUDGET = 1.0e-3

TIMER_NAMES = (
    "ir.trace_us", "ir.interpreter_us", "passes.default_us", "passes.aware_us",
    "runtime.compiler.lower_us", "runtime.fusion.lower_fused_us",
    "runtime.plan.exec_percall_us", "runtime.plan.exec_arena_us",
    "runtime.plan.exec_pinned_us", "runtime.cache.hit_us",
    "runtime.store.put_us", "runtime.store.load_us",
)
COUNT_NAMES = (
    "ir.nodes", "passes.nodes_after_default", "passes.nodes_after_aware",
    "passes.flops_default", "passes.flops_aware",
    "runtime.compiler.instructions", "runtime.fusion.sites",
    "runtime.fusion.beta_folds", "runtime.plan.bytes_copied_per_call",
    "runtime.plan.alloc_peak_bytes", "runtime.plan.flops",
    "runtime.store.artifact_bytes", "runtime.store.corrupt_evicted",
)

_dir_ids = itertools.count()


def guarded(names: tuple[str, ...], build: Callable[[], None], missing: dict) -> None:
    """Run one probe's set-up; on failure record why ``names`` are missing."""
    try:
        build()
    except Missing as exc:
        reason = str(exc)
    except Exception as exc:  # noqa: BLE001 - a probe must never take the run down
        reason = f"{type(exc).__name__}: {exc}"
    else:
        return
    for name in names:
        missing[name] = reason


def _ordered_feeds(plan, feeds):
    """Feeds laid out per input slot, as a pinned caller allocates them."""
    return [
        np.asfortranarray(f) if plan.slot_orders[spec.slot] == "F"
        else np.ascontiguousarray(f)
        for spec, f in zip(plan.inputs, feeds)
    ]


@dataclasses.dataclass
class CaseProbes:
    """The probes of one graph: timers to sample, counts read once."""

    timers: dict = dataclasses.field(default_factory=dict)
    counts: dict = dataclasses.field(default_factory=dict)
    #: The fused plan and the populated store, for the probes built on them.
    fused: object = None
    store: object = None


def probe_case(case: Case, work_dir: str, missing: dict) -> CaseProbes:
    """Metrics whose entry point is gone are left out of the result and
    their reason recorded in ``missing``."""
    probes = CaseProbes()
    timers, counts = probes.timers, probes.counts
    tensors = [make_tensor(a, p) for a, p in zip(case.arrays, case.props)]
    feeds = list(case.arrays)
    state: dict = {}

    def ir():
        trace = resolve("repro.ir:trace")
        state["graph"] = graph = trace(case.fn, tensors)
        timers["ir.trace_us"] = lambda: trace(case.fn, tensors)
        counts["ir.nodes"] = len(graph)

    def passes():
        graph = state["graph"]
        for which in ("default", "aware"):
            make = resolve(f"repro.passes:{which}_pipeline")
            state[which] = make().run(graph)
            timers[f"passes.{which}_us"] = lambda make=make: make().run(graph)
            counts[f"passes.nodes_after_{which}"] = len(state[which])
        state["own"] = state[case.pipeline]

    def interpreter():
        interp = resolve("repro.ir:Interpreter")(record=True)
        own = state["own"]
        timers["ir.interpreter_us"] = lambda: interp.run(own, feeds)

    def compiler():
        compile_plan = resolve("repro.runtime:compile_plan")
        own = state["own"]
        plan = compile_plan(own)
        state["compile_plan"] = compile_plan
        timers["runtime.compiler.lower_us"] = lambda: compile_plan(own)
        counts["runtime.compiler.instructions"] = len(plan.instructions)
        for which in ("default", "aware"):
            counts[f"passes.flops_{which}"] = compile_plan(state[which]).flops

    def cache():
        plan_cache = resolve("repro.runtime:PlanCache")()
        own = state["own"]
        plan_cache.get(own, fusion=True)
        timers["runtime.cache.hit_us"] = lambda: plan_cache.get(own, fusion=True)

    def fusion():
        compile_plan, own = state["compile_plan"], state["own"]
        probes.fused = fused = compile_plan(own, fusion=True)
        timers["runtime.fusion.lower_fused_us"] = (
            lambda: compile_plan(own, fusion=True)
        )
        counts["runtime.fusion.sites"] = fused.fusion_stats.sites
        counts["runtime.fusion.beta_folds"] = fused.fusion_stats.gemm_beta_folds
        counts["runtime.plan.flops"] = fused.flops

    def plan_exec():
        fused = probes.fused
        arena = fused.new_arena()
        fused.execute(feeds, record=False, arena=arena)
        timers["runtime.plan.exec_percall_us"] = (
            lambda: fused.execute(feeds, record=False)
        )
        timers["runtime.plan.exec_arena_us"] = (
            lambda: fused.execute(feeds, record=False, arena=arena)
        )
        before = arena.bytes_copied
        fused.execute(feeds, record=False, arena=arena)
        counts["runtime.plan.bytes_copied_per_call"] = arena.bytes_copied - before
        gc.collect()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            for _ in range(5):
                fused.execute(feeds, record=False, arena=arena)
            counts["runtime.plan.alloc_peak_bytes"] = (
                tracemalloc.get_traced_memory()[1]
            )
        finally:
            tracemalloc.stop()

    def pinned():
        fused = probes.fused
        binding = fused.bind_pinned(_ordered_feeds(fused, feeds), fused.new_arena())
        binding.execute()
        timers["runtime.plan.exec_pinned_us"] = binding.execute

    def store():
        plan_store = resolve("repro.runtime:PlanStore")
        fused, graph = probes.fused, state["graph"]
        knobs = dict(backend="tfsim", pipeline=case.pipeline,
                     fold_constants=False, fusion=True)

        def publish(root):
            st = plan_store(root)  # creates the directories, outside the timing
            tkey = st.trace_key(graph, **knobs)
            t0 = time.perf_counter()
            st.put_alias(tkey, st.put_plan(fused))
            return st, tkey, time.perf_counter() - t0

        def put_once():
            # put_plan is idempotent, so every sample needs an empty store.
            root = os.path.join(work_dir, f"put{next(_dir_ids)}")
            try:
                return publish(root)[2]
            finally:
                shutil.rmtree(root, ignore_errors=True)

        root = os.path.join(work_dir, f"load{next(_dir_ids)}")
        st, tkey, _ = publish(root)
        if st.load_graph(tkey) is None:
            raise Missing("PlanStore.load_graph missed a fresh artifact")
        probes.store = st
        timers["runtime.store.put_us"] = put_once
        timers["runtime.store.load_us"] = lambda: st.load_graph(tkey)
        objects = os.path.join(root, "objects")
        counts["runtime.store.artifact_bytes"] = sum(
            os.path.getsize(os.path.join(objects, f)) for f in os.listdir(objects)
        )

    guarded(("ir.trace_us", "ir.nodes"), ir, missing)
    if "graph" in state:
        guarded(("passes.default_us", "passes.aware_us",
                 "passes.nodes_after_default", "passes.nodes_after_aware"),
                passes, missing)
    if "own" in state:
        guarded(("ir.interpreter_us",), interpreter, missing)
        guarded(("runtime.compiler.lower_us", "runtime.compiler.instructions",
                 "passes.flops_default", "passes.flops_aware"), compiler, missing)
        guarded(("runtime.cache.hit_us",), cache, missing)
    if "compile_plan" in state:
        guarded(("runtime.fusion.lower_fused_us", "runtime.fusion.sites",
                 "runtime.fusion.beta_folds", "runtime.plan.flops"), fusion, missing)
    if probes.fused is not None:
        guarded(("runtime.plan.exec_percall_us", "runtime.plan.exec_arena_us",
                 "runtime.plan.bytes_copied_per_call",
                 "runtime.plan.alloc_peak_bytes"), plan_exec, missing)
        guarded(("runtime.plan.exec_pinned_us",), pinned, missing)
        guarded(("runtime.store.put_us", "runtime.store.load_us",
                 "runtime.store.artifact_bytes",
                 "runtime.store.corrupt_evicted"), store, missing)
    return probes


class LayerSet:
    """The probes of a workload's graphs, sampled round-robin."""

    def __init__(self, cases: list[Case], weights: list[float], work_dir: str,
                 missing: dict) -> None:
        self.weights = weights
        self.missing = missing
        self.probes = [probe_case(case, work_dir, missing) for case in cases]
        self.reps: list[dict] = []
        for probes in self.probes:
            reps = {}
            for name, fn in probes.timers.items():
                once = fn() if name in _SELF_TIMED else self._once(fn)
                reps[name] = max(1, min(16, int(_ROUND_BUDGET / max(once, 1e-7))))
            self.reps.append(reps)

    @staticmethod
    def _once(fn) -> float:
        fn()
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    def round(self, buf: dict) -> None:
        for i, probes in enumerate(self.probes):
            reps = self.reps[i]
            for name, fn in probes.timers.items():
                out = buf[f"{name}#{i}"]
                if name in _SELF_TIMED:
                    out.extend(fn() for _ in range(reps[name]))
                else:
                    timed(fn, reps[name], out)

    def _timer_seconds(self, sampler: Sampler, name: str) -> "float | None":
        """Weighted sum over the graphs of the quiet-window estimate."""
        total = 0.0
        for i, w in enumerate(self.weights):
            key = f"{name}#{i}"
            if key not in sampler.samples:
                return None
            total += w * sampler.seconds(key, "quiet")
        return total

    def _count(self, name: str) -> "float | None":
        if name == "runtime.store.corrupt_evicted":
            stores = [p.store for p in self.probes]
            if any(s is None for s in stores):
                return None
            return float(sum(s.stats.corrupt_evicted for s in stores))
        if any(name not in p.counts for p in self.probes):
            return None
        return float(sum(w * p.counts[name] for w, p in zip(self.weights, self.probes)))

    def metrics(self, sampler: Sampler) -> dict:
        """Every generic layer metric: microseconds for timers, plain numbers
        for counts, ``None`` where the layer's entry point is gone."""
        out: dict = {}
        for name in TIMER_NAMES:
            seconds = self._timer_seconds(sampler, name)
            out[name] = None if seconds is None else seconds * 1e6
        for name in COUNT_NAMES:
            out[name] = self._count(name)
        return out


class BulkProbes:
    """``runtime.batch`` and ``runtime.shard`` on one fused plan: the
    in-process batch executors and a one-worker shard pool, 8 and 64 feed
    sets."""

    def __init__(self, fused, feeds: list, missing: dict) -> None:
        self.timers: dict = {}
        self.pool = None
        self.spawn_ms = None
        feeds64 = [feeds] * BATCH

        def batch():
            execute_batch = resolve("repro.runtime:execute_batch")
            for key, workers in (("seq", None), ("threads2", 2)):
                self.timers[f"batch.{key}"] = (
                    lambda workers=workers: execute_batch(
                        fused, feeds64, workers=workers, arena="preallocated")
                )

        def shard():
            pool_cls = resolve("repro.runtime:ShardPool")
            spawns = []
            for _ in range(3):
                if self.pool is not None:
                    self.pool.close()
                t0 = time.perf_counter()
                self.pool = pool_cls(fused, shards=1, dtype=feeds[0].dtype)
                spawns.append(time.perf_counter() - t0)
            self.spawn_ms = sorted(spawns)[1] * 1e3
            pool = self.pool
            pool.run(feeds64)
            self.timers["shard.wave8"] = lambda: pool.run(feeds64[:8])
            self.timers["shard.run64"] = lambda: pool.run(feeds64)

        if fused is None:
            missing["runtime.batch.seq_feeds_per_s"] = "no fused plan to run"
            return
        guarded(("runtime.batch.seq_feeds_per_s",
                 "runtime.batch.threads2_feeds_per_s"), batch, missing)
        guarded(("runtime.shard.spawn_ms", "runtime.shard.wave8_us",
                 "runtime.shard.run64_feeds_per_s"), shard, missing)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()

    def verify(self, checks: Checks, reference) -> None:
        for name, fn in self.timers.items():
            result = fn()
            checks.check(f"{name}[0]", result.outputs[0], reference)
            checks.check(f"{name}[-1]", result.outputs[-1], reference)

    def round(self, buf: dict) -> None:
        for name, fn in self.timers.items():
            timed(fn, 1, buf[name])

    def metrics(self, sampler: Sampler) -> dict:
        # The thread pool and the worker process cross threads and a pipe:
        # their noise is two-sided, so they report the median of windows.
        out: dict = {"runtime.shard.spawn_ms": self.spawn_ms}
        for key, name, estimator in (
            ("batch.seq", "runtime.batch.seq_feeds_per_s", "quiet"),
            ("batch.threads2", "runtime.batch.threads2_feeds_per_s", "median"),
            ("shard.run64", "runtime.shard.run64_feeds_per_s", "median"),
        ):
            if key in self.timers:
                out[name] = BATCH / sampler.seconds(key, estimator)
        if "shard.wave8" in self.timers:
            out["runtime.shard.wave8_us"] = sampler.seconds("shard.wave8", "median") * 1e6
        if self.pool is not None:
            out["runtime.shard.bytes_copied"] = float(self.pool.bytes_copied_last_run)
            out["runtime.shard.respawns"] = float(self.pool.respawns)
            out["runtime.shard.hangs"] = float(self.pool.hangs_detected)
        return out
