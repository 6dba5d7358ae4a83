"""The :class:`Session` — one owner for plan cache, options and stats.

PR 1 left three uncoordinated graph-mode entry points (``tfsim.function``,
``pytsim.jit.script`` and the raw ``runtime`` calls) all funnelling into
one mutable process-wide plan cache.  A ``Session`` makes that ownership
explicit:

* it owns its *own* :class:`~repro.runtime.PlanCache` (capacity from
  :class:`~repro.api.options.Options`), so tenants/tests/experiments
  isolate by construction;
* it is the single compile/run surface — ``compile``/``run``/``run_batch``
  — over any registered backend;
* it records per-plan compile and execution timings next to the cache's
  hit/miss/eviction counters, exposed as one :meth:`stats` snapshot.

Sessions nest as context managers: inside ``with Session() as s:`` the
legacy decorators compile into ``s`` (they resolve the *ambient* session
per call).  With no session entered, a lazily created process-wide
default session — whose cache is the PR-1 global cache instance — keeps
old code behaving exactly as before.
"""

from __future__ import annotations

import contextvars
import dataclasses
import threading
import time
import weakref
from collections import OrderedDict
from collections.abc import Callable, Sequence

import numpy as np

from ..errors import ConfigError
from ..ir.tracing import trace
from ..ir.validate import validate_graph
from ..runtime import (
    BatchResult,
    PinnedBinding,
    PlanCache,
    PlanStore,
    ShardPool,
    ShardWorkerError,
)
from ..runtime import cache as _cache_module
from ..runtime.autotune import Autotuner, AutotuneConfig, AutotuneStats
from ..runtime.plan import Plan
from ..runtime.signature import graph_signature
from ..tensor.tensor import Tensor
from .compiled import Compiled, Concrete
from .options import Options
from .registry import FrameworkProfile, backend as resolve_backend

#: Live ShardPools cached per session: each pool owns worker processes
#: and shared-memory segments, so the cache is a small LRU, not a map
#: that grows with plan churn.
_MAX_SHARD_POOLS = 4


@dataclasses.dataclass
class PlanStats:
    """Compile/exec accounting of one plan within one session.

    A plan deduplicates structurally identical traces, so *several*
    functions/backends/pipelines can land on it — the tuples accumulate
    every contributor (rendered joined with ``+``), not just the first.
    """

    labels: tuple[str, ...]
    backends: tuple[str, ...]
    pipelines: tuple[str, ...]
    #: Number of traces that landed on this plan (≥ 2 means the session
    #: deduplicated structurally identical expressions).
    traces: int = 0
    #: Total trace+optimize+plan-acquire seconds across those traces.
    trace_seconds: float = 0.0
    #: Graph→Plan compile seconds (0.0 while the plan came from cache).
    plan_compile_seconds: float = 0.0
    executions: int = 0
    exec_seconds: float = 0.0
    #: Fused sites in the plan (elementwise chains + GEMM alpha folds);
    #: 0 when the session compiles with ``fusion=False``.
    fused_sites: int = 0

    @property
    def label(self) -> str:
        return "+".join(self.labels)

    @property
    def backend(self) -> str:
        return "+".join(self.backends)

    @property
    def pipeline(self) -> str:
        return "+".join(self.pipelines)


@dataclasses.dataclass(frozen=True)
class SessionStats:
    """Point-in-time snapshot returned by :meth:`Session.stats`."""

    hits: int
    misses: int
    evictions: int
    entries: int
    capacity: int
    plans: tuple[PlanStats, ...]
    #: The session's execution-mode knobs, echoed so ``laab cache-stats``
    #: renders them next to the counters they explain.
    fusion: bool = False
    arena: str = "per-call"
    shards: int | None = None
    #: Shard activity (satellite of the serving PR): live pools cached on
    #: the session, worker processes those pools own, and worker-waves
    #: dispatched over the session's lifetime (including pools since
    #: evicted or closed).
    shard_pools_open: int = 0
    shard_workers: int = 0
    shard_waves_served: int = 0
    #: Supervision health (robustness PR): hung workers reaped, workers
    #: respawned, waves replayed — across live and retired pools — plus
    #: the degraded-mode policy and how often it actually engaged.
    shard_hangs_detected: int = 0
    shard_respawns: int = 0
    shard_waves_replayed: int = 0
    shard_fallback: str = "error"
    shard_fallback_runs: int = 0
    #: Persistent plan store (PR 8): the directory when attached, plus
    #: this session's store counters.  ``store_hits`` are builds served
    #: by re-lowering a stored artifact — the in-memory ``misses``
    #: counter keeps meaning "cold compiles", so a fully warm start
    #: shows ``misses == 0``.
    plan_store: str | None = None
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    store_corrupt_evicted: int = 0
    store_bytes_mapped: int = 0
    store_seconds_saved: float = 0.0
    #: Online autotuning (PR 10): the session autotuner's counters —
    #: signatures tuned, candidates raced/rejected, promotions (live and
    #: restored from the store), tuning wall time and the last measured
    #: speedup.  ``None`` when the session doesn't tune.
    autotune: "AutotuneStats | None" = None

    @property
    def fused_sites(self) -> int:
        """Total fused sites across this session's plans."""
        return sum(p.fused_sites for p in self.plans)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def render(self) -> str:
        """Human-readable table (used by ``laab … --cache-stats``).

        ``trace(s)`` is trace+optimize+plan-acquire wall time (the
        paper's excluded decorator overhead); ``compile(s)`` is the
        Graph→Plan compile time actually paid by this session (0 for
        pure cache hits).
        """
        fusion = (
            f"on ({self.fused_sites} fused sites)" if self.fusion else "off"
        )
        exec_line = f"execution: fusion {fusion} | arena {self.arena}"
        if self.shards is not None:
            exec_line += f" | {self.shards} shard processes"
        lines = [
            f"plan cache: {self.entries}/{self.capacity} plans | "
            f"{self.hits} hits / {self.misses} misses / "
            f"{self.evictions} evictions (hit rate {self.hit_rate:.1%})",
            exec_line,
        ]
        if (self.shards is not None or self.shard_pools_open
                or self.shard_waves_served):
            shard_line = (
                f"sharding: {self.shard_pools_open} pool(s) open | "
                f"{self.shard_workers} worker process(es) | "
                f"{self.shard_waves_served} wave(s) served"
            )
            if (self.shard_hangs_detected or self.shard_respawns
                    or self.shard_waves_replayed):
                shard_line += (
                    f" | {self.shard_hangs_detected} hang(s) / "
                    f"{self.shard_respawns} respawn(s) / "
                    f"{self.shard_waves_replayed} wave(s) replayed"
                )
            lines.append(shard_line)
            if self.shard_fallback_runs:
                lines.append(
                    f"degraded: {self.shard_fallback_runs} batch(es) "
                    "completed inline after a shard-pool failure"
                )
        if self.plan_store is not None:
            lines.append(
                f"plan store: {self.store_hits} hits / "
                f"{self.store_misses} misses / "
                f"{self.store_writes} writes / "
                f"{self.store_corrupt_evicted} corrupt evicted | "
                f"{self.store_bytes_mapped / 1024:.1f} KiB mapped | "
                f"~{self.store_seconds_saved:.4f}s saved "
                f"({self.plan_store})"
            )
        if self.autotune is not None:
            lines.append(self.autotune.render())
        if self.plans:
            lw = max(12, max(len(p.label) for p in self.plans))
            bw = max(7, max(len(p.backend) for p in self.plans))
            lines.append(
                f"  {'plan'.ljust(lw)}  {'backend'.ljust(bw)}  pipeline  "
                f"traces  trace(s)  compile(s)  execs  exec(s)"
            )
            for p in self.plans:
                lines.append(
                    f"  {p.label.ljust(lw)}  {p.backend.ljust(bw)}  "
                    f"{p.pipeline:<8}  {p.traces:>6}  "
                    f"{p.trace_seconds:>8.4f}  "
                    f"{p.plan_compile_seconds:>10.4f}  {p.executions:>5}  "
                    f"{p.exec_seconds:>7.4f}"
                )
        return "\n".join(lines)


class Session:
    """Scoped compile/run surface over the compiled-execution runtime."""

    def __init__(
        self,
        options: Options | None = None,
        *,
        plan_cache: PlanCache | None = None,
        **overrides: object,
    ) -> None:
        base = options if options is not None else Options()
        self.options = base.replace(**overrides) if overrides else base
        self.options.validate()
        if plan_cache is not None:
            # Adopting an existing cache (the process-wide default session
            # adopts the PR-1 global instance) — capacity is the cache's,
            # so an explicit conflicting capacity is an error, not a
            # silently dropped knob.
            if "cache_capacity" in overrides or (
                options is not None
                and options.cache_capacity != plan_cache.maxsize
            ):
                raise ConfigError(
                    f"cache_capacity={self.options.cache_capacity} conflicts "
                    f"with the adopted plan_cache (maxsize="
                    f"{plan_cache.maxsize}); pass one or the other"
                )
            self.plan_cache = plan_cache
            self.options = self.options.replace(cache_capacity=plan_cache.maxsize)
        else:
            self.plan_cache = PlanCache(maxsize=self.options.cache_capacity)
        #: Persistent cross-run plan store (``Options(plan_store=DIR)``);
        #: ``None`` when the session is purely in-memory.  Shared-dir
        #: semantics are the store's own (atomic writes); the *instance*
        #: — and its stats — is per-session, like the plan cache.
        self.plan_store: PlanStore | None = (
            PlanStore(self.options.plan_store)
            if self.options.plan_store is not None
            else None
        )
        #: Online autotuner (``Options(autotune=...)``); ``None`` when
        #: off.  Per-session like the plan cache — serve tenants tuning
        #: through their own sessions get independent budgets.
        autotune_config = AutotuneConfig.normalize(self.options.autotune)
        self._autotuner: Autotuner | None = (
            Autotuner(autotune_config) if autotune_config is not None else None
        )
        # Weak keys: accounting must not pin plans the LRU has evicted
        # and nothing else references — a stats row lives as long as its
        # plan does (in the cache or in a live Concrete).
        self._plan_stats: "weakref.WeakKeyDictionary[Plan, PlanStats]" = (
            weakref.WeakKeyDictionary()
        )
        #: (fn, backend name, pipeline) → Compiled, so ``session.run`` on
        #: a plain callable is trace-once/execute-many, not retrace-per-
        #: call.  LRU-bounded like the plan cache: callers passing a fresh
        #: lambda per call must not grow the session without bound.
        self._run_memo: "OrderedDict[tuple, Compiled]" = OrderedDict()
        #: (plan id, shards, dtype) → ShardPool, reused across
        #: ``run_sharded`` calls so worker startup is paid once per plan.
        #: LRU-bounded like ``_run_memo`` — pools own worker processes
        #: and /dev/shm segments, so plan churn (cache eviction, fresh
        #: lambdas) must evict-and-close old pools, not accrete them.
        #: Closed when the session exits its context (or on GC via each
        #: pool's own finalizer).
        self._shard_pools: "OrderedDict[tuple, ShardPool]" = OrderedDict()
        #: name → pinned Tensor handed out by :meth:`pin` (kept alive for
        #: the session's lifetime — that is the pinning contract).
        self._pinned: dict[str, Tensor] = {}
        #: Worker-waves served by pools since evicted or closed, so the
        #: stats line survives pool churn.
        self._shard_waves_retired = 0
        #: [hangs_detected, respawns, waves_replayed] of retired pools —
        #: the health counters survive pool churn the same way.
        self._shard_health_retired = [0, 0, 0]
        #: Batches completed in-process after a pool broke mid-run
        #: (``Options(shard_fallback="inline")``).
        self._shard_fallback_runs = 0
        # Chaos-only knob: activate the session's fault plan process-wide
        # before any worker (or store load) can hit an injection site.
        if self.options.faults is not None:
            from .. import faults as _faults

            _faults.install(self.options.faults)
        #: Set by :meth:`close` (context exit closes the session too):
        #: shard pools are gone and sharded execution must fail loudly
        #: at entry instead of tripping on pool internals.
        self._closed = False
        self._lock = threading.Lock()

    # -- the one compile surface -----------------------------------------------

    def compile(
        self,
        fn: Callable,
        *,
        backend: str | FrameworkProfile | None = None,
        pipeline: str | None = None,
    ) -> Compiled:
        """Wrap ``fn`` for graph-mode execution in this session.

        ``backend`` is a registered name (``"tfsim"``/``"pytsim"``) or a
        :class:`FrameworkProfile`; defaults to ``options.backend``.
        ``pipeline`` overrides ``options.pipeline`` for this function.
        """
        if isinstance(fn, Compiled):
            raise TypeError(
                f"{fn!r} is already compiled; pass the plain Python function"
            )
        profile = backend if isinstance(backend, FrameworkProfile) else \
            resolve_backend(backend or self.options.backend)
        if pipeline is not None:
            # Fail fast on typos instead of at first call.
            Options(pipeline=pipeline).validate()
        return Compiled(fn, profile, session=self, pipeline=pipeline)

    def run(
        self,
        fn: Callable | Compiled,
        *args: Tensor,
        backend: str | FrameworkProfile | None = None,
        pipeline: str | None = None,
    ):
        """Compile-if-needed and execute ``fn(*args)`` through this session.

        ``backend``/``pipeline`` only apply when ``fn`` still needs
        compiling; passing them with an already-``Compiled`` function is
        rejected rather than silently ignored.
        """
        if isinstance(fn, Compiled):
            if backend is not None or pipeline is not None:
                raise ValueError(
                    f"{fn!r} is already compiled; backend=/pipeline= have "
                    "no effect here — pass them to session.compile instead"
                )
            return fn._call_in(fn._session_for(self), args)
        profile = backend if isinstance(backend, FrameworkProfile) else \
            resolve_backend(backend or self.options.backend)
        # Key by the profile object, not its name: run() accepts ad-hoc
        # unregistered profiles, and two distinct profiles sharing a name
        # must not reuse each other's Compiled.
        memo_key = (fn, profile, pipeline)
        with self._lock:
            compiled = self._run_memo.get(memo_key)
            if compiled is not None:
                self._run_memo.move_to_end(memo_key)
        if compiled is None:
            compiled = self.compile(fn, backend=profile, pipeline=pipeline)
            with self._lock:
                compiled = self._run_memo.setdefault(memo_key, compiled)
                while len(self._run_memo) > self.options.cache_capacity:
                    self._run_memo.popitem(last=False)
        return compiled._call_in(self, args)

    def run_batch(
        self, fn: Compiled, feed_sets: Sequence[Sequence[Tensor]]
    ) -> BatchResult:
        """One compiled function over many feed sets.

        The first feed set fixes the trace signature; every set must bind
        to the same plan (shape-checked by the plan itself).  A plain
        loop over the same warm executor single calls use — its lock is
        taken per feed, so a concurrent single call is not parked behind
        the whole batch — with every entry of ``reports`` the concrete's
        one cached report.  With ``Options(shards=N)`` the batch routes
        to :meth:`run_sharded` instead, the multi-process path.
        """
        if not isinstance(fn, Compiled):
            raise TypeError(
                f"run_batch needs a Compiled (from session.compile), got "
                f"{type(fn).__name__}"
            )
        if self.options.shards is not None:
            return self.run_sharded(fn, feed_sets)
        feed_sets = [list(feeds) for feeds in feed_sets]
        if not feed_sets:
            return BatchResult(outputs=[], reports=[])
        session = fn._session_for(self)
        concrete = fn._concrete_in(session, feed_sets[0])
        start = time.perf_counter()
        result = _run_inline(concrete, feed_sets)
        self._record_exec(
            concrete.plan, time.perf_counter() - start, count=len(feed_sets)
        )
        self._maybe_autotune(
            concrete, [t.data for t in feed_sets[0]], count=len(feed_sets)
        )
        return result

    # -- sharded + pinned serving ------------------------------------------------

    def pin(
        self, name: str, shape: tuple[int, int], dtype: object = None
    ) -> Tensor:
        """A Tensor whose buffer is session-pinned input storage.

        The returned tensor owns a Fortran-ordered zeroed buffer that
        lives for the session's lifetime; rewrite its ``.data`` in place
        between calls.  Under ``Options(arena="preallocated")`` a pinned
        tensor is aliased straight into its plan input slot on every
        call — no staging copy — because it already has the layout the
        slot declares.  Re-pinning an existing ``name`` returns the
        existing tensor when shape/dtype agree and raises otherwise —
        two owners of one pin slot is always a bug.

        Pins are Fortran-ordered: they alias every input slot a BLAS
        routine reads as a matrix and every slot no kernel's layout
        depends on.  An input only elementwise kernels read has a
        *C*-ordered slot (the kernels compute in the order tensors
        carry); an F pin is copied there per call, a default
        C-contiguous ``Tensor`` is what aliases.
        """
        if dtype is None:
            from ..config import config

            dtype = config.default_dtype
        dtype = np.dtype(dtype)
        with self._lock:
            existing = self._pinned.get(name)
            if existing is not None:
                if existing.shape != tuple(shape) or existing.dtype != dtype:
                    raise ConfigError(
                        f"pin {name!r} already exists with shape "
                        f"{existing.shape} {existing.dtype}; asked for "
                        f"{tuple(shape)} {dtype}"
                    )
                return existing
            buf = np.zeros(tuple(shape), dtype=dtype, order="F")
            tensor = Tensor(buf, dtype=dtype)
            assert tensor.data is buf  # pinning relies on zero-copy wrap
            self._pinned[name] = tensor
            return tensor

    def run_sharded(
        self,
        fn: Compiled,
        feed_sets: Sequence[Sequence[Tensor]],
        *,
        shards: int | None = None,
    ) -> BatchResult:
        """``run_batch`` across worker *processes* — the GIL-free path.

        The plan behind ``fn`` is shipped to ``shards`` workers (default
        ``options.shards``, else :func:`repro.runtime.default_shards`)
        through a session-cached :class:`~repro.runtime.ShardPool`;
        feeds stream through shared-memory rings, so workers execute
        copy-free.  Reports are empty (workers never account): use
        ``run_batch`` on an unsharded session for reported batches.
        """
        if not isinstance(fn, Compiled):
            raise TypeError(
                f"run_sharded needs a Compiled (from session.compile), got "
                f"{type(fn).__name__}"
            )
        if self._closed:
            raise RuntimeError(
                "session closed: its shard pools were torn down on close/"
                "context exit — run sharded batches inside the session's "
                "'with' block, or build a new Session"
            )
        feed_sets = [list(feeds) for feeds in feed_sets]
        if not feed_sets:
            return BatchResult(outputs=[], reports=[])
        session = fn._session_for(self)
        concrete = fn._concrete_in(session, feed_sets[0])
        if shards is None:
            shards = self.options.shards
        dtype = feed_sets[0][0].dtype
        pool = self._shard_pool(concrete.plan, shards, dtype)
        start = time.perf_counter()
        try:
            result = pool.run(
                [[t.data for t in feeds] for feeds in feed_sets]
            )
        except ShardWorkerError:
            if self.options.shard_fallback != "inline":
                raise
            # Degraded mode: the pool broke mid-run and its retry budget
            # is spent — complete the batch on the in-process loop so
            # the caller still gets bit-correct results (a later
            # run_sharded builds a fresh pool).
            with self._lock:
                self._shard_fallback_runs += 1
            result = _run_inline(concrete, feed_sets)
        self._record_exec(
            concrete.plan, time.perf_counter() - start, count=len(feed_sets)
        )
        self._maybe_autotune(
            concrete, [t.data for t in feed_sets[0]], count=len(feed_sets)
        )
        return result

    def _shard_pool(
        self, plan: Plan, shards: int | None, dtype: np.dtype
    ) -> ShardPool:
        key = (id(plan), shards, str(dtype))
        evicted: list[ShardPool] = []
        with self._lock:
            pool = self._shard_pools.get(key)
            if pool is not None:
                if not pool._closed and not pool._broken:
                    self._shard_pools.move_to_end(key)
                    return pool
                # A broken pool still owns its surviving workers and
                # shared memory: reclaim them now, not at some GC.
                evicted.append(self._shard_pools.pop(key))
            pool = ShardPool(
                plan, shards=shards, dtype=dtype, store=self.plan_store,
                respawn=self.options.shard_respawn,
                wave_deadline=self.options.shard_wave_deadline,
            )
            self._shard_pools[key] = pool
            while len(self._shard_pools) > _MAX_SHARD_POOLS:
                evicted.append(self._shard_pools.popitem(last=False)[1])
            self._note_retired(evicted)
        for old in evicted:  # close outside the lock — joins processes
            old.close()
        return pool

    def close_shard_pools(self) -> None:
        """Stop all cached shard workers and unlink their shared memory.

        Idempotent — runs automatically when the session exits its
        ``with`` block, and again from :meth:`close`; pools built
        outside any block are reclaimed by their own GC finalizers.
        """
        with self._lock:
            pools = list(self._shard_pools.values())
            self._shard_pools.clear()
            self._note_retired(pools)
        for pool in pools:
            pool.close()

    def _note_retired(self, pools) -> None:
        """Fold evicted/closed pools' counters into the retired totals
        (caller holds ``self._lock``)."""
        for p in pools:
            self._shard_waves_retired += p.waves_served
            self._shard_health_retired[0] += p.hangs_detected
            self._shard_health_retired[1] += p.respawns
            self._shard_health_retired[2] += p.waves_replayed

    def close(self) -> None:
        """Close the session: tear down shard pools and mark it closed.

        Idempotent.  In-process execution (``run``/``run_batch`` without
        shards) keeps working — plans and arenas hold no OS resources —
        but :meth:`run_sharded` raises a clear ``RuntimeError`` instead
        of rebuilding worker processes nobody would tear down.
        """
        self._closed = True
        if self._autotuner is not None:
            self._autotuner.close()
        self.close_shard_pools()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- stats -------------------------------------------------------------------

    def stats(self) -> SessionStats:
        """Snapshot of cache counters and per-plan compile/exec timings."""
        cache_stats = self.plan_cache.stats
        with self._lock:
            plans = tuple(
                dataclasses.replace(p) for p in self._plan_stats.values()
            )
            live = [
                p for p in self._shard_pools.values()
                if not p._closed and not p._broken
            ]
            shard_pools_open = len(live)
            shard_workers = sum(p.shards for p in live)
            pools = list(self._shard_pools.values())
            shard_waves = self._shard_waves_retired + sum(
                p.waves_served for p in pools
            )
            retired = self._shard_health_retired
            shard_hangs = retired[0] + sum(p.hangs_detected for p in pools)
            shard_respawns = retired[1] + sum(p.respawns for p in pools)
            shard_replays = retired[2] + sum(p.waves_replayed for p in pools)
            fallback_runs = self._shard_fallback_runs
        return SessionStats(
            hits=cache_stats.hits,
            misses=cache_stats.misses,
            evictions=cache_stats.evictions,
            entries=len(self.plan_cache),
            capacity=self.plan_cache.maxsize,
            plans=plans,
            fusion=self.options.fusion,
            arena=self.options.arena,
            shards=self.options.shards,
            shard_pools_open=shard_pools_open,
            shard_workers=shard_workers,
            shard_waves_served=shard_waves,
            shard_hangs_detected=shard_hangs,
            shard_respawns=shard_respawns,
            shard_waves_replayed=shard_replays,
            shard_fallback=self.options.shard_fallback,
            shard_fallback_runs=fallback_runs,
            plan_store=(
                self.plan_store.root if self.plan_store is not None else None
            ),
            store_hits=(
                self.plan_store.stats.hits if self.plan_store else 0
            ),
            store_misses=(
                self.plan_store.stats.misses if self.plan_store else 0
            ),
            store_writes=(
                self.plan_store.stats.writes if self.plan_store else 0
            ),
            store_corrupt_evicted=(
                self.plan_store.stats.corrupt_evicted if self.plan_store else 0
            ),
            store_bytes_mapped=(
                self.plan_store.stats.bytes_mapped if self.plan_store else 0
            ),
            store_seconds_saved=(
                self.plan_store.stats.seconds_saved if self.plan_store else 0.0
            ),
            autotune=(
                self._autotuner.stats()
                if self._autotuner is not None
                else None
            ),
        )

    # -- internals ---------------------------------------------------------------

    def _build(
        self,
        fn: Callable,
        profile: FrameworkProfile,
        pipeline_choice: str,
        args: Sequence[Tensor],
        *,
        label: str,
    ) -> Concrete:
        """Trace → (validate) → optimize → plan-compile, with accounting.

        This is the single code path behind ``session.compile(...)`` calls
        and the legacy decorators alike.
        """
        validation = self.options.validation
        fold = self.options.fold_constants
        fusion = self.options.fusion
        store = self.plan_store
        start = time.perf_counter()
        graph = trace(fn, list(args))
        if validation in ("trace", "full"):
            validate_graph(graph)
        # Warm start: the store maps this trace's signature (plus
        # pipeline identity) straight to the stored *optimized* graph —
        # a hit skips every optimization pass, and the cache lookup
        # below re-lowers instead of cold-compiling (via_store keeps
        # the miss counter honest).  Misses fall through to the normal
        # build and write the artifact back.
        optimized = None
        trace_key = None
        alias_record = None
        if store is not None:
            trace_key = store.trace_key(
                graph, backend=profile.name, pipeline=pipeline_choice,
                fold_constants=fold, fusion=fusion,
            )
            optimized, alias_record = store.load_graph_with_record(trace_key)
        warm_start = optimized is not None
        # A promoted autotune winner re-aliased this trace: the stored
        # graph is the *winner's* (possibly a rewrite derivation), and
        # the record carries the knobs it raced with — a fusion-flip
        # winner must recompile with its own fusion setting, not the
        # session's.  Restored winners never re-tune.
        restored_promotion = (
            warm_start
            and isinstance(alias_record, dict)
            and "winner" in alias_record
        )
        build_fold, build_fusion = fold, fusion
        if restored_promotion:
            build_fold = bool(alias_record.get("fold_constants", fold))
            build_fusion = bool(alias_record.get("fusion", fusion))
        if warm_start:
            pipeline_log = (
                f"plan store warm start ({pipeline_choice} passes skipped)"
            )
            if restored_promotion:
                pipeline_log += " | autotuned winner restored"
        else:
            pipeline = profile.pipeline(pipeline_choice)
            optimized = pipeline.run(graph)
            pipeline_log = pipeline.describe()
        if validation == "full":
            validate_graph(optimized)
        plan, compiled_here = self.plan_cache.get_with_info(
            optimized,
            fold_constants=build_fold,
            fusion=build_fusion,
            via_store=warm_start,
        )
        elapsed = time.perf_counter() - start
        if store is not None and not warm_start:
            plan_key = store.put_plan(plan, cold_seconds=elapsed)
            if plan_key is not None:
                store.put_alias(trace_key, plan_key)
        with self._lock:
            rec = self._plan_stats.get(plan)
            if rec is None:
                rec = self._plan_stats[plan] = PlanStats(
                    labels=(label,),
                    backends=(profile.name,),
                    pipelines=(pipeline_choice,),
                )
            else:
                # Deduped trace from another function/backend: attribute
                # it, don't let the first compiler own the row.
                if label not in rec.labels:
                    rec.labels += (label,)
                if profile.name not in rec.backends:
                    rec.backends += (profile.name,)
                if pipeline_choice not in rec.pipelines:
                    rec.pipelines += (pipeline_choice,)
            rec.traces += 1
            rec.trace_seconds += elapsed
            if plan.fusion_stats is not None:
                rec.fused_sites = plan.fusion_stats.sites
            if compiled_here:
                rec.plan_compile_seconds += plan.compile_seconds
        concrete = Concrete(
            graph=graph,
            optimized=optimized,
            plan=plan,
            trace_seconds=elapsed,
            pipeline_log=pipeline_log,
            # One arena per concrete specialization: executions of this
            # function in this session reuse its preallocated buffers.
            binding=PinnedBinding(plan, plan.new_arena())
            if self.options.arena == "preallocated"
            else None,
            cache_key=(
                (graph_signature(optimized), build_fold, build_fusion)
                if self._autotuner is not None
                else None
            ),
            trace_key=trace_key,
        )
        if restored_promotion:
            # The tuned plan is already in hand — no hotness tracking,
            # no race, zero tuning seconds this process.
            concrete.autotune_done = True
            if self._autotuner is not None:
                self._autotuner.mark_restored(concrete.cache_key)
        return concrete

    def _record_exec(self, plan: Plan, seconds: float, *, count: int = 1) -> None:
        with self._lock:
            rec = self._plan_stats.get(plan)
            if rec is None:  # plan executed without a recorded build
                rec = self._plan_stats[plan] = PlanStats(
                    labels=("<unbuilt>",), backends=("?",), pipelines=("?",)
                )
            rec.executions += count
            rec.exec_seconds += seconds

    # -- autotuning ----------------------------------------------------------------

    def _maybe_autotune(
        self, concrete: Concrete, datas: Sequence[np.ndarray], *,
        count: int = 1,
    ) -> None:
        """Hotness bookkeeping + race trigger — called after every
        execution through ``concrete``.

        Sub-microsecond when the session doesn't tune or the concrete is
        already tuned; otherwise folds ``count`` executions into the
        plan-cache stats row and, on crossing the threshold, claims the
        key (exactly one racer per key, across threads) and races on
        *these* feeds — the real traffic that made the signature hot.
        """
        tuner = self._autotuner
        if tuner is None or concrete.autotune_done \
                or concrete.cache_key is None:
            return
        hotness = self.plan_cache.note_execution(
            concrete.cache_key, count=count
        )
        if hotness < tuner.config.hot_threshold:
            return
        if not tuner.claim(concrete.cache_key):
            concrete.autotune_done = True  # raced (or racing) elsewhere
            return
        concrete.autotune_done = True
        if tuner.config.mode == "worker":
            # The race outlives this call — snapshot the feeds so pinned
            # buffers rewritten in place can't skew the measurement.
            feeds = [np.array(d) for d in datas]
        else:
            feeds = list(datas)
        tuner.tune(self, concrete, feeds)

    def _apply_promotion(
        self, concrete: Concrete, winner, record: dict
    ) -> None:
        """Install a race winner: plan cache, live concrete, plan store.

        Called by the autotuner (possibly from its worker-driving
        thread).  The cache swap makes every *future* build of this
        signature resolve to the winner; the concrete swap (under its
        lock, paired with fresh buffers and a re-recorded report) moves
        the live serving path over atomically; the store
        re-alias persists the winner plus its derivation record so a
        restarted process warm-starts straight onto it.
        """
        winner_plan = winner.plan
        if winner_plan is None:
            return
        canonical_plan = concrete.plan
        if concrete.cache_key is not None:
            self.plan_cache.promote(concrete.cache_key, winner_plan)
        with concrete.lock:
            concrete.install(winner_plan)
        with self._lock:
            old = self._plan_stats.get(canonical_plan)
            if winner_plan not in self._plan_stats:
                self._plan_stats[winner_plan] = PlanStats(
                    labels=old.labels if old else ("<autotuned>",),
                    backends=old.backends if old else ("?",),
                    pipelines=tuple(
                        dict.fromkeys(
                            (old.pipelines if old else ())
                            + ("autotuned",)
                        )
                    ),
                    plan_compile_seconds=winner_plan.compile_seconds,
                )
        store = self.plan_store
        if store is not None and concrete.trace_key is not None:
            plan_key = store.put_plan(winner_plan)
            if plan_key is not None:
                store.put_alias(
                    concrete.trace_key, plan_key,
                    record=record, overwrite=True,
                )

    # -- context management -------------------------------------------------------

    def __enter__(self) -> "Session":
        if self._closed:
            raise RuntimeError(
                "session closed: a Session is single-lifetime once closed "
                "(context exit closes it) — build a new Session"
            )
        _ambient_stack.set(_ambient_stack.get() + (self,))
        return self

    def __exit__(self, *exc: object) -> None:
        # Remove the most recent occurrence of self: tolerant of
        # interleaved (non-LIFO) exits from generators/fixtures.
        stack = _ambient_stack.get()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                _ambient_stack.set(stack[:i] + stack[i + 1:])
                break
        # Shard workers hold OS resources (processes, /dev/shm segments):
        # reclaim them deterministically at block exit rather than at GC.
        # Closing also marks the session, so a later run_sharded fails
        # with a clear error instead of silently respawning workers.
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.plan_cache.stats
        return (
            f"<Session backend={self.options.backend!r} "
            f"pipeline={self.options.pipeline!r} "
            f"cache={len(self.plan_cache)}/{self.plan_cache.maxsize} "
            f"({s.hits}h/{s.misses}m)>"
        )


def _run_inline(concrete: Concrete, feed_sets: list) -> BatchResult:
    """``feed_sets`` one after another through ``concrete``'s executor
    (``run_batch``, and ``run_sharded``'s degraded mode)."""
    results = [concrete.execute(feeds) for feeds in feed_sets]
    return BatchResult(
        outputs=[outs for outs, _ in results],
        reports=[rep for _, rep in results],
    )


# -- ambient session ------------------------------------------------------------

#: Context-local (per-thread / per-asyncio-task) stack of entered
#: sessions.  A ``with Session():`` in one thread must not redirect other
#: threads' ambient compiles — that would cross exactly the isolation
#: boundary sessions exist to draw.  New threads start with an empty
#: stack and fall back to the process-wide default session.
_ambient_stack: contextvars.ContextVar[tuple["Session", ...]] = (
    contextvars.ContextVar("repro_api_ambient_sessions", default=())
)
_default_session: Session | None = None
_default_session_lock = threading.Lock()


def default_session() -> Session:
    """The lazily created process-wide session.

    Its plan cache *is* the PR-1 global cache instance, so legacy code
    (and code that never opens a session) keeps the exact pre-Session
    behaviour, including cross-framework plan sharing.
    """
    global _default_session
    # Lock-free fast path: this sits on the call path of every ambient
    # decorated function, and after first use the reference never changes.
    session = _default_session
    if session is not None:
        return session
    with _default_session_lock:
        if _default_session is None:
            _default_session = Session(
                plan_cache=_cache_module._default_plan_cache()
            )
        return _default_session


def current_session() -> Session:
    """The innermost session entered *in this context* (thread/task), or
    the process-wide default."""
    stack = _ambient_stack.get()
    if stack:
        return stack[-1]
    return default_session()
