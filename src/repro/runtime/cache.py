"""Signature-keyed LRU cache of compiled plans.

The cache is keyed by :func:`~repro.runtime.signature.graph_signature`, so
*structurally identical* graphs share one plan regardless of where their
node objects came from — two independent traces of the same Python
function, or the same expression arriving from ``tfsim`` and ``pytsim``,
compile exactly once.  Graphs that differ in any attr (a ``trans_a`` flag,
a property annotation on an input, a constant's payload) key differently.

Caches are **instance-scoped**: every :class:`repro.api.Session` owns one.
The process-wide instance that backed PR 1 survives only as the *default
session's* cache.

Thread-safety (audited for the instance-scoped design): every LRU
mutation — lookup bookkeeping, insertion, eviction, ``move_to_end`` —
happens under ``_lock``, and concurrent misses on one key are
*single-flighted*: the first thread compiles (outside the lock, so other
keys aren't serialized behind a slow compile) while later threads wait on
a per-key event and then read the finished plan.  Two threads racing the
same signature therefore trigger exactly one compile.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict

from ..ir.graph import Graph
from .compiler import compile_plan
from .plan import Plan
from .signature import graph_signature
from .singleflight import SingleFlight


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Lookups satisfied by re-lowering a persistent-store artifact
    #: (``via_store=True``): not in-memory hits, but not cold compiles
    #: either — ``misses`` stays the count of *full* compiles, which is
    #: what "a warm store compiles zero plans" is measured against.
    store_hits: int = 0
    #: Autotune winners swapped in via :meth:`PlanCache.promote`.
    promotions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.store_hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """LRU cache mapping graph signatures to compiled :class:`Plan` s."""

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._plans: OrderedDict[tuple, Plan] = OrderedDict()
        #: Per-key hotness that *survives eviction*: key → [lookup
        #: hits, executions] — what :meth:`note_execution` reports to
        #: the autotuner.
        self._key_stats: dict[tuple, list] = {}
        self._lock = threading.Lock()
        #: Single-flights concurrent compiles of one key (shares _lock so
        #: its callbacks mutate the LRU/stats in the election's critical
        #: section).
        self._flight = SingleFlight(self._lock)
        #: Bumped by clear(): a compile that started before a clear must
        #: not insert its plan into (or pollute the stats of) the post-
        #: clear cache.
        self._epoch = 0

    def get(
        self,
        graph: Graph,
        *,
        fold_constants: bool = False,
        fusion: bool = False,
    ) -> Plan:
        """The compiled plan for ``graph`` — compiles on miss.

        ``fold_constants`` and ``fusion`` take part in the key: a folded
        (or fused) and a plain plan of the same graph execute different
        instruction sequences.

        Concurrent misses on one key compile exactly once (single-flight);
        ``stats.misses`` counts compile-triggering lookups, so it equals
        the number of compiles performed.
        """
        return self.get_with_info(
            graph, fold_constants=fold_constants, fusion=fusion
        )[0]

    def get_with_info(
        self,
        graph: Graph,
        *,
        fold_constants: bool = False,
        fusion: bool = False,
        via_store: bool = False,
    ) -> tuple[Plan, bool]:
        """Like :meth:`get`, also reporting whether *this call* compiled.

        The flag is what per-caller accounting needs under concurrency: a
        thread that waited on another thread's in-flight compile receives
        ``(plan, False)`` — only the single-flight leader gets ``True``.

        ``via_store=True`` marks the lookup as backed by a persistent-
        store artifact: ``graph`` was *loaded*, not derived, so an
        in-memory miss re-lowers it but is accounted as a store hit —
        ``stats.misses`` keeps meaning "cold compiles performed".
        """
        key = (graph_signature(graph), fold_constants, fusion)
        leader_epoch = [0]

        def probe() -> Plan | None:
            plan = self._plans.get(key)
            if plan is not None:
                self.stats.hits += 1
                rec = self._key_stats.get(key)
                if rec is not None:
                    rec[0] += 1
                self._plans.move_to_end(key)
            return plan

        def on_leader() -> None:
            if via_store:
                self.stats.store_hits += 1
            else:
                self.stats.misses += 1
            leader_epoch[0] = self._epoch

        def build() -> Plan:
            # Compile outside the lock: compilation can be slow and must
            # not serialize concurrent lookups of other graphs.
            return compile_plan(
                graph, fold_constants=fold_constants, fusion=fusion,
                signature=key[0],
            )

        def publish(plan: Plan) -> None:
            if self._epoch != leader_epoch[0]:
                return  # clear() happened mid-compile — don't repopulate
            self._plans[key] = plan
            self._key_stats.setdefault(key, [0, 0])
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.stats.evictions += 1

        return self._flight.run(key, probe, build, publish, on_leader)

    # -- autotune hooks --------------------------------------------------------

    def note_execution(self, key: tuple, *, count: int = 1) -> int:
        """Fold ``count`` plan executions into ``key``'s stats row.

        Returns the key's *hotness* — cumulative lookup hits plus
        executions — which is what the autotuner compares against its
        threshold.  ``key`` is the full cache key tuple
        ``(graph_signature(optimized), fold_constants, fusion)``; a
        Concrete caches its plan and never re-looks it up per call, so
        the execution count, not the hit count, is what actually grows
        with serving traffic.
        """
        with self._lock:
            rec = self._key_stats.setdefault(key, [0, 0])
            rec[1] += count
            return rec[0] + rec[1]

    def promote(self, key: tuple, plan: Plan) -> None:
        """Atomically swap ``plan`` in as the cached entry for ``key``.

        The autotune promotion point: future lookups that resolve to
        ``key`` (the *canonical* optimized graph and knobs) receive the
        winning plan, even though the winner was compiled from a rewrite
        of that graph and carries its own signature.  Re-inserts when
        the key was evicted; respects LRU capacity.
        """
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            self.stats.promotions += 1
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.stats.evictions += 1

    def contains(
        self,
        graph: Graph,
        *,
        fold_constants: bool = False,
        fusion: bool = False,
    ) -> bool:
        """Whether a plan for ``graph`` is cached (does not touch LRU order)."""
        with self._lock:
            return (graph_signature(graph), fold_constants, fusion) in self._plans

    def clear(self) -> None:
        """Drop every plan and reset the counters.

        Compiles already in flight finish but do not publish into the
        cleared cache (epoch check in :meth:`get_with_info`); their
        waiters re-elect a leader and recompile against the new epoch.
        """
        with self._lock:
            self._plans.clear()
            self.stats = CacheStats()
            self._key_stats.clear()
            self._epoch += 1
            self._flight.abandon_all_locked()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PlanCache {len(self)}/{self.maxsize} plans, "
            f"{self.stats.hits} hits / {self.stats.misses} misses>"
        )


_default_cache = PlanCache(maxsize=256)


def _default_plan_cache() -> PlanCache:
    """The process-wide cache instance the default
    :class:`repro.api.Session` adopts."""
    return _default_cache
