"""Persistent content-addressed plan store — cross-run warm starts.

The in-process :class:`~repro.runtime.cache.PlanCache` dedupes traces
*within* a run, but the same signatures recur *across* runs.  This
module closes that loop: compiled plans are persisted as versioned
on-disk artifacts, so a
cold ``Session`` (or a freshly spawned shard worker) rebuilds a plan
from the store instead of re-deriving it.

What an artifact is
-------------------
A plan cannot ship its instruction closures (they capture f2py
routines), but it *can* ship the optimized graph it was compiled from —
the :mod:`~repro.runtime.serialize` payload — plus the compile knobs.
Loading therefore re-lowers (one ``compile_plan``), but skips the trace
*and the whole optimization pipeline*, which on the dispatch-bound
bench workload is ~3/4 of a cold build.  Artifacts are addressed two
ways:

* ``objects/<digest>-<fold>.plan`` — the canonical artifact,
  keyed by :func:`~repro.runtime.signature.signature_digest` of the
  *optimized* graph's signature (exactly the :class:`PlanCache` key),
  holding a header (format version, runtime fingerprint, knobs, the
  creator's build cost) and the structural payload with large ndarray
  consts split out;
* ``objects/<key>.c<i>.npy`` — const sidecars, loaded back with
  ``np.load(mmap_mode="r")`` so warm starts *map* const bytes (shared
  page cache across N shard workers) instead of copying them;
* ``aliases/<digest>`` — tiny JSON pointers keyed by the *traced*
  graph's signature plus pipeline identity (backend, pipeline choice,
  knobs), which is what lets ``Session._build`` jump from a fresh trace
  straight to the artifact without running a single pass.

Multi-process safety: every file is written to a same-directory temp
name and published with ``os.replace`` — sidecars strictly before the
``.plan`` file that references them — so concurrent sessions and shard
workers never observe a torn artifact; the worst race is two writers
producing identical content, last ``rename`` wins.

Invalidation is explicit and versioned: each header carries
:data:`STORE_FORMAT_VERSION` and :func:`runtime_fingerprint` (kernel
registry + pass pipelines + payload format).  Any mismatch — and any
corruption: truncated pickle, garbage bytes, missing sidecar, a payload
that no longer compiles — degrades to a silent recompile, counted in
:class:`StoreStats` as ``corrupt_evicted``, never an exception on the
load path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import pickle
import threading
import time

import numpy as np

from .. import faults
from ..ir.graph import Graph
from .compiler import compile_plan
from .plan import Plan
from .serialize import (
    PAYLOAD_VERSION,
    graph_from_payload,
    graph_to_payload,
    join_payload_consts,
    split_payload_consts,
)
from .signature import graph_signature, signature_digest

__all__ = ["PlanStore", "StoreStats", "GCStats", "runtime_fingerprint",
           "STORE_FORMAT_VERSION", "DEFAULT_MMAP_THRESHOLD",
           "DEFAULT_GC_GRACE_SECONDS"]

#: Artifact layout version — bumped on any change to the on-disk shape,
#: and on any change to what a stored plan computes.  2: BLAS calls are
#: row-major (:mod:`repro.kernels.blas3`), so artifacts proven bitwise
#: under the column-major calls must miss, not serve other bits.  3: no
#: alias carries a derivation record any more; a format-2 alias may
#: point at a rewrite that was only checked bit-identical on the feeds
#: it raced on, so it must miss rather than serve as the canonical plan.
#: 4: kernel fusion is gone, and with it the fusion component of every
#: key and header; a format-3 alias keyed with fusion on must miss.
STORE_FORMAT_VERSION = 4

#: Const payloads at or above this many bytes leave the artifact body
#: for an ``.npy`` sidecar (mmap-loaded).  Below it, a file-per-array
#: costs more than it saves.
DEFAULT_MMAP_THRESHOLD = 4096

#: GC never touches a file younger than this (seconds).  Publishes are
#: ordered sidecars → ``.plan`` → alias, each atomic but the *sequence*
#: is not: an artifact whose alias is still being written looks
#: unreferenced, and a freshly published alias can look dangling while a
#: concurrent eviction races its target.  The grace window is what makes
#: "never evict an artifact referenced by a live alias mid-publish" hold.
DEFAULT_GC_GRACE_SECONDS = 60.0

_write_counter = itertools.count()

_fingerprint_lock = threading.Lock()
_fingerprint: str | None = None


def runtime_fingerprint() -> str:
    """Digest of everything that shapes a compiled plan besides the graph.

    Covers the kernel registry (names, priorities, descriptions — a new
    or re-prioritized kernel changes which BLAS call a node lowers to),
    both optimization pipelines of :mod:`repro.passes` (pass identity
    and order), and the serialize/store format versions.  Baked into
    every artifact header: a stored plan from an older checkout is a
    *miss*, not a wrong answer.  Computed once per process.
    """
    global _fingerprint
    if _fingerprint is not None:
        return _fingerprint
    with _fingerprint_lock:
        if _fingerprint is None:
            from ..kernels.registry import default_registry
            from ..passes import aware_pipeline, default_pipeline

            parts = [
                f"store:{STORE_FORMAT_VERSION}",
                f"payload:{PAYLOAD_VERSION}",
            ]
            for k in default_registry:
                parts.append(f"kernel:{k.name}:{k.priority}:{k.description}")
            for name, pipe in (
                ("default", default_pipeline()),
                ("aware", aware_pipeline()),
            ):
                passes = "->".join(p.name for p in pipe.passes)
                parts.append(f"pipeline:{name}:{passes}")
            _fingerprint = hashlib.sha1(
                "\n".join(parts).encode()
            ).hexdigest()
    return _fingerprint


@dataclasses.dataclass
class StoreStats:
    """Counters of one :class:`PlanStore` instance (process-local)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Artifacts dropped on the load path: corruption, missing sidecars,
    #: stale format versions or runtime fingerprints.
    corrupt_evicted: int = 0
    #: Const bytes served via ``np.load(mmap_mode="r")`` across all hits.
    bytes_mapped: int = 0
    #: Wall seconds spent inside successful artifact loads.
    load_seconds: float = 0.0
    #: Estimated build seconds warm starts avoided: per hit, the
    #: creator's recorded trace+optimize cost minus this load's cost.
    seconds_saved: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclasses.dataclass(frozen=True)
class GCStats:
    """What one :meth:`PlanStore.gc` sweep found and freed."""

    artifacts_before: int
    artifacts_evicted: int
    bytes_before: int
    bytes_freed: int
    aliases_swept: int
    #: Orphan files removed: sidecars whose ``.plan`` is gone, and
    #: abandoned ``.tmp`` files from publishers that died mid-write.
    orphans_removed: int

    @property
    def bytes_after(self) -> int:
        return self.bytes_before - self.bytes_freed

    def render(self) -> str:
        return (
            f"store gc: {self.artifacts_evicted}/{self.artifacts_before} "
            f"artifact(s) evicted | {self.bytes_freed / 1024:.1f} KiB freed "
            f"({self.bytes_before / 1024:.1f} -> "
            f"{self.bytes_after / 1024:.1f} KiB) | "
            f"{self.aliases_swept} dangling alias(es) swept | "
            f"{self.orphans_removed} orphan file(s) removed"
        )


class PlanStore:
    """Content-addressed on-disk plan artifacts under one ``root`` dir.

    Thread-safe; multi-process-safe by construction (atomic publishes,
    see the module docstring).  Stats are per-instance — a shard worker
    opening the same directory accounts its own loads.
    """

    def __init__(
        self, root: "str | os.PathLike", *,
        mmap_threshold: int = DEFAULT_MMAP_THRESHOLD,
        max_bytes: "int | None" = None,
        gc_grace_seconds: float = DEFAULT_GC_GRACE_SECONDS,
    ) -> None:
        self.root = os.fspath(root)
        self.mmap_threshold = int(mmap_threshold)
        #: Soft size cap of ``objects/``: every write that grows the
        #: store checks it and runs :meth:`gc` when exceeded.  ``None``
        #: leaves collection to explicit ``gc()`` / ``laab store-gc``.
        self.max_bytes = max_bytes
        self.gc_grace_seconds = float(gc_grace_seconds)
        self._objects = os.path.join(self.root, "objects")
        self._aliases = os.path.join(self.root, "aliases")
        os.makedirs(self._objects, exist_ok=True)
        os.makedirs(self._aliases, exist_ok=True)
        self.stats = StoreStats()
        self._lock = threading.Lock()

    # -- keys ------------------------------------------------------------------

    def plan_key(self, signature: tuple, *, fold_constants: bool) -> str:
        """Artifact key of a plan: optimized-signature digest + knob —
        the on-disk spelling of the :class:`PlanCache` key."""
        return f"{signature_digest(signature)}-{int(bool(fold_constants))}"

    def trace_key(
        self, graph: Graph, *, backend: str, pipeline: str,
        fold_constants: bool, fusion: bool = False,
    ) -> str:
        """Alias key of a *traced* (pre-optimization) graph.

        Pipeline identity takes part: the same trace optimized by the
        ``default`` and ``aware`` pipelines yields different plans, so
        each (backend, pipeline, knob) combination aliases separately.
        """
        # ``fusion`` is ignored: the frozen e2e benchmark still passes it
        # (benchmarks/e2e/laab_e2e/cold_compile.py and layers.py); ROADMAP
        # item 1 drops those calls, and this keyword with them.
        return signature_digest((
            "trace", graph_signature(graph), str(backend), str(pipeline),
            bool(fold_constants),
        ))

    def _plan_path(self, key: str) -> str:
        return os.path.join(self._objects, f"{key}.plan")

    def _sidecar_name(self, key: str, index: int) -> str:
        return f"{key}.c{index}.npy"

    # -- atomic file plumbing --------------------------------------------------

    def _publish(self, path: str, writer) -> None:
        """Write via ``writer(fh)`` to a same-directory temp file, then
        ``os.replace`` into place — the torn-artifact guard."""
        tmp = f"{path}.{os.getpid()}.{next(_write_counter)}.tmp"
        try:
            with open(tmp, "wb") as fh:
                writer(fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _evict(self, key: str) -> None:
        """Best-effort removal of an artifact and its sidecars (the
        ``corrupt_evicted`` path — a later write recreates them)."""
        try:
            names = os.listdir(self._objects)
        except OSError:
            names = []
        for name in names:
            if name == f"{key}.plan" or (
                name.startswith(f"{key}.c") and name.endswith(".npy")
            ):
                try:
                    os.unlink(os.path.join(self._objects, name))
                except OSError:
                    pass
        with self._lock:
            self.stats.corrupt_evicted += 1
            self.stats.misses += 1

    def _miss(self) -> None:
        with self._lock:
            self.stats.misses += 1

    # -- writes ----------------------------------------------------------------

    def put_plan(
        self, plan: Plan, *, cold_seconds: float = 0.0,
    ) -> str | None:
        """Persist ``plan`` (a ``compile_plan`` product); returns its key.

        Idempotent and cheap on re-put: an existing artifact file is
        left alone (content addressing — same key, same content).
        Hand-built plans without a source graph return ``None``.
        ``cold_seconds`` is the full build cost the writer paid
        (trace + optimize + compile); stored in the header so loads can
        report the seconds a warm start saved.
        """
        if plan.source is None:
            return None
        graph, fold_constants = plan.source
        key = self.plan_key(plan.signature, fold_constants=fold_constants)
        path = self._plan_path(key)
        if os.path.exists(path):
            return key
        payload = graph_to_payload(graph)
        stripped, arrays = split_payload_consts(payload, self.mmap_threshold)
        consts = []
        # Sidecars publish before the .plan that references them: a
        # reader that sees the artifact always sees its consts.
        for i, arr in enumerate(arrays):
            name = self._sidecar_name(key, i)
            self._publish(
                os.path.join(self._objects, name),
                lambda fh, arr=arr: np.save(fh, arr, allow_pickle=False),
            )
            consts.append({"file": name, "nbytes": int(arr.nbytes)})
        artifact = {
            "format": STORE_FORMAT_VERSION,
            "fingerprint": runtime_fingerprint(),
            "key": key,
            "fold_constants": bool(fold_constants),
            "payload": stripped,
            "consts": consts,
            "cold_seconds": float(cold_seconds),
            "compile_seconds": float(plan.compile_seconds),
        }
        blob = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        self._publish(path, lambda fh: fh.write(blob))
        with self._lock:
            self.stats.writes += 1
        if self.max_bytes is not None:
            _, nbytes = self.disk_stats()
            if nbytes > self.max_bytes:
                self.gc(max_bytes=self.max_bytes)
        return key

    def put_alias(self, trace_key: str, plan_key: str) -> None:
        """Point ``aliases/<trace_key>`` at ``plan_key`` (idempotent:
        the first write wins)."""
        path = os.path.join(self._aliases, trace_key)
        if os.path.exists(path):
            return
        spec = {
            "format": STORE_FORMAT_VERSION,
            "fingerprint": runtime_fingerprint(),
            "target": plan_key,
        }
        blob = json.dumps(spec).encode()
        self._publish(path, lambda fh: fh.write(blob))

    # -- loads (never raise) ---------------------------------------------------

    def _load_alias(self, trace_key: str) -> str | None:
        path = os.path.join(self._aliases, trace_key)
        try:
            with open(path, "rb") as fh:
                spec = json.loads(fh.read())
            if spec["format"] != STORE_FORMAT_VERSION or \
                    spec["fingerprint"] != runtime_fingerprint():
                raise ValueError("stale alias")
            target = spec["target"]
            if not isinstance(target, str):
                raise ValueError("bad alias target")
            return target
        except FileNotFoundError:
            return None
        except Exception:
            # Garbage or stale alias: drop it so the next build rewrites.
            try:
                os.unlink(path)
            except OSError:
                pass
            with self._lock:
                self.stats.corrupt_evicted += 1
            return None

    def _load_artifact(self, key: str) -> "tuple[Graph, dict] | None":
        """Artifact ``key`` → (optimized graph, header) with hit/miss/
        corrupt accounting; consts arrive as read-only mmap views.
        """
        path = self._plan_path(key)
        start = time.perf_counter()
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            self._miss()
            return None
        spec = faults.fire("store.load")
        if spec is not None and spec.action == "corrupt":
            # Injected torn artifact: exercises the real corruption
            # path below (decode fails → evict → silent recompile).
            blob = blob[: len(blob) // 2]
        try:
            artifact = pickle.loads(blob)
            if artifact["format"] != STORE_FORMAT_VERSION or \
                    artifact["fingerprint"] != runtime_fingerprint():
                raise ValueError("stale artifact")
            arrays = []
            mapped = 0
            for ref in artifact["consts"]:
                arr = np.load(
                    os.path.join(self._objects, ref["file"]),
                    mmap_mode="r", allow_pickle=False,
                )
                arrays.append(arr)
                mapped += int(arr.nbytes)
            payload = join_payload_consts(artifact["payload"], arrays)
            # Node validation and shape inference re-run here — a
            # mangled payload raises instead of building a wrong graph.
            graph = graph_from_payload(payload)
        except Exception:
            self._evict(key)
            return None
        elapsed = time.perf_counter() - start
        with self._lock:
            self.stats.hits += 1
            self.stats.bytes_mapped += mapped
            self.stats.load_seconds += elapsed
            # What the warm start skipped: the creator's trace+pipeline
            # cost (full build minus its compile — a load re-lowers, so
            # the compile is paid on both sides) minus this load.
            skipped = float(artifact.get("cold_seconds", 0.0)) - \
                float(artifact.get("compile_seconds", 0.0))
            self.stats.seconds_saved += max(0.0, skipped - elapsed)
        return graph, artifact

    def load_graph(
        self, trace_key: "str | None" = None, *, plan_key: "str | None" = None,
    ) -> "Graph | None":
        """The stored *optimized* graph for a trace alias or plan key.

        This is the Session warm-start entry point: give it the
        :meth:`trace_key` of a fresh trace and, on a hit, feed the
        returned graph to the plan cache — no pipeline pass runs.
        Returns ``None`` on miss/corruption (accounted, never raised).
        """
        if (trace_key is None) == (plan_key is None):
            raise TypeError("pass exactly one of trace_key/plan_key")
        if plan_key is None:
            plan_key = self._load_alias(trace_key)
            if plan_key is None:
                self._miss()
                return None
        loaded = self._load_artifact(plan_key)
        return None if loaded is None else loaded[0]

    def load_plan(self, plan_key: str) -> "Plan | None":
        """Artifact → compiled :class:`Plan` (the shard-worker path).

        Re-lowers with the knobs from the artifact header.  Any failure
        — including a payload that decodes but no longer compiles —
        degrades to ``None`` with ``corrupt_evicted`` accounting.
        """
        loaded = self._load_artifact(plan_key)
        if loaded is None:
            return None
        graph, artifact = loaded
        try:
            return compile_plan(
                graph, fold_constants=artifact["fold_constants"]
            )
        except Exception:
            # The hit was already counted; reclassify as an eviction.
            with self._lock:
                self.stats.hits -= 1
            self._evict(plan_key)
            return None

    # -- garbage collection ----------------------------------------------------

    def gc(
        self, *,
        max_bytes: "int | None" = None,
        grace_seconds: "float | None" = None,
    ) -> GCStats:
        """Bound the store: sweep garbage, then evict LRU-by-atime.

        Four phases, all best-effort and multi-process-safe:

        1. **Orphan removal** — abandoned ``.tmp`` files and sidecars
           whose ``.plan`` is gone (a dead publisher, or a previous
           eviction interrupted partway).
        2. **Stale-artifact eviction** — artifacts whose header names
           another :data:`STORE_FORMAT_VERSION` or runtime fingerprint,
           or cannot be read at all.  A load would evict them, but an
           older format may spell its keys differently, and then no load
           ever asks for them again.
        3. **Dangling-alias sweep** — aliases whose target artifact no
           longer exists (evicted or corrupt-evicted), and aliases of
           another format or fingerprint.
        4. **Size-cap eviction** — when ``max_bytes`` is set (argument,
           else the store's ``max_bytes``), whole artifacts (``.plan`` +
           sidecars) are evicted least-recently-*accessed* first until
           ``objects/`` fits; aliases pointing at an evicted artifact
           are swept in the same pass.

        Nothing younger than the grace window is touched: a publish is a
        *sequence* of atomic renames (sidecars → ``.plan`` → alias), so
        an artifact referenced by an alias still mid-publish always
        looks "fresh" and survives — that is the no-torn-eviction
        guarantee.  Every deletion tolerates a concurrent deleter.
        """
        grace = self.gc_grace_seconds if grace_seconds is None \
            else float(grace_seconds)
        if max_bytes is None:
            max_bytes = self.max_bytes
        now = time.time()

        def fresh(st: os.stat_result) -> bool:
            return now - st.st_mtime < grace

        # One scan of objects/: size, atime, freshness per file.
        files: dict[str, os.stat_result] = {}
        try:
            names = os.listdir(self._objects)
        except OSError:
            names = []
        for name in names:
            try:
                files[name] = os.stat(os.path.join(self._objects, name))
            except OSError:
                continue
        plan_keys = {n[: -len(".plan")] for n in files if n.endswith(".plan")}
        alias_bytes = 0
        alias_targets: dict[str, str] = {}
        try:
            alias_names = os.listdir(self._aliases)
        except OSError:
            alias_names = []
        current = (STORE_FORMAT_VERSION, runtime_fingerprint())
        for name in alias_names:
            path = os.path.join(self._aliases, name)
            try:
                alias_bytes += os.path.getsize(path)
                with open(path, "rb") as fh:
                    spec = json.loads(fh.read())
                target = spec.get("target")
                if (spec.get("format"), spec.get("fingerprint")) != current:
                    target = None  # stale → dangling
                alias_targets[name] = target if isinstance(target, str) else ""
            except OSError:
                continue
            except Exception:
                alias_targets[name] = ""  # unreadable → dangling
        bytes_before = sum(st.st_size for st in files.values()) + alias_bytes
        artifacts_before = len(plan_keys)
        freed = 0
        orphans = 0
        aliases_swept = 0
        evicted = 0

        def unlink(path: str, size: int) -> int:
            nonlocal freed
            try:
                os.unlink(path)
            except OSError:
                return 0
            freed += size
            return 1

        # Phase 1: orphans.
        for name, st in list(files.items()):
            if fresh(st):
                continue
            is_tmp = name.endswith(".tmp")
            is_orphan_sidecar = (
                name.endswith(".npy") and ".c" in name
                and name.rsplit(".c", 1)[0] not in plan_keys
            )
            if is_tmp or is_orphan_sidecar:
                n = unlink(os.path.join(self._objects, name), st.st_size)
                orphans += n
                if n:
                    del files[name]

        # Phase 2: stale artifacts, with their sidecars.  Their aliases
        # now dangle, and phase 3 sweeps them.
        for key in sorted(plan_keys):
            name = f"{key}.plan"
            st = files.get(name)
            if st is None or fresh(st) or self._header(name) == current:
                continue
            evicted += 1
            plan_keys.discard(key)
            for other in list(files):
                if other == name or (
                    other.startswith(f"{key}.c") and other.endswith(".npy")
                ):
                    unlink(os.path.join(self._objects, other),
                           files.pop(other).st_size)

        # Phase 3: dangling aliases.
        for name, target in list(alias_targets.items()):
            path = os.path.join(self._aliases, name)
            if target and f"{target}.plan" in files:
                continue
            try:
                st = os.stat(path)
            except OSError:
                continue
            if fresh(st):
                continue
            n = unlink(path, st.st_size)
            aliases_swept += n
            if n:
                del alias_targets[name]

        # Phase 4: size-cap eviction, LRU by access time.
        if max_bytes is not None:
            groups: dict[str, list[str]] = {k: [] for k in plan_keys}
            for name in files:
                if name.endswith(".plan"):
                    groups[name[: -len(".plan")]].append(name)
                elif name.endswith(".npy") and ".c" in name:
                    key = name.rsplit(".c", 1)[0]
                    if key in groups:
                        groups[key].append(name)
            total = sum(st.st_size for st in files.values())
            order = sorted(
                groups,
                key=lambda k: files[f"{k}.plan"].st_atime,
            )
            for key in order:
                if total <= max_bytes:
                    break
                if fresh(files[f"{key}.plan"]):
                    continue  # possibly mid-publish: never evict
                evicted += 1
                for name in groups[key]:
                    size = files[name].st_size
                    if unlink(os.path.join(self._objects, name), size):
                        total -= size
                for name, target in list(alias_targets.items()):
                    if target == key:
                        path = os.path.join(self._aliases, name)
                        try:
                            size = os.path.getsize(path)
                        except OSError:
                            continue
                        aliases_swept += unlink(path, size)
                        del alias_targets[name]
        return GCStats(
            artifacts_before=artifacts_before,
            artifacts_evicted=evicted,
            bytes_before=bytes_before,
            bytes_freed=freed,
            aliases_swept=aliases_swept,
            orphans_removed=orphans,
        )

    def _header(self, name: str) -> "tuple | None":
        """``(format, fingerprint)`` of artifact file ``name`` in
        ``objects/``; ``None`` when it cannot be read."""
        try:
            with open(os.path.join(self._objects, name), "rb") as fh:
                artifact = pickle.loads(fh.read())
            return (artifact["format"], artifact["fingerprint"])
        except Exception:
            return None

    # -- reporting -------------------------------------------------------------

    def disk_stats(self) -> tuple[int, int]:
        """(artifact count, total bytes on disk) — aliases included in
        the byte total, ``.plan`` files in the count."""
        plans = 0
        total = 0
        for d in (self._objects, self._aliases):
            try:
                names = os.listdir(d)
            except OSError:
                continue
            for name in names:
                try:
                    total += os.path.getsize(os.path.join(d, name))
                except OSError:
                    continue
                plans += name.endswith(".plan")
        return plans, total

    def render(self) -> str:
        """One-paragraph report for ``laab cache-stats --store``."""
        plans, nbytes = self.disk_stats()
        s = self.stats
        return (
            f"plan store: {self.root}\n"
            f"  {plans} artifact(s), {nbytes / 1024:.1f} KiB on disk\n"
            f"  {s.hits} hits / {s.misses} misses / {s.writes} writes / "
            f"{s.corrupt_evicted} corrupt evicted "
            f"(hit rate {s.hit_rate:.1%})\n"
            f"  {s.bytes_mapped / 1024:.1f} KiB consts mmapped | "
            f"{s.load_seconds:.4f}s loading | "
            f"~{s.seconds_saved:.4f}s build time saved"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"<PlanStore {self.root!r} {s.hits}h/{s.misses}m/"
            f"{s.writes}w/{s.corrupt_evicted}c>"
        )
