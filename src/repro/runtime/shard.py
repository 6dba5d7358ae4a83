"""Multi-process sharded plan execution: the GIL-free dispatch path.

Threads overlap BLAS time (kernels release the GIL) but not *dispatch*
time — on the dispatch-bound workloads this repo benchmarks a thread
pool ran slower than a plain loop, because every instruction step
re-acquires the GIL.  A :class:`ShardPool` removes the interpreter from
the contention path entirely:

* **N worker processes**, each receiving the plan *by reconstruction*
  (a structural graph payload plus the compile knobs — see
  :mod:`repro.runtime.serialize`; under the ``fork`` start method the
  compiled plan is inherited directly) and executing through its own
  :class:`~repro.runtime.plan.PlanArena`;
* **shared-memory ring buffers** (:mod:`multiprocessing.shared_memory`)
  laid out from the plan's own
  :meth:`~repro.runtime.plan.Plan.buffer_descriptors` — every input and
  output slot of every ring entry is a contiguous region in the slot's
  declared memory order, so the parent writes feeds *directly into the
  shard's input slots* and workers execute with pinned bindings: feeds
  alias shared memory, outputs land in shared memory, and steady-state
  calls copy **zero bytes** inside the worker (the per-call
  ``bytes_copied`` counter, surfaced per run, proves it);
* **one wake-up per worker per wave**, not per feed: a worker receives
  ``("run", k)``, serves ``k`` ring entries through per-entry
  :class:`~repro.runtime.plan.PinnedBinding` s, and replies once — the
  synchronization cost amortizes over the whole shard.

Failure semantics
-----------------
A feed that *raises inside a worker* (kernel error, dtype drift) is
reported back as :class:`ShardWorkerError` (``cause="exec"``); the
worker itself survives and the pool stays usable — already-executed
feeds of the same run are simply discarded with the failed wave.  The
supervisor classifies everything else by how the wave reply failed:

* **crash** — the worker's pipe closed (killed, segfaulted, OOM'd);
* **hang** — no reply within ``wave_deadline`` seconds (stuck BLAS
  call, livelocked ring): the worker is reaped with terminate→kill
  escalation, so even a SIGTERM-ignoring worker comes down;
* **protocol** — the reply arrived but is not a well-formed
  ``("done", k, bytes)`` / ``("error", msg)`` tuple (a corrupted pipe).

With ``respawn=False`` (the default) any of these marks the pool broken
and raises a :class:`ShardWorkerError` carrying structured ``worker`` /
``exitcode`` / ``cause`` fields.  With ``respawn=True`` the pool starts
a replacement and **replays the wave** (the feeds are still in the
ring) under a bounded retry budget with exponential backoff; only when
the budget is exhausted does it give up (``cause="gave_up"``).  Health
counters (:attr:`hangs_detected`, :attr:`respawns`,
:attr:`waves_replayed`) surface through ``SessionStats``.

Shared-memory segments are always unlinked — on :meth:`close`, on
garbage collection (``weakref.finalize``), and worker-side attachments
deregister from the resource tracker so interpreter shutdown never
double-frees them.  Recovery paths are exercised deterministically via
:mod:`repro.faults` (sites ``worker.exec``, ``pipe.send``,
``pipe.recv``), which replaced the old ad-hoc ``_test_fault_hook``.
"""

from __future__ import annotations

import os
import pickle
import time
import weakref
from collections.abc import Mapping, Sequence

import multiprocessing
import numpy as np

from .. import faults
from ..errors import GraphError
from ..ir.interpreter import _normalize_feed
from .plan import BatchResult, FeedSet, Plan

__all__ = ["ShardPool", "ShardWorkerError", "default_shards"]

#: Alignment of every ring entry (and of the per-slot regions inside
#: it): keeps float64 views aligned and slot starts cache-line-friendly.
_ALIGN = 64

#: Grace period between ``terminate()`` and the ``kill()`` escalation
#: when reaping a dead/hung worker.
_TERM_GRACE = 2.0


class ShardWorkerError(RuntimeError):
    """A shard worker failed.

    Carries structured fields so recovery logic (and tests) can react to
    *what* failed instead of string-matching the message:

    ``worker``
        Shard index of the failing worker, or ``None`` for pool-level
        failures (closed/broken pool).
    ``exitcode``
        The reaped process's exit code (negative = killed by that
        signal), or ``None`` when the worker is still alive (an
        execution error reported over a healthy pipe).
    ``cause``
        ``"crash"`` (pipe closed), ``"hang"`` (missed the wave
        deadline), ``"protocol"`` (malformed reply), ``"gave_up"``
        (respawn/replay budget exhausted), ``"exec"`` (a feed raised in
        a live worker), or ``None`` for pool-level failures.
    """

    def __init__(self, message: str, *, worker: int | None = None,
                 exitcode: int | None = None,
                 cause: str | None = None) -> None:
        super().__init__(message)
        self.worker = worker
        self.exitcode = exitcode
        self.cause = cause


class _WaveTimeout(Exception):
    """Internal: a worker missed its wave deadline (classified *hung*)."""


def default_shards() -> int:
    """Shard count used when callers give none: CPU count capped at 4."""
    return max(1, min(4, os.cpu_count() or 1))


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _ring_layout(descs) -> tuple[list[int], int]:
    """Per-descriptor byte offsets within one ring entry, and the entry
    stride (both sides build views from this, so layout cannot drift)."""
    offsets = []
    off = 0
    for d in descs:
        offsets.append(off)
        off += _align(d.nbytes)
    return offsets, _align(off)


def _entry_views(buf, descs, offsets, base: int):
    """ndarray views over one ring entry of a shared-memory buffer."""
    views = []
    for d, off in zip(descs, offsets):
        views.append(
            np.ndarray(d.shape, dtype=d.dtype, buffer=buf,
                       offset=base + off, order=d.order)
        )
    return views


def _shard_worker(conn, shm_name: str, plan_blob: bytes, dtype_str: str,
                  ring_slots: int, store_ref=None, worker_index: int = 0,
                  fault_spec: str | None = None) -> None:
    """Worker loop: attach the ring, compile/adopt the plan, serve waves.

    Runs in a child process.  ``plan_blob`` is the pickled plan —
    unpickling *reconstructs* it (graph payload → ``compile_plan``), so
    each worker owns its own closures and arena.  When ``store_ref =
    (store_root, plan_key)`` names a persistent-plan-store artifact the
    worker warm-starts from it instead — same re-lower, but the graph
    payload and its const sidecars come from disk (consts mmapped, so N
    workers share one page-cache copy instead of unpickling N private
    ones); any store failure falls back to the blob, so a corrupt
    artifact can never break a pool.  After setup the worker sends one
    ``("ready", warm_started)`` handshake, then replies per wave with
    ``("done", k, bytes_copied)`` or ``("error", message)``; the loop
    only exits on ``("stop",)`` or a closed pipe.
    """
    from multiprocessing import shared_memory

    # Fork workers inherit the parent's installed fault plan; spawn
    # workers receive it re-rendered as a string.  Installing resets the
    # hit counters either way — each worker counts its own hits.
    if fault_spec:
        faults.install(fault_spec)
    injector = faults.active()

    # Attaching re-registers the segment with the resource tracker, but
    # fork and spawn children both share the *parent's* tracker process,
    # whose registry is a set — the re-register dedupes to a no-op and
    # the parent's close()/finalizer unlink stays the single cleanup
    # point.  (Unregistering here instead would strip the parent's own
    # registration and break crash cleanup.)
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        plan: Plan | None = None
        if store_ref is not None:
            try:
                from .store import PlanStore

                plan = PlanStore(store_ref[0]).load_plan(store_ref[1])
            except Exception:
                plan = None  # store unreachable → recompile from blob
        warm_started = plan is not None
        if plan is None:
            plan = pickle.loads(plan_blob)
        dtype = np.dtype(dtype_str)
        descs = plan.buffer_descriptors(dtype)
        offsets, stride = _ring_layout(descs)
        n_inputs = len(plan.inputs)
        input_slots = {spec.slot for spec in plan.inputs}
        arena = plan.new_arena()
        bindings = []
        ring = []
        # Per ring entry: the Fortran views bind_pinned built for its
        # feeds, and (slot, output view, its Fortran view) to install.
        feed_views = []
        pin_lists = []
        out_slots = [d.slot for d in descs[n_inputs:]]
        for r in range(ring_slots):
            views = _entry_views(shm.buf, descs, offsets, r * stride)
            ins, outs = views[:n_inputs], views[n_inputs:]
            bindings.append(plan.bind_pinned(ins, arena))
            ring.append((ins, outs))
            feed_views.append([
                (slot, arena.views[slot]) for slot in input_slots
                if arena.views[slot] is not None
            ])
            pins = [
                (slot, view)
                for slot, view in zip(out_slots, outs)
                if slot not in input_slots
            ]
            # Validate each entry's views once, up front; the serving
            # loop then swaps the (already vetted) buffers in directly.
            for slot, view in pins:
                plan.pin_slot(arena, slot, view)
            pin_lists.append([(slot, view, view.T) for slot, view in pins])
        bufs = arena.buffers
        arena_views = arena.views
        conn.send(("ready", warm_started))
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "stop":
                break
            count = msg[1]
            before = arena.bytes_copied
            try:
                for i in range(count):
                    if injector is not None:
                        injector.fire("worker.exec", worker=worker_index)
                    _, outs = ring[i]
                    for slot, view_t in feed_views[i]:
                        arena_views[slot] = view_t
                    for slot, view, view_t in pin_lists[i]:
                        bufs[slot] = view
                        arena_views[slot] = view_t
                    results = bindings[i].execute()
                    for view, result in zip(outs, results):
                        if result is view:
                            continue
                        if result.dtype != view.dtype:
                            raise TypeError(
                                f"plan produced dtype {result.dtype}, but "
                                f"the shard pool was sized for {dtype} — "
                                "build the pool with the dtype the plan "
                                "actually computes"
                            )
                        np.copyto(view, result)
                reply = ("done", count, arena.bytes_copied - before)
                if injector is not None:
                    spec = injector.fire("pipe.send", worker=worker_index)
                    if spec is not None and spec.action == "corrupt":
                        reply = ("?corrupt?", None)
                conn.send(reply)
            except Exception as exc:  # noqa: BLE001 - reported to parent
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        shm.close()
        conn.close()


class ShardPool:
    """N worker processes serving one plan through shared-memory rings.

    Parameters
    ----------
    plan:
        A :func:`~repro.runtime.compiler.compile_plan` product (anything
        else cannot be shipped across the process boundary).  Each
        worker recompiles the same graph with the same knobs.
    shards:
        Worker-process count (``None`` → :func:`default_shards`).
    ring_slots:
        Ring entries per worker — the largest chunk a worker serves per
        wake-up.  Larger rings amortize the per-wave pipe round-trip
        over more feeds at the cost of shared memory
        (``ring_slots × (inputs + outputs)`` bytes per worker).
    dtype:
        The uniform feed/output dtype the rings are sized for (defaults
        to the repo-configured default dtype).  Feeds are written into
        the ring with a casting ``copyto`` — feed float64 into a
        float32 pool and you asked for float32 results.
    start_method:
        ``multiprocessing`` start method; default ``fork`` where
        available (workers inherit the compiled plan for free), else
        ``spawn`` (workers unpickle → recompile).
    respawn:
        Failed-worker policy: ``False`` marks the pool broken on a
        worker crash/hang/protocol failure; ``True`` starts a
        replacement and replays the wave (the feeds persist in the
        ring) under the ``max_retries`` budget.
    wave_deadline:
        Seconds a worker may take to answer one wave before it is
        classified *hung*, reaped (terminate→kill), and handled like a
        death.  ``None`` (the default) keeps the blocking wait — zero
        supervision overhead on the clean path.  Size it to the
        slowest legitimate wave (``ring_slots`` × worst per-feed
        latency), not the average.
    max_retries:
        Respawn/replay attempts per failed wave before giving up
        (``cause="gave_up"``, pool broken).
    retry_backoff:
        Base of the exponential backoff between replay attempts: retry
        ``i`` (0-based) sleeps ``retry_backoff * 2**(i-1)`` first, the
        first retry is immediate.
    store:
        Optional :class:`~repro.runtime.store.PlanStore`.  The plan's
        artifact is ensured on disk at construction and workers
        warm-start from it — the structural payload and mmapped const
        sidecars come from the store instead of each worker's copy of
        the pickle blob (``spawn`` mode especially: the blob still
        ships as a corruption fallback, but a warm worker never reads
        it).  :attr:`workers_warm_started` counts how many workers
        reported a store warm start.
    """

    def __init__(
        self,
        plan: Plan,
        *,
        shards: int | None = None,
        ring_slots: int = 32,
        dtype: object = None,
        start_method: str | None = None,
        respawn: bool = False,
        wave_deadline: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        store=None,
    ) -> None:
        from multiprocessing import shared_memory

        if shards is None:
            shards = default_shards()
        if not isinstance(shards, int) or isinstance(shards, bool) \
                or shards < 1:
            raise GraphError(f"shards must be an int >= 1, got {shards!r}")
        if not isinstance(ring_slots, int) or ring_slots < 1:
            raise GraphError(
                f"ring_slots must be an int >= 1, got {ring_slots!r}"
            )
        if wave_deadline is not None and not wave_deadline > 0:
            raise GraphError(
                f"wave_deadline must be > 0 seconds or None, got "
                f"{wave_deadline!r}"
            )
        if not isinstance(max_retries, int) or max_retries < 1:
            raise GraphError(
                f"max_retries must be an int >= 1, got {max_retries!r}"
            )
        if retry_backoff < 0:
            raise GraphError(
                f"retry_backoff must be >= 0, got {retry_backoff!r}"
            )
        if dtype is None:
            from ..config import config

            dtype = config.default_dtype
        self.plan = plan
        self.shards = shards
        self.ring_slots = ring_slots
        self.dtype = np.dtype(dtype)
        self.respawn = respawn
        self.wave_deadline = wave_deadline
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(start_method)
        # Pickle once here (also validates the plan is reconstructible
        # *before* any worker starts); fork workers still inherit the
        # live plan via the blob's round-trip — one recompile per worker
        # either way, paid at pool construction, not per batch.
        self._plan_blob = pickle.dumps(plan)
        #: ``(store_root, plan_key)`` workers warm-start from, or None.
        self._store_ref = None
        #: Workers whose ready handshake reported a store warm start.
        self.workers_warm_started = 0
        if store is not None:
            key = store.put_plan(plan)
            if key is not None:
                self._store_ref = (store.root, key)
        self._descs = plan.buffer_descriptors(self.dtype)
        self._offsets, self._stride = _ring_layout(self._descs)
        self._n_inputs = len(plan.inputs)
        seg_size = self._stride * ring_slots
        self._shms = []
        self._conns = []
        self._procs = []
        self._rings = []  # parent-side (input_views, output_views) per worker
        self._broken = False
        self._closed = False
        self.bytes_copied_last_run = 0
        #: Worker-waves dispatched over this pool's lifetime (one count
        #: per ``("run", k)`` message) — surfaced by ``SessionStats``.
        self.waves_served = 0
        #: Workers that missed their wave deadline and were reaped.
        self.hangs_detected = 0
        #: Replacement workers started after a crash/hang/protocol fail.
        self.respawns = 0
        #: Waves re-dispatched to a replacement worker.
        self.waves_replayed = 0
        try:
            for _ in range(shards):
                shm = shared_memory.SharedMemory(create=True, size=seg_size)
                self._shms.append(shm)
                self._rings.append([
                    (views[:self._n_inputs], views[self._n_inputs:])
                    for views in (
                        _entry_views(shm.buf, self._descs, self._offsets,
                                     r * self._stride)
                        for r in range(ring_slots)
                    )
                ])
            for w in range(shards):
                self._start_worker(w)
            # Collect readiness after *all* workers launched, so their
            # setup compiles/store loads overlap instead of serializing.
            for w in range(shards):
                self._await_ready(w)
        except BaseException:
            self.close()
            raise
        # The lists themselves (not copies): respawns mutate them in
        # place, so the finalizer always sees the current workers.
        self._finalizer = weakref.finalize(
            self, _cleanup, self._shms, self._procs, self._conns
        )

    # -- lifecycle -------------------------------------------------------------

    def _start_worker(self, w: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(child_conn, self._shms[w].name, self._plan_blob,
                  str(self.dtype), self.ring_slots, self._store_ref,
                  w, faults.active_render()),
            daemon=True,
            name=f"repro-shard-{w}",
        )
        proc.start()
        child_conn.close()
        if w < len(self._conns):
            self._conns[w] = parent_conn
            self._procs[w] = proc
        else:
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def _await_ready(self, w: int) -> None:
        """Consume worker ``w``'s ready handshake (sent once after its
        plan is built and its ring bindings are validated).  A worker
        dying during setup surfaces here, at construction/respawn time,
        instead of desyncing the first wave."""
        try:
            msg = self._conns[w].recv()
        except (EOFError, ConnectionResetError, OSError):
            self._broken = True
            raise ShardWorkerError(
                f"shard worker {w} died during startup (before its ready "
                "handshake) — the plan or ring setup fails in the worker",
                worker=w, exitcode=self._procs[w].exitcode, cause="crash",
            ) from None
        if msg[0] != "ready":  # pragma: no cover - protocol guard
            self._broken = True
            raise ShardWorkerError(
                f"shard worker {w} spoke out of turn during startup: {msg!r}",
                worker=w, cause="protocol",
            )
        self.workers_warm_started += bool(msg[1])

    def close(self) -> None:
        """Stop every worker and unlink the shared-memory segments.

        Idempotent; also runs from a ``weakref.finalize`` at collection
        time, so dropping the last reference never leaks ``/dev/shm``
        segments (the worker-death tests re-run under ``pytest -x`` and
        would trip over leftovers otherwise).
        """
        if self._closed:
            return
        self._closed = True
        fin = getattr(self, "_finalizer", None)
        if fin is not None:
            fin.detach()
        # Release the parent-side views BEFORE unmapping: with exported
        # buffer pointers still alive, shm.close() raises BufferError and
        # the segment would stay mapped for as long as the pool object is
        # referenced.
        self._rings.clear()
        _cleanup(self._shms, self._procs, self._conns)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "broken" if self._broken else "live"
        )
        return (
            f"<ShardPool {self.shards} workers x {self.ring_slots} ring "
            f"slots, {self.dtype}, {state}>"
        )

    # -- execution -------------------------------------------------------------

    def _write_feed(self, worker: int, ring_slot: int, feeds) -> None:
        ins, _ = self._rings[worker][ring_slot]
        if isinstance(feeds, Mapping):
            raise GraphError(
                "ShardPool.run takes positional feed sequences; bind "
                "mapping feeds through the plan's input order first"
            )
        feeds = list(feeds)
        if len(feeds) != self._n_inputs:
            raise GraphError(
                f"plan has {self._n_inputs} inputs, got {len(feeds)} feeds"
            )
        for spec, view, feed in zip(self.plan.inputs, ins, feeds):
            arr = _normalize_feed(feed)
            if tuple(arr.shape) != tuple(spec.shape):
                raise GraphError(
                    f"feed for {spec.name!r} has shape {arr.shape}, "
                    f"input declares {spec.shape}"
                )
            np.copyto(view, arr)

    def run(self, feed_sets: Sequence[FeedSet]) -> BatchResult:
        """Execute the plan over ``feed_sets``, sharded across workers.

        Feeds are partitioned into contiguous per-worker chunks and
        streamed through the rings in waves of up to ``ring_slots``
        each; the parent writes every feed straight into the target
        shard's input slots and reads results straight out of its output
        slots.  Returns a :class:`~repro.runtime.plan.BatchResult`
        whose outputs are parent-owned copies and whose reports are the
        plan's at the pool's dtype, once per feed set — a plan constant,
        so no worker accounts.
        """
        if self._closed:
            raise ShardWorkerError("pool is closed")
        if self._broken:
            raise ShardWorkerError(
                "pool is broken (a worker died and respawn=False); build "
                "a new ShardPool or construct it with respawn=True"
            )
        feed_sets = list(feed_sets)
        n = len(feed_sets)
        outputs: list[list[np.ndarray] | None] = [None] * n
        self.bytes_copied_last_run = 0
        # Contiguous balanced partition: worker w serves chunk w.
        base, extra = divmod(n, self.shards)
        chunks = []
        pos = 0
        for w in range(self.shards):
            size = base + (1 if w < extra else 0)
            chunks.append((pos, pos + size))
            pos += size
        offsets = [c[0] for c in chunks]
        while any(offsets[w] < chunks[w][1] for w in range(self.shards)):
            wave = []  # (worker, start_index, count)
            error: BaseException | None = None
            try:
                for w in range(self.shards):
                    start, end = offsets[w], chunks[w][1]
                    count = min(self.ring_slots, end - start)
                    if count <= 0:
                        continue
                    for i in range(count):
                        self._write_feed(w, i, feed_sets[start + i])
                    # Dispatch as soon as this shard's chunk is written:
                    # worker w executes while the parent fills shard w+1.
                    self._dispatch(w, count)
                    wave.append((w, start, count))
                    offsets[w] = start + count
            except BaseException as exc:
                # A feed failed validation (or a dispatch died) after
                # earlier shards were already sent work: fall through and
                # drain their replies before raising, or the pipe
                # protocol desyncs and the next run() reads stale waves.
                error = exc
            for w, start, count in wave:
                try:
                    self._collect(w, start, count, outputs)
                except ShardWorkerError as exc:
                    # Keep draining the other dispatched workers — every
                    # in-flight reply must be consumed so a surviving
                    # pool stays wave-aligned.  First error wins.
                    if error is None:
                        error = exc
            if error is not None:
                raise error
        report = self.plan.report_for((self.dtype,) * len(self.plan.inputs))
        return BatchResult(
            outputs=[out for out in outputs],
            reports=[report] * n,
        )

    # -- supervision -----------------------------------------------------------

    _CAUSE_VERB = {
        "crash": "died",
        "hang": "hung (missed the wave deadline)",
        "protocol": "sent a malformed reply",
    }

    @staticmethod
    def _valid_reply(reply) -> bool:
        """Wave-protocol well-formedness: anything else is ``protocol``."""
        if not isinstance(reply, tuple) or len(reply) < 2:
            return False
        if reply[0] == "done":
            return (len(reply) == 3 and isinstance(reply[1], int)
                    and isinstance(reply[2], int))
        return reply[0] == "error" and isinstance(reply[1], str)

    def _recv(self, w: int):
        """One wave reply from worker ``w``, under the wave deadline.

        ``wave_deadline=None`` keeps the plain blocking ``recv()`` —
        the clean path pays nothing for supervision it didn't ask for.
        """
        conn = self._conns[w]
        if self.wave_deadline is not None and not conn.poll(
                self.wave_deadline):
            raise _WaveTimeout()
        reply = conn.recv()
        spec = faults.fire("pipe.recv")
        if spec is not None and spec.action == "corrupt":
            reply = ("?corrupt?", reply)
        return reply

    def _reap(self, w: int) -> int | None:
        """Bring worker ``w`` down for sure: terminate, then escalate to
        kill if it lingers (a hung worker may be ignoring SIGTERM).
        Returns the exit code; closes the parent-side pipe end."""
        proc = self._procs[w]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=_TERM_GRACE)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=_TERM_GRACE)
        else:
            proc.join(timeout=_TERM_GRACE)
        self._conns[w].close()
        return proc.exitcode

    def _fail(self, w: int, cause: str, exitcode: int | None,
              retries: int = 0) -> ShardWorkerError:
        """Terminal failure for worker ``w``: break the pool, build the
        structured error (returned, not raised, so callers control the
        raise site and ``run()``'s drain loop stays simple)."""
        self._broken = True
        if retries:
            return ShardWorkerError(
                f"shard worker {w} kept failing through {retries} respawn/"
                f"replay attempt(s) (last cause: {cause}, exit code "
                f"{exitcode}); pool is now unusable — the workload breaks "
                "workers deterministically",
                worker=w, exitcode=exitcode, cause="gave_up",
            )
        return ShardWorkerError(
            f"shard worker {w} {self._CAUSE_VERB[cause]} (exit code "
            f"{exitcode}); pool is now unusable — construct with "
            "respawn=True for automatic replacement",
            worker=w, exitcode=exitcode, cause=cause,
        )

    def _respawn(self, w: int) -> bool:
        """Start a replacement worker; ``False`` if it fails its own
        startup (counts against the caller's retry budget)."""
        try:
            self._start_worker(w)
            self._await_ready(w)
        except ShardWorkerError:
            # _await_ready marked the pool broken; we're still inside a
            # retry budget, so un-mark and let the caller decide.
            self._broken = False
            self._reap(w)
            return False
        self.respawns += 1
        return True

    def _replay_wave(self, w: int, count: int, cause: str,
                     exitcode: int | None):
        """Worker ``w`` failed a wave (already reaped): respawn and
        re-dispatch the wave — the feeds persist in the ring — under the
        retry budget with exponential backoff.  Returns the replayed
        wave's (validated) reply, or raises ``cause="gave_up"``."""
        if not self.respawn:
            raise self._fail(w, cause, exitcode)
        for attempt in range(self.max_retries):
            if attempt:
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            if not self._respawn(w):
                exitcode = self._procs[w].exitcode
                cause = "crash"
                continue
            try:
                self._conns[w].send(("run", count))
                self.waves_replayed += 1
                reply = self._recv(w)
            except _WaveTimeout:
                self.hangs_detected += 1
                cause, exitcode = "hang", self._reap(w)
                continue
            except (EOFError, ConnectionResetError, BrokenPipeError,
                    OSError):
                cause, exitcode = "crash", self._reap(w)
                continue
            if self._valid_reply(reply):
                return reply
            cause, exitcode = "protocol", self._reap(w)
        raise self._fail(w, cause, exitcode, retries=self.max_retries)

    def _dispatch(self, w: int, count: int) -> None:
        self.waves_served += 1
        try:
            self._conns[w].send(("run", count))
            return
        except (BrokenPipeError, OSError):
            exitcode = self._reap(w)
        if not self.respawn:
            raise self._fail(w, "crash", exitcode)
        for attempt in range(self.max_retries):
            if attempt:
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            if not self._respawn(w):
                exitcode = self._procs[w].exitcode
                continue
            try:
                self._conns[w].send(("run", count))
                self.waves_replayed += 1
                return
            except (BrokenPipeError, OSError):
                exitcode = self._reap(w)
        raise self._fail(w, "crash", exitcode, retries=self.max_retries)

    def _collect(self, w: int, start: int, count: int, outputs) -> None:
        try:
            reply = self._recv(w)
            cause = None if self._valid_reply(reply) else "protocol"
        except _WaveTimeout:
            cause = "hang"
        except (EOFError, ConnectionResetError, OSError):
            cause = "crash"
        if cause is not None:
            if cause == "hang":
                self.hangs_detected += 1
            exitcode = self._reap(w)
            reply = self._replay_wave(w, count, cause, exitcode)
        if reply[0] == "error":
            raise ShardWorkerError(
                f"shard worker {w} failed while executing feeds "
                f"[{start}, {start + count}): {reply[1]}",
                worker=w, cause="exec",
            )
        _, served, copied = reply
        self.bytes_copied_last_run += copied
        for i in range(served):
            _, outs = self._rings[w][i]
            outputs[start + i] = [np.array(v) for v in outs]


def _cleanup(shms, procs, conns) -> None:
    """Best-effort teardown shared by close() and the GC finalizer."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except Exception:
            pass
    for proc in procs:
        proc.join(timeout=2)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=2)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    for shm in shms:
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass
