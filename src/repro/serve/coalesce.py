"""Request coalescing: independent submissions → shared-memory feed waves.

The sharded runtime is fastest when it is handed *many feeds at once* —
``ShardPool.run`` amortizes one pipe round-trip per worker over a whole
ring of entries, and even the in-process batch path amortizes the
executor hop.  Independent callers don't arrive as batches, though; they
arrive one ``submit`` at a time.  The :class:`Coalescer` closes that
gap:

* every request lands in a per-key queue — the key carries the plan
  identity and the feed shapes/dtypes, so only *compatible* requests
  (same compiled function, same signature, same tenant session) ever
  share a wave;
* the flush rule is work-conserving — a request never waits for
  companions, only for the executor.  A queue whose key has **no wave
  in flight** flushes on the next event-loop turn (so everything
  submitted in the same turn still shares one wave); a queue that forms
  **behind a running wave** of its key is flushed by that wave the
  moment it finishes.  Batching is therefore self-clocking: under light
  load waves are singletons and latency tracks execution time, under
  heavy load queues build behind the running wave and occupancy rises
  by itself;
* ``max_wave`` caps occupancy (a queue that reaches it flushes at once,
  busy key or not), and the ``max_delay`` timer stays armed behind
  every queue as the upper bound: it fires only when the wave ahead
  outlives it, cutting the backlog into a wave that parks on the
  per-key lock, and it is where a queued member's deadline is honoured;
* a flush dispatches *one* wave through the supplied async ``dispatch``
  callable and fans the per-request results back out to each caller's
  future.  Waves of the same key serialize (a :class:`ShardPool` serves
  one run at a time); different keys dispatch concurrently.

Cancellation is first-class: a request whose future is cancelled while
queued is dropped at flush time (and again at dispatch time, after the
per-key serialization wait) — it neither occupies wave slots nor
receives results.

Deadlines are first-class too: a request queued with ``expires_at``
pulls the flush timer forward so a queue held behind a running wave is
flushed **no later than its earliest member deadline**, and a member
whose deadline has already passed at flush (or after the per-key
serialization wait) resolves with
:class:`~repro.serve.admission.ServeDeadlineError` without poisoning
the rest of the wave — the survivors still dispatch and get results.
"""

from __future__ import annotations

import asyncio
import dataclasses
from collections import defaultdict
from collections.abc import Callable, Hashable

from .admission import ServeDeadlineError

__all__ = ["CoalesceConfig", "Coalescer"]


@dataclasses.dataclass(frozen=True)
class CoalesceConfig:
    """Wave-formation knobs.

    Attributes
    ----------
    max_wave:
        Occupancy cap: a queue flushes the moment it holds this many
        requests.  Bounded above only by what the dispatch target
        digests well (a :class:`~repro.runtime.ShardPool` takes any
        size and chunks it into rings itself).
    max_delay:
        The longest a request may sit *unflushed* behind a running wave
        of its key, in seconds.  Nothing waits this long for
        companions: an idle key flushes on the next loop turn and a
        finishing wave flushes what queued behind it, so the timer
        fires only when a wave outlives ``max_delay`` — it then bounds
        the size of the backlog's pieces, not latency (p50 tracks the
        wave service time at every load).
    """

    max_wave: int = 8
    max_delay: float = 0.002

    def validate(self) -> None:
        if not isinstance(self.max_wave, int) or self.max_wave < 1:
            raise ValueError(
                f"max_wave must be an int >= 1, got {self.max_wave!r}"
            )
        if not (self.max_delay >= 0.0):
            raise ValueError(
                f"max_delay must be >= 0, got {self.max_delay!r}"
            )


@dataclasses.dataclass
class _Queued:
    """One request parked in a wave queue."""

    item: object
    future: asyncio.Future
    enqueued_at: float
    #: Absolute ``loop.time()`` after which the request must resolve
    #: with :class:`ServeDeadlineError` instead of dispatching.
    expires_at: float | None = None


class Coalescer:
    """Per-key request queues flushed into dispatchable waves.

    Parameters
    ----------
    dispatch:
        ``async dispatch(key, items) -> sequence of results`` — executes
        one wave and returns per-item results in order.  An exception
        fails every request of the wave (requests are independent
        retries for the caller, not for the wave).
    config:
        :class:`CoalesceConfig` flush thresholds.
    metrics:
        Optional :class:`~repro.serve.metrics.ServeMetrics`; receives
        wave occupancy, queue-wait latencies and the wave counter.
    """

    def __init__(
        self,
        dispatch: Callable,
        *,
        config: CoalesceConfig | None = None,
        metrics=None,
    ) -> None:
        self.config = config if config is not None else CoalesceConfig()
        self.config.validate()
        self._dispatch = dispatch
        self.metrics = metrics
        self._queues: dict[Hashable, list[_Queued]] = {}
        self._timers: dict[Hashable, asyncio.TimerHandle] = {}
        #: Absolute fire time of each armed timer, so a member with an
        #: earlier deadline can pull the flush forward.
        self._timer_when: dict[Hashable, float] = {}
        #: Serializes waves of one key (one ShardPool serves one run at
        #: a time); created lazily so idle keys cost nothing.
        self._locks: "defaultdict[Hashable, asyncio.Lock]" = defaultdict(
            asyncio.Lock
        )
        #: Live wave tasks and their keys — strong references (the loop
        #: keeps only weak ones) and the thing ``drain`` awaits.
        self._tasks: dict[asyncio.Task, Hashable] = {}
        #: Keys whose queue will be flushed without the timer, mapped to
        #: their number of in-flight waves: the last wave to finish
        #: flushes what queued behind it.  An entry of 0 is an idle key
        #: with its next-turn flush already scheduled.
        self._busy: dict[Hashable, int] = {}

    # -- introspection -----------------------------------------------------------

    def pending(self, key: Hashable | None = None) -> int:
        """Queued-but-not-yet-flushed requests (for one key or all)."""
        if key is not None:
            return len(self._queues.get(key, ()))
        return sum(len(q) for q in self._queues.values())

    @property
    def inflight_waves(self) -> int:
        return len(self._tasks)

    # -- the submit/flush cycle --------------------------------------------------

    def submit(self, key: Hashable, item: object, *,
               expires_at: float | None = None) -> asyncio.Future:
        """Queue ``item`` under ``key``; the future resolves to its result.

        Must be called on the event loop.  Flushes immediately at
        ``max_wave``.  Otherwise an idle key (no wave in flight)
        flushes on the next loop turn, and a busy one leaves the queue
        to its finishing wave; behind both, the queue's first request
        arms the delay timer, and any request's ``expires_at``
        (absolute ``loop.time()``) pulls the timer forward so a queued
        member resolves no later than its deadline.
        """
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        queue = self._queues.setdefault(key, [])
        queue.append(_Queued(item, fut, loop.time(), expires_at))
        if len(queue) >= self.config.max_wave:
            self.flush(key)
            return fut
        if key not in self._busy:
            # Deferred one turn, never flushed here: the clients of a
            # finished wave resubmit one by one in a single turn, and
            # the first of them must not leave alone.
            self._busy[key] = 0
            loop.call_soon(self._flush_idle, key)
        fire_at = queue[0].enqueued_at + self.config.max_delay
        if expires_at is not None:
            fire_at = min(fire_at, expires_at)
        current = self._timer_when.get(key)
        if current is None or fire_at < current:
            old = self._timers.pop(key, None)
            if old is not None:
                old.cancel()
            self._timers[key] = loop.call_at(fire_at, self.flush, key)
            self._timer_when[key] = fire_at
        return fut

    def _expire(self, q: _Queued) -> None:
        q.future.set_exception(ServeDeadlineError(
            "request expired in the coalescer before its wave dispatched"
        ))
        if self.metrics is not None:
            self.metrics.deadline_expired += 1

    def flush(self, key: Hashable | None = None) -> None:
        """Dispatch the queued wave for ``key`` now (all keys if None)."""
        if key is None:
            for k in list(self._queues):
                self.flush(k)
            return
        timer = self._timers.pop(key, None)
        self._timer_when.pop(key, None)
        if timer is not None:
            timer.cancel()
        batch = self._queues.pop(key, None)
        if not batch:
            return
        now = asyncio.get_running_loop().time()
        live = []
        for q in batch:
            if q.future.done():
                continue
            if q.expires_at is not None and now >= q.expires_at:
                self._expire(q)  # resolved alone; the wave stays clean
            else:
                live.append(q)
        if not live:
            return
        task = asyncio.get_running_loop().create_task(
            self._run_wave(key, live)
        )
        self._tasks[task] = key
        self._busy[key] = self._busy.get(key, 0) + 1
        task.add_done_callback(self._wave_done)

    def _flush_idle(self, key: Hashable) -> None:
        """The next-turn flush ``submit`` scheduled for an idle key."""
        if self._busy.get(key) == 0:  # no wave started in between
            del self._busy[key]
            self.flush(key)

    def _wave_done(self, task: asyncio.Task) -> None:
        """Hand the key on: the last in-flight wave of a key flushes
        whatever queued behind it.  Runs however the wave ended —
        result, exception or cancellation."""
        key = self._tasks.pop(task)
        left = self._busy[key] - 1
        if left:
            self._busy[key] = left
        else:
            del self._busy[key]
            self.flush(key)

    async def _run_wave(self, key: Hashable, batch: list[_Queued]) -> None:
        async with self._locks[key]:
            # Re-filter after the serialization wait: a request can be
            # cancelled — or expire — between flush and the previous
            # wave of its key finishing.
            now = asyncio.get_running_loop().time()
            live = []
            cancelled = 0
            for q in batch:
                if q.future.done():
                    cancelled += 1
                elif q.expires_at is not None and now >= q.expires_at:
                    self._expire(q)
                else:
                    live.append(q)
            if self.metrics is not None:
                self.metrics.cancelled += cancelled
            if not live:
                return
            if self.metrics is not None:
                self.metrics.waves += 1
                self.metrics.wave_occupancy.record(len(live))
                for q in live:
                    self.metrics.queue_wait.record(now - q.enqueued_at)
            try:
                results = await self._dispatch(key, [q.item for q in live])
            except asyncio.CancelledError:
                for q in live:
                    q.future.cancel()
                raise
            except Exception as exc:  # noqa: BLE001 - fanned out to callers
                for q in live:
                    if not q.future.done():
                        q.future.set_exception(exc)
                return
            results = list(results)
            if len(results) != len(live):  # pragma: no cover - dispatch bug
                exc = RuntimeError(
                    f"dispatch returned {len(results)} results for a wave "
                    f"of {len(live)}"
                )
                for q in live:
                    if not q.future.done():
                        q.future.set_exception(exc)
                return
            for q, result in zip(live, results):
                if not q.future.done():
                    q.future.set_result(result)

    async def drain(self) -> None:
        """Flush every queue and wait for all in-flight waves to finish."""
        self.flush()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
            # A finishing wave may have been followed by late flushes.
            self.flush()
