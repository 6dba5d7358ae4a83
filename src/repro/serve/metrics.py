"""Serving metrics: streaming latency histograms and occupancy gauges.

The engine below already reports *throughput*-shaped numbers (exec
seconds per plan, batch seconds per wave).  A serving front-end is
judged on different axes — tail latency against an SLO, admission-queue
depth, and how full the coalesced waves actually run — and those need
streaming estimators that cost O(1) per request:

* :class:`LatencyHistogram` — fixed log-spaced buckets (default 1 µs …
  120 s, ×1.25 per bucket, ~84 buckets).  Recording is an index
  computation and an increment; quantiles (p50/p99/p999) read the
  cumulative counts and interpolate geometrically inside the winning
  bucket, clamped to the observed min/max so tiny samples don't report
  a bucket edge nobody measured.  Resolution is the bucket ratio
  (±~12%) — the right trade for an always-on estimator.
* :class:`Distribution` — exact counts over small integer values (wave
  occupancy: sizes are bounded by ``max_wave``, so a Counter is both
  exact and tiny).
* :class:`Gauge` — last value + high-water mark (admission queue depth).
* :class:`ServeMetrics` — the one bundle a :class:`~repro.serve.Server`
  owns: request/reject/cancel counters, end-to-end latency, coalesce
  queue wait, wave occupancy and queue depth, with ``snapshot()`` (flat
  dict, JSON-ready — what the serve bench reads) and ``render()`` (human table, printed by ``laab serve-bench``
  next to the session's plan-cache stats).

Everything takes a lock per record: recording happens on the event loop
*and* — for queue-wait — from coalescer wave tasks, and the bench reads
snapshots from the main thread while load generators run.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from collections import Counter

__all__ = [
    "Distribution",
    "Gauge",
    "LatencyHistogram",
    "ServeMetrics",
]


class LatencyHistogram:
    """Streaming histogram over fixed log-spaced buckets.

    Parameters
    ----------
    lo, hi:
        The bucketed range in seconds.  Values below ``lo`` land in the
        first bucket, values at or above ``hi`` in the overflow bucket;
        both still update min/max, so the clamped quantiles stay honest.
    ratio:
        Geometric growth per bucket — the histogram's relative
        resolution.
    """

    def __init__(self, lo: float = 1e-6, hi: float = 120.0,
                 ratio: float = 1.25) -> None:
        if not (0.0 < lo < hi):
            raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
        if ratio <= 1.0:
            raise ValueError(f"ratio must be > 1, got {ratio!r}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.ratio = float(ratio)
        self._log_ratio = math.log(ratio)
        n = int(math.ceil(math.log(hi / lo) / self._log_ratio))
        #: Upper bound of bucket ``i`` is ``lo * ratio**(i + 1)``; the
        #: last slot is the overflow bucket for values >= hi.
        self._counts = [0] * (n + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self._lock = threading.Lock()

    def _index(self, seconds: float) -> int:
        if seconds < self.lo:
            return 0
        i = int(math.log(seconds / self.lo) / self._log_ratio)
        return min(i, len(self._counts) - 1)

    def record(self, seconds: float) -> None:
        if seconds < 0.0:
            raise ValueError(f"latency must be >= 0, got {seconds!r}")
        with self._lock:
            self._counts[self._index(seconds)] += 1
            self.count += 1
            self.total += seconds
            if seconds < self.min:
                self.min = seconds
            if seconds > self.max:
                self.max = seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The latency at quantile ``q`` (0 < q <= 1), 0.0 when empty.

        Geometric midpoint-interpolation inside the winning bucket,
        clamped to the observed extremes — ``quantile(1.0)`` is exactly
        the recorded max.
        """
        if not (0.0 < q <= 1.0):
            raise ValueError(f"quantile must be in (0, 1], got {q!r}")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = q * self.count
            seen = 0
            for i, c in enumerate(self._counts):
                seen += c
                if seen >= rank:
                    # Bucket ``i`` spans [lo*ratio^i, lo*ratio^(i+1));
                    # bucket 0 also absorbs the underflow below ``lo``,
                    # the last bucket the overflow up to the seen max.
                    lo_edge = self.lo * self.ratio ** i if i else 0.0
                    hi_edge = self.lo * self.ratio ** (i + 1)
                    if i == len(self._counts) - 1:
                        hi_edge = max(self.max, lo_edge)
                    # Linear interpolation of the rank within the bucket.
                    frac = (rank - (seen - c)) / c
                    value = lo_edge + (hi_edge - lo_edge) * frac
                    return min(max(value, self.min), self.max)
            return self.max  # pragma: no cover - rank <= count always hits

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean_seconds": self.mean,
            "p50_seconds": self.p50,
            "p99_seconds": self.p99,
            "p999_seconds": self.p999,
            "max_seconds": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LatencyHistogram n={self.count} p50={self.p50:.3g}s "
            f"p99={self.p99:.3g}s>"
        )


class Distribution:
    """Exact distribution over small integers (wave occupancy)."""

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self.count = 0
        self.total = 0
        self.max = 0
        self._lock = threading.Lock()

    def record(self, value: int) -> None:
        with self._lock:
            self._counts[int(value)] += 1
            self.count += 1
            self.total += int(value)
            if value > self.max:
                self.max = int(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> int:
        if not (0.0 < q <= 1.0):
            raise ValueError(f"quantile must be in (0, 1], got {q!r}")
        with self._lock:
            if self.count == 0:
                return 0
            rank = q * self.count
            seen = 0
            for value in sorted(self._counts):
                seen += self._counts[value]
                if seen >= rank:
                    return value
            return self.max  # pragma: no cover

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "max": self.max,
        }


class Gauge:
    """Last-set value plus a high-water mark."""

    def __init__(self) -> None:
        self.value = 0
        self.high_water = 0
        self._lock = threading.Lock()

    def set(self, value: int) -> None:
        with self._lock:
            self.value = value
            if value > self.high_water:
                self.high_water = value


@dataclasses.dataclass
class ServeMetrics:
    """The metrics bundle one :class:`~repro.serve.Server` owns."""

    #: End-to-end request latency: admission wait + coalesce wait +
    #: wave execution + result delivery, measured inside ``submit``.
    latency: LatencyHistogram = dataclasses.field(
        default_factory=LatencyHistogram
    )
    #: Time a request sat in the coalescer before its wave dispatched:
    #: the time spent behind a running wave of its key (an idle key
    #: dispatches on the next loop turn, so it records ~0).
    queue_wait: LatencyHistogram = dataclasses.field(
        default_factory=LatencyHistogram
    )
    #: Requests per dispatched wave — >1 means coalescing is working.
    wave_occupancy: Distribution = dataclasses.field(
        default_factory=Distribution
    )
    #: Admitted-but-unfinished requests (set by the admission controller).
    queue_depth: Gauge = dataclasses.field(default_factory=Gauge)
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    cancelled: int = 0
    failed: int = 0
    waves: int = 0
    #: Requests resolved with :class:`ServeDeadlineError` — parked past
    #: their deadline in admission, or expired in the coalescer.
    deadline_expired: int = 0
    #: Circuit-breaker state transitions closed → open.
    breaker_trips: int = 0
    #: Requests shed because their (tenant, plan) breaker was open.
    breaker_shed: int = 0
    #: Failed-request causes: ``"shard_hang"``, ``"shard_crash"``,
    #: ``"deadline"``, or the exception type name.
    failure_causes: dict = dataclasses.field(default_factory=dict)

    def count_failure(self, cause: str) -> None:
        self.failure_causes[cause] = self.failure_causes.get(cause, 0) + 1

    def snapshot(self) -> dict:
        """Flat JSON-ready dict (the serve bench reports it under
        ``serve_*`` keys)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "failed": self.failed,
            "waves": self.waves,
            "deadline_expired": self.deadline_expired,
            "breaker_trips": self.breaker_trips,
            "breaker_shed": self.breaker_shed,
            "failure_causes": dict(self.failure_causes),
            "latency": self.latency.snapshot(),
            "queue_wait": self.queue_wait.snapshot(),
            "wave_occupancy": self.wave_occupancy.snapshot(),
            "queue_depth_high_water": self.queue_depth.high_water,
        }

    def render(self) -> str:
        """Human-readable block printed by ``laab serve-bench``."""
        lat, wait = self.latency, self.queue_wait
        lines = [
            f"requests: {self.completed} completed / {self.rejected} "
            f"rejected / {self.cancelled} cancelled / {self.failed} failed "
            f"(of {self.submitted} submitted)",
            f"latency:  p50 {lat.p50 * 1e3:.3f} ms | p99 "
            f"{lat.p99 * 1e3:.3f} ms | p999 {lat.p999 * 1e3:.3f} ms | "
            f"max {lat.max * 1e3:.3f} ms",
            f"queue:    wait p99 {wait.p99 * 1e3:.3f} ms | depth "
            f"high-water {self.queue_depth.high_water}",
            f"waves:    {self.waves} dispatched | occupancy mean "
            f"{self.wave_occupancy.mean:.2f} | max {self.wave_occupancy.max}",
        ]
        if self.deadline_expired or self.breaker_trips or self.breaker_shed:
            lines.append(
                f"faults:   {self.deadline_expired} deadline-expired | "
                f"{self.breaker_trips} breaker trip(s) | "
                f"{self.breaker_shed} shed by open breakers"
            )
        if self.failure_causes:
            causes = ", ".join(
                f"{cause}={count}"
                for cause, count in sorted(self.failure_causes.items())
            )
            lines.append(f"failures: {causes}")
        return "\n".join(lines)
