"""Windowed sampling and the two estimators every timed metric uses.

The sandbox this benchmark was sized on has noise phases lasting seconds
that inflate CPU and wall time alike, so a plain median over a run moves
with how much of the run a phase covered.  A run is therefore cut into
short windows; inside a window the workload's timers are sampled
round-robin, so all of them see the same machine phases, and each window
yields one per-call median per timer.

* ``quiet``  — the first decile of the window medians: the cost on a quiet
  machine.  For in-process, single-thread timers, where noise only adds.
* ``median`` — the median of the window medians.  For anything that crosses
  the event loop, a dispatch thread or a worker process, where noise is
  two-sided.

All durations are seconds; a rate is derived from the duration estimate, so
the quiet decile of a duration is the quiet (ninth) decile of its rate.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict
from collections.abc import Callable, Sequence

ESTIMATORS = ("quiet", "median")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and the third quartile (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def estimate(window_values: Sequence[float], estimator: str) -> float:
    if estimator == "quiet":
        return percentile(window_values, 0.10)
    if estimator == "median":
        return statistics.median(window_values)
    raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")


def timed(fn: Callable[[], object], reps: int, out: list) -> None:
    """Append ``reps`` per-call durations of ``fn`` to ``out``."""
    clock = time.perf_counter
    for _ in range(reps):
        t0 = clock()
        fn()
        out.append(clock() - t0)


class Sampler:
    """Round-robin sampling of named timers inside fixed-length windows.

    ``run(seconds, round_fn)`` calls ``round_fn(buf)`` until the run is
    over; ``round_fn`` appends durations to ``buf[name]``.  ``window_fn``,
    if given, runs once at the start of every window (the machine
    references).  GC is collected between windows and disabled inside them.
    """

    def __init__(self, window_s: float = 0.4) -> None:
        self.window_s = window_s
        #: name -> one list of durations per window
        self.samples: dict[str, list[list[float]]] = defaultdict(list)

    def run(
        self, seconds: float, round_fn: Callable[[dict], None],
        window_fn: "Callable[[dict], None] | None" = None,
    ) -> None:
        clock = time.perf_counter
        end = clock() + seconds
        gc_was_enabled = gc.isenabled()
        try:
            while clock() < end:
                gc.collect()
                gc.disable()
                buf: dict[str, list[float]] = defaultdict(list)
                window_end = min(clock() + self.window_s, end)
                if window_fn is not None:
                    window_fn(buf)
                while True:
                    round_fn(buf)
                    if clock() >= window_end:
                        break
                gc.enable()
                for name, durations in buf.items():
                    self.samples[name].append(durations)
        finally:
            if gc_was_enabled:
                gc.enable()

    # -- read-out ---------------------------------------------------------------

    def window_medians(self, name: str) -> list[float]:
        return [statistics.median(w) for w in self.samples[name] if w]

    def window_percentiles(self, name: str, q: float) -> list[float]:
        return [percentile(w, q) for w in self.samples[name] if w]

    def seconds(self, name: str, estimator: str) -> float:
        """The duration estimate of one timer."""
        return estimate(self.window_medians(name), estimator)

    def spread(self, name: str, estimator: str) -> dict:
        """The fields every reported value carries next to it."""
        medians = self.window_medians(name)
        flat = [d for w in self.samples[name] for d in w]
        return {
            "seconds": estimate(medians, estimator),
            "estimator": estimator,
            "n_windows": len(medians),
            "n_samples": len(flat),
            "window_iqr_seconds": iqr(medians),
            "global_median_seconds": statistics.median(flat),
        }


def quiet_share(window_values: Sequence[float], tolerance: float = 0.10) -> float:
    """Share of windows within ``tolerance`` of the quiet decile — how much
    of the run the machine was quiet, read off a timer that does not depend
    on the program (the sgemm machine reference)."""
    if not window_values:
        return 0.0
    floor = percentile(window_values, 0.10)
    return sum(v <= floor * (1.0 + tolerance) for v in window_values) / len(
        window_values
    )


def bin_by_time(
    events: Sequence[tuple[float, float]], start: float, end: float, window_s: float
) -> list[list[float]]:
    """Group ``(timestamp, value)`` events into consecutive windows of
    ``window_s`` covering [start, end); a trailing partial window is
    dropped."""
    n = int((end - start) / window_s)
    bins: list[list[float]] = [[] for _ in range(n)]
    for stamp, value in events:
        idx = int((stamp - start) / window_s)
        if 0 <= idx < n:
            bins[idx].append(value)
    return bins
