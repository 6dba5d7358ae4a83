"""Load generators: open- and closed-loop arrival processes.

The two canonical ways to drive a server, with opposite failure
behaviours — both needed to characterize a serving stack honestly:

* **closed loop** (:func:`closed_loop`): ``concurrency`` clients each
  submit, await the result, and submit again.  Offered load adapts to
  service rate, so the system is never overloaded by construction —
  this measures *sustained throughput* and the latency of a busy but
  stable server.  It is also the shape that fills coalesced waves: the
  clients of a finished wave resubmit together, so every wave holds
  ``min(concurrency, max_wave)`` requests — the coalescer flushes what
  queued behind a wave the moment it finishes, whether or not that
  reaches ``max_wave``.
* **open loop** (:func:`open_loop`): requests arrive on a timer at
  ``rate`` per second — uniform spacing or a Poisson process —
  regardless of completions, exactly like independent external users.
  When the arrival rate exceeds capacity the queue grows without bound,
  which is precisely what admission control exists for: the report
  counts rejections (:class:`~repro.serve.ServeOverloadError`)
  separately from failures, so the bench can show load shedding
  working.

Both return a :class:`LoadReport` carrying counts, wall-clock
throughput and the server's metrics snapshot at the end of the run.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
from collections.abc import Callable, Sequence

from .admission import ServeOverloadError

__all__ = ["LoadReport", "closed_loop", "open_loop"]


@dataclasses.dataclass
class LoadReport:
    """Outcome of one load-generator run."""

    mode: str
    requests: int
    completed: int
    rejected: int
    failed: int
    elapsed_seconds: float
    #: Completions per wall-clock second.
    throughput_rps: float
    #: Open loop only: the configured arrival rate.
    offered_rps: float | None = None
    #: ``server.metrics.snapshot()`` taken when the run finished.
    metrics: dict | None = None

    def render(self) -> str:
        lines = [
            f"{self.mode} load: {self.completed}/{self.requests} completed "
            f"({self.rejected} rejected, {self.failed} failed) in "
            f"{self.elapsed_seconds:.3f}s",
            f"throughput: {self.throughput_rps:,.0f} req/s"
            + (f" (offered {self.offered_rps:,.0f} req/s)"
               if self.offered_rps else ""),
        ]
        return "\n".join(lines)


def _feeds_fn(feeds) -> Callable[[int], Sequence]:
    """Normalize the feeds argument: a callable ``i -> feed list`` is
    used as-is; a plain feed list is reused for every request."""
    if callable(feeds):
        return feeds
    feed_list = list(feeds)
    return lambda i: feed_list


async def closed_loop(
    server,
    fn: Callable,
    feeds,
    *,
    concurrency: int = 4,
    requests: int = 64,
    tenant: str = "default",
) -> LoadReport:
    """``concurrency`` clients submitting back-to-back until ``requests``
    total submissions have been made."""
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency!r}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests!r}")
    feeds_for = _feeds_fn(feeds)
    counters = {"next": 0, "completed": 0, "rejected": 0, "failed": 0}

    async def client() -> None:
        while True:
            i = counters["next"]
            if i >= requests:
                return
            counters["next"] = i + 1
            try:
                await server.submit(fn, feeds_for(i), tenant=tenant)
                counters["completed"] += 1
            except ServeOverloadError:
                counters["rejected"] += 1
            except Exception:
                counters["failed"] += 1
                raise

    loop = asyncio.get_running_loop()
    start = loop.time()
    await asyncio.gather(*(client() for _ in range(min(concurrency,
                                                       requests))))
    elapsed = loop.time() - start
    return LoadReport(
        mode="closed-loop",
        requests=requests,
        completed=counters["completed"],
        rejected=counters["rejected"],
        failed=counters["failed"],
        elapsed_seconds=elapsed,
        throughput_rps=counters["completed"] / elapsed if elapsed else 0.0,
        metrics=server.metrics.snapshot(),
    )


async def open_loop(
    server,
    fn: Callable,
    feeds,
    *,
    rate: float,
    requests: int = 64,
    process: str = "poisson",
    seed: int = 0,
    tenant: str = "default",
) -> LoadReport:
    """Timer-driven arrivals at ``rate``/s, independent of completions.

    ``process="poisson"`` draws exponential inter-arrival gaps from a
    seeded RNG (reproducible bursts); ``"uniform"`` spaces arrivals
    evenly.  Every arrival is submitted as its own task; the run ends
    when all ``requests`` arrivals have resolved (completed, rejected,
    or failed).
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate!r}")
    if process not in ("poisson", "uniform"):
        raise ValueError(
            f"process must be 'poisson' or 'uniform', got {process!r}"
        )
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests!r}")
    feeds_for = _feeds_fn(feeds)
    rng = random.Random(seed)
    counters = {"completed": 0, "rejected": 0, "failed": 0}

    async def one(i: int) -> None:
        try:
            await server.submit(fn, feeds_for(i), tenant=tenant)
            counters["completed"] += 1
        except ServeOverloadError:
            counters["rejected"] += 1
        except Exception:
            counters["failed"] += 1

    loop = asyncio.get_running_loop()
    start = loop.time()
    next_at = start
    tasks = []
    for i in range(requests):
        gap = rng.expovariate(rate) if process == "poisson" else 1.0 / rate
        delay = next_at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(i)))
        next_at += gap
    await asyncio.gather(*tasks)
    elapsed = loop.time() - start
    return LoadReport(
        mode=f"open-loop/{process}",
        requests=requests,
        completed=counters["completed"],
        rejected=counters["rejected"],
        failed=counters["failed"],
        elapsed_seconds=elapsed,
        throughput_rps=counters["completed"] / elapsed if elapsed else 0.0,
        offered_rps=rate,
        metrics=server.metrics.snapshot(),
    )
