"""repro.serve — the async serving front-end over the compiled runtime.

PRs 1–5 built the engine: compile-once plans, fused allocation-free
arenas, alias-else-copy feed binding and GIL-free multi-process
sharding.  This package is the *service* on top — the layer that turns
independent caller requests into the feed waves that engine is fast at:

``server``     :class:`Server` — asyncio front-end owning per-tenant
               :class:`~repro.api.Session` s; one entry point,
               ``await server.submit(fn, feeds, tenant=...)``.
``coalesce``   :class:`Coalescer` — per-plan request queues that batch
               compatible in-flight requests (same compiled function +
               feed signature) into waves: flushed on the next loop
               turn when the key's executor is idle, by the finishing
               wave when it is not, capped at max-wave-size, and
               dispatched off the event loop.
``admission``  :class:`AdmissionController` — bounded in-flight depth
               (global and per-tenant) with await-until-slot
               backpressure or explicit :class:`ServeOverloadError`
               load shedding.
``metrics``    :class:`ServeMetrics` — streaming latency histograms
               (p50/p99/p999 over fixed log-spaced buckets), queue
               wait, wave occupancy and queue-depth gauges.
``loadgen``    :func:`closed_loop` / :func:`open_loop` — the two
               canonical arrival processes, for the serve bench and the
               ``laab serve-bench`` CLI.

Quickstart::

    import asyncio
    from repro import api, serve, tensor as T

    A, B, C = (T.random_general(64, seed=s) for s in (1, 2, 3))

    def model(a, b, c):
        return (a @ b + c) @ a.T

    async def main():
        async with serve.Server(
            api.Options(fusion=True, arena="preallocated", shards=2),
            coalesce=serve.CoalesceConfig(max_wave=8, max_delay=0.002),
            admission=serve.AdmissionConfig(max_inflight=64),
        ) as server:
            report = await serve.closed_loop(
                server, model, [A, B, C], concurrency=8, requests=256
            )
            print(report.render())
            print(server.metrics.render())

    asyncio.run(main())
"""

from .admission import (
    AdmissionConfig,
    AdmissionController,
    ServeDeadlineError,
    ServeOverloadError,
)
from .breaker import BreakerConfig, CircuitBreaker
from .coalesce import CoalesceConfig, Coalescer
from .loadgen import LoadReport, closed_loop, open_loop
from .metrics import Distribution, Gauge, LatencyHistogram, ServeMetrics
from .server import Server, ServerStats

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "BreakerConfig",
    "CircuitBreaker",
    "CoalesceConfig",
    "Coalescer",
    "Distribution",
    "Gauge",
    "LatencyHistogram",
    "LoadReport",
    "Server",
    "ServerStats",
    "ServeDeadlineError",
    "ServeMetrics",
    "ServeOverloadError",
    "closed_loop",
    "open_loop",
]
