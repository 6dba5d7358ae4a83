"""The serve bench: coalesced serving vs one-request-at-a-time.

One function, :func:`serve_bench`, drives a dispatch-bound workload (a
chain of small GEMMs — the regime
where per-request overhead dominates and coalescing pays) through two
configurations of the same :class:`~repro.serve.Server`:

* **sequential baseline** — a closed loop with ``concurrency=1`` and a
  ``max_wave=1`` coalescer (flush on submit): every request travels
  the full serve path alone and pays the whole dispatch overhead
  itself.  This is the "serve without coalescing" number.
* **coalesced** — a closed loop of ``concurrency`` clients: each
  finishing wave is refilled by the clients it just answered, so waves
  hold ``min(concurrency, max_wave)`` requests and the per-wave
  overhead amortizes across them.

The comparison is deliberately *within the serving stack* (not against
direct compiled calls): both sides pay admission, coalescing, the
executor hop and the result fan-out, so the measured ratio isolates
what wave formation buys — and stays meaningful on a single-core CI
runner, where cross-process sharding cannot add parallel speedup.

Numbers are returned as a flat ``serve_*`` dict, printed (and with
``--json`` written) by ``laab serve-bench``.
"""

from __future__ import annotations

import asyncio
import dataclasses

from ..api import Options
from ..tensor import random_general
from .admission import AdmissionConfig
from .coalesce import CoalesceConfig
from .loadgen import LoadReport, closed_loop
from .server import Server

__all__ = ["ServeBenchResult", "serve_bench"]


@dataclasses.dataclass(frozen=True)
class ServeBenchResult:
    """Everything one serve-bench run produced."""

    #: Flat ``serve_*`` keys.
    numbers: dict
    sequential: LoadReport
    coalesced: LoadReport
    #: ``server.stats().render()`` of the coalesced server, post-run.
    stats_render: str

    def render(self) -> str:
        n = self.numbers
        lines = [
            "== serve bench: sequential baseline (concurrency 1) ==",
            self.sequential.render(),
            "",
            f"== serve bench: coalesced (concurrency "
            f"{n['serve_concurrency']}) ==",
            self.coalesced.render(),
            "",
            f"coalescing speedup: {n['serve_coalescing_speedup']:.2f}x "
            f"({n['serve_sequential_rps']:,.0f} -> "
            f"{n['serve_throughput_rps']:,.0f} req/s)",
            f"wave occupancy: mean {n['serve_wave_occupancy_mean']:.2f} | "
            f"max {n['serve_wave_occupancy_max']}",
            f"latency: p50 {n['serve_p50_latency_seconds'] * 1e3:.3f} ms | "
            f"p99 {n['serve_p99_latency_seconds'] * 1e3:.3f} ms | "
            f"p999 {n['serve_p999_latency_seconds'] * 1e3:.3f} ms",
            "",
            "== coalesced server stats ==",
            self.stats_render,
        ]
        return "\n".join(lines)


def _workload(loops: int):
    """A dispatch-bound chain of small GEMMs, as serve feeds."""
    feeds = [random_general(16, seed=s) for s in (1, 2, 3)]

    def model(a, b, c):
        acc = a
        for _ in range(loops):
            acc = (acc @ b + c - a) @ a.T
        return acc + acc.T

    return model, feeds


def serve_bench(
    *,
    requests: int = 256,
    concurrency: int = 8,
    shards: int | None = None,
    max_wave: int = 8,
    max_delay: float = 0.002,
    max_inflight: int = 256,
    loops: int = 12,
) -> ServeBenchResult:
    """Run the sequential-vs-coalesced comparison; see the module doc.

    ``shards=None`` (or ``0``) keeps wave execution in-process;
    ``shards=N`` dispatches waves through N worker processes.  Both
    servers — baseline and coalesced — get identical Options, so the
    ratio never mixes engine configurations.
    """
    if requests < 2 * concurrency:
        raise ValueError(
            f"requests ({requests}) should be >= 2x concurrency "
            f"({concurrency}) for waves to reach steady state"
        )
    options = Options(
        fusion=True,
        arena="preallocated",
        shards=shards if shards else None,
    )
    admission = AdmissionConfig(max_inflight=max_inflight)
    model, feeds = _workload(loops)

    async def timed_run(concurrency_: int, coalesce: CoalesceConfig):
        async with Server(
            options, admission=admission, coalesce=coalesce,
        ) as server:
            # Warm outside the timed loop: trace + compile + (sharded)
            # pool spawn + arena warmup all happen on the first wave.
            await server.submit(model, feeds)
            report = await closed_loop(
                server, model, feeds,
                concurrency=concurrency_, requests=requests,
            )
            report.metrics = server.metrics.snapshot()
            stats_render = server.stats().render()
        return report, stats_render

    async def main():
        # Baseline: one client, waves of one, flushed on submit — the
        # serve path with coalescing switched off, not slowed down.
        sequential, _ = await timed_run(
            1, CoalesceConfig(max_wave=1, max_delay=0.0)
        )
        coalesced, stats_render = await timed_run(
            concurrency,
            CoalesceConfig(max_wave=max_wave, max_delay=max_delay),
        )
        return sequential, coalesced, stats_render

    sequential, coalesced, stats_render = asyncio.run(main())

    metrics = coalesced.metrics
    # The warm request adds one occupancy-1 wave to the metrics; report
    # occupancy over the timed waves only.
    waves = metrics["waves"] - 1
    occupancy_mean = (
        (metrics["wave_occupancy"]["mean"] * metrics["waves"] - 1) / waves
        if waves > 0 else 0.0
    )
    numbers = {
        "serve_requests": requests,
        "serve_concurrency": concurrency,
        "serve_shards": shards or 0,
        "serve_max_wave": max_wave,
        "serve_max_delay_seconds": max_delay,
        "serve_sequential_rps": sequential.throughput_rps,
        "serve_throughput_rps": coalesced.throughput_rps,
        "serve_coalescing_speedup": (
            coalesced.throughput_rps / sequential.throughput_rps
            if sequential.throughput_rps else 0.0
        ),
        "serve_waves": waves,
        "serve_wave_occupancy_mean": occupancy_mean,
        "serve_wave_occupancy_max": metrics["wave_occupancy"]["max"],
        "serve_p50_latency_seconds": metrics["latency"]["p50_seconds"],
        "serve_p99_latency_seconds": metrics["latency"]["p99_seconds"],
        "serve_p999_latency_seconds": metrics["latency"]["p999_seconds"],
        "serve_queue_depth_high_water": metrics["queue_depth_high_water"],
    }
    return ServeBenchResult(
        numbers=numbers,
        sequential=sequential,
        coalesced=coalesced,
        stats_render=stats_render,
    )
