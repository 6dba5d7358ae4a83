"""Load generators: closed-loop clients, open-loop arrivals, shedding.

Contracts under test:

* closed loop completes exactly ``requests`` submissions, every result
  correct, and with ``concurrency >= max_wave`` coalesces waves above
  occupancy 1;
* open loop submits on the arrival timer (Poisson and uniform), the
  report separates rejections from failures, and a seeded run is
  deterministic in its arrival schedule;
* admission shedding shows up as ``rejected`` in the report, not as an
  exception out of the generator;
* ``serve_bench`` (what ``laab serve-bench`` prints) completes both of
  its runs and reports structurally sane numbers.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import serve
from repro.tensor import random_general


def run(coro):
    return asyncio.run(coro)


def model(a, b):
    return a @ b + a


@pytest.fixture()
def feeds():
    return [random_general(8, seed=s) for s in (1, 2)]


class TestClosedLoop:
    def test_completes_all_requests(self, feeds):
        async def main():
            async with serve.Server(
                coalesce=serve.CoalesceConfig(max_wave=4, max_delay=0.002)
            ) as server:
                report = await serve.closed_loop(
                    server, model, feeds, concurrency=4, requests=24
                )
                assert report.mode == "closed-loop"
                assert report.completed == 24
                assert report.rejected == 0 and report.failed == 0
                assert report.throughput_rps > 0
                assert report.metrics["completed"] == 24
                # Concurrency >= max_wave fills waves above occupancy 1.
                assert report.metrics["wave_occupancy"]["mean"] > 1.0
                text = report.render()
                assert "24/24 completed" in text

        run(main())

    def test_concurrency_capped_by_requests(self, feeds):
        async def main():
            async with serve.Server() as server:
                report = await serve.closed_loop(
                    server, model, feeds, concurrency=64, requests=3
                )
                assert report.completed == 3

        run(main())

    def test_callable_feeds(self, feeds):
        async def main():
            calls = []

            def feeds_for(i):
                calls.append(i)
                return feeds

            async with serve.Server() as server:
                await serve.closed_loop(
                    server, model, feeds_for, concurrency=2, requests=6
                )
                assert sorted(calls) == list(range(6))

        run(main())

    def test_validation(self, feeds):
        async def main():
            async with serve.Server() as server:
                with pytest.raises(ValueError, match="concurrency"):
                    await serve.closed_loop(
                        server, model, feeds, concurrency=0
                    )
                with pytest.raises(ValueError, match="requests"):
                    await serve.closed_loop(
                        server, model, feeds, requests=0
                    )

        run(main())


class TestOpenLoop:
    def test_poisson_arrivals_complete(self, feeds):
        async def main():
            async with serve.Server() as server:
                report = await serve.open_loop(
                    server, model, feeds, rate=2000.0, requests=16, seed=3
                )
                assert report.mode == "open-loop/poisson"
                assert report.completed == 16
                assert report.offered_rps == 2000.0
                assert "offered" in report.render()

        run(main())

    def test_uniform_arrivals_pace_the_run(self, feeds):
        async def main():
            async with serve.Server() as server:
                report = await serve.open_loop(
                    server, model, feeds, rate=200.0, requests=8,
                    process="uniform",
                )
                # 8 arrivals at 5 ms spacing: the run can't finish much
                # faster than the 7 inter-arrival gaps.
                assert report.elapsed_seconds >= 0.030
                assert report.completed == 8

        run(main())

    def test_overload_counts_rejections(self, feeds):
        async def main():
            async with serve.Server(
                admission=serve.AdmissionConfig(max_inflight=1,
                                                policy="reject"),
                coalesce=serve.CoalesceConfig(max_wave=1, max_delay=0.0),
            ) as server:
                # Arrivals far above capacity with a depth-1 reject
                # policy: most requests shed, none crash the generator.
                report = await serve.open_loop(
                    server, model, feeds, rate=100000.0, requests=32,
                    seed=1,
                )
                assert report.completed + report.rejected == 32
                assert report.rejected > 0
                assert report.failed == 0
                assert report.metrics["rejected"] == report.rejected

        run(main())

    def test_validation(self, feeds):
        async def main():
            async with serve.Server() as server:
                with pytest.raises(ValueError, match="rate"):
                    await serve.open_loop(server, model, feeds, rate=0.0)
                with pytest.raises(ValueError, match="process"):
                    await serve.open_loop(
                        server, model, feeds, rate=1.0, process="bursty"
                    )
                with pytest.raises(ValueError, match="requests"):
                    await serve.open_loop(
                        server, model, feeds, rate=1.0, requests=0
                    )

        run(main())


class TestServeBench:
    """The structural half of the retired ``benchmarks/test_serve_bench``
    (its throughput-ratio assert is ``BENCHMARK.json``'s business)."""

    def test_both_runs_complete_with_sane_numbers(self):
        from repro.serve.bench import serve_bench

        result = serve_bench(requests=48, concurrency=4, max_wave=4, loops=2)
        for report in (result.sequential, result.coalesced):
            assert report.completed == 48
            assert report.rejected == 0 and report.failed == 0
        n = result.numbers
        assert n["serve_requests"] == 48 and n["serve_shards"] == 0
        assert 1.0 < n["serve_wave_occupancy_mean"]
        assert n["serve_wave_occupancy_max"] <= n["serve_max_wave"] == 4
        assert 0.0 < n["serve_p50_latency_seconds"] \
            <= n["serve_p99_latency_seconds"] \
            <= n["serve_p999_latency_seconds"]
        # Closed-loop depth is bounded by the client count.
        assert n["serve_queue_depth_high_water"] <= 4
        assert "coalescing speedup" in result.render()
