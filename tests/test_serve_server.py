"""The asyncio Server: submit → admission → coalesce → engine → Tensor.

Contracts under test:

* ``await server.submit(fn, feeds)`` returns bit-identical results to a
  direct compiled call, for single submissions and coalesced bursts;
* tenants get isolated sessions (separate plan caches and stats) built
  from the server's Options template;
* lifecycle: submit before start / after stop fails loudly, stop drains
  queued requests, stop is idempotent, a stopped server refuses restart;
* a wave-execution failure fails exactly the requests of that wave and
  is counted in metrics; the server keeps serving afterwards;
* ``Options(shards=N)`` dispatches waves through the multi-process
  pool, visible in the tenant session's sharding stats.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import api, serve
from repro.tensor import random_general


def run(coro):
    return asyncio.run(coro)


def model(a, b, c):
    return (a @ b + c) @ a.T


def reference(a, b, c):
    return (a.data @ b.data + c.data) @ a.data.T


@pytest.fixture()
def feeds():
    return [random_general(16, seed=s) for s in (1, 2, 3)]


class TestSubmit:
    def test_single_submit_matches_direct_call(self, feeds):
        async def main():
            async with serve.Server() as server:
                out = await server.submit(model, feeds)
                np.testing.assert_allclose(
                    out.data, reference(*feeds), rtol=1e-5
                )
                assert server.metrics.completed == 1
                assert server.metrics.waves == 1
                assert server.metrics.latency.count == 1

        run(main())

    def test_burst_coalesces_and_every_result_is_correct(self):
        async def main():
            all_feeds = [
                [random_general(16, seed=100 * i + s) for s in (1, 2, 3)]
                for i in range(8)
            ]
            async with serve.Server(
                coalesce=serve.CoalesceConfig(max_wave=8, max_delay=0.5)
            ) as server:
                outs = await asyncio.gather(
                    *(server.submit(model, f) for f in all_feeds)
                )
                for out, f in zip(outs, all_feeds):
                    np.testing.assert_allclose(
                        out.data, reference(*f), rtol=1e-5
                    )
                # One wave: the burst coalesced instead of running
                # request-at-a-time.
                assert server.metrics.waves == 1
                assert server.metrics.wave_occupancy.max == 8

        run(main())

    def test_submit_rejects_precompiled_fn(self, feeds):
        async def main():
            async with serve.Server() as server:
                compiled = server.session().compile(model)
                with pytest.raises(TypeError, match="plain Python function"):
                    await server.submit(compiled, feeds)

        run(main())

    def test_failing_wave_fails_those_requests_only(self, feeds):
        async def main():
            def bad(a, b, c):
                raise ValueError("tracing explodes")

            async with serve.Server() as server:
                with pytest.raises(ValueError, match="tracing explodes"):
                    await server.submit(bad, feeds)
                assert server.metrics.failed == 1
                # The server still serves good requests afterwards.
                out = await server.submit(model, feeds)
                np.testing.assert_allclose(
                    out.data, reference(*feeds), rtol=1e-5
                )

        run(main())


class TestTenancy:
    def test_tenants_get_isolated_sessions(self, feeds):
        async def main():
            async with serve.Server() as server:
                await server.submit(model, feeds, tenant="alice")
                await server.submit(model, feeds, tenant="bob")
                assert set(server.tenants) == {"alice", "bob"}
                assert server.session("alice") is not server.session("bob")
                # Each tenant traced its own plan.
                for tenant in ("alice", "bob"):
                    st = server.session(tenant).stats()
                    assert len(st.plans) == 1
                    assert st.plans[0].executions == 1

        run(main())

    def test_bad_tenant_name(self):
        async def main():
            async with serve.Server() as server:
                with pytest.raises(ValueError, match="tenant"):
                    server.session("")

        run(main())


class TestLifecycle:
    def test_submit_before_start_raises(self, feeds):
        async def main():
            server = serve.Server()
            with pytest.raises(RuntimeError, match="not running"):
                await server.submit(model, feeds)

        run(main())

    def test_submit_after_stop_raises(self, feeds):
        async def main():
            server = serve.Server()
            await server.start()
            await server.stop()
            with pytest.raises(RuntimeError, match="not running"):
                await server.submit(model, feeds)

        run(main())

    def test_stop_is_idempotent_and_blocks_restart(self):
        async def main():
            server = serve.Server()
            await server.start()
            await server.stop()
            await server.stop()
            with pytest.raises(RuntimeError, match="stopped"):
                await server.start()

        run(main())

    def test_stop_drains_queued_requests(self, feeds, hold_waves):
        async def main():
            server = serve.Server(
                coalesce=serve.CoalesceConfig(max_wave=64, max_delay=60.0)
            )
            await server.start()
            # Hold the key busy so a request really is queued when
            # stop() arrives: the first wave parks in front of the
            # engine until the test lets it through.
            gate, entered = hold_waves(server)
            head = asyncio.ensure_future(server.submit(model, feeds))
            await entered.wait()
            queued = asyncio.ensure_future(server.submit(model, feeds))
            await asyncio.sleep(0)
            # Behind a running wave, a minute from the timer: queued.
            assert server._coalescer.pending() == 1
            stopping = asyncio.ensure_future(server.stop())
            await asyncio.sleep(0)
            assert not stopping.done()  # a drain, not an abort
            gate.set()
            await stopping
            for task in (head, queued):
                out = await task
                np.testing.assert_allclose(out.data, reference(*feeds),
                                           rtol=1e-5)
            # stop() closed the tenant session.
            assert server._sessions["default"].closed

        run(main())

    def test_stop_drains_a_request_whose_idle_flush_is_still_pending(
        self, feeds
    ):
        async def main():
            server = serve.Server(
                coalesce=serve.CoalesceConfig(max_wave=64, max_delay=60.0)
            )
            await server.start()
            task = asyncio.ensure_future(server.submit(model, feeds))
            await asyncio.sleep(0)
            # Submitted this turn on an idle key: its next-turn flush
            # has not run yet when stop() begins.
            assert server._coalescer.pending() == 1
            await server.stop()
            out = await task
            np.testing.assert_allclose(out.data, reference(*feeds),
                                       rtol=1e-5)
            assert server.metrics.waves == 1

        run(main())


class TestShardedDispatch:
    def test_waves_run_through_the_shard_pool(self, feeds):
        async def main():
            opts = api.Options(shards=2)
            async with serve.Server(
                opts, coalesce=serve.CoalesceConfig(max_wave=4,
                                                    max_delay=0.005)
            ) as server:
                outs = await asyncio.gather(
                    *(server.submit(model, feeds) for _ in range(8))
                )
                for out in outs:
                    np.testing.assert_allclose(
                        out.data, reference(*feeds), rtol=1e-5
                    )
                st = server.session().stats()
                assert st.shard_pools_open == 1
                assert st.shard_workers == 2
                assert st.shard_waves_served >= 1
            # Server stop closed the session and its pools.
            assert server._sessions["default"].closed

        run(main())


class TestServerStats:
    def test_stats_snapshot_and_render(self, feeds):
        async def main():
            async with serve.Server() as server:
                await server.submit(model, feeds, tenant="alice")
                stats = server.stats()
                assert stats.metrics["completed"] == 1
                assert "alice" in stats.tenants
                text = stats.render()
                assert "tenant 'alice'" in text
                assert "p50" in text
                assert "plan cache" in text

        run(main())

    def test_validation_of_constructor_args(self):
        with pytest.raises(ValueError, match="dispatch_workers"):
            serve.Server(dispatch_workers=0)
