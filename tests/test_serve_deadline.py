"""Request deadlines and circuit breaking across the serve stack.

Contracts under test:

* Admission: a parked waiter whose ``deadline`` passes first raises
  :class:`ServeDeadlineError` (not the overload error), an
  already-expired deadline never parks, and the error choice between
  deadline and ``wait_timeout`` follows whichever bound is tighter.
* Coalescer: a member's ``expires_at`` pulls the flush timer forward
  (a queue held behind a running wave is flushed no later than its
  earliest member deadline), an expired member resolves with
  :class:`ServeDeadlineError` *without poisoning the wave* — both at
  flush and after the per-key serialization wait.
* :class:`CircuitBreaker`: closed → open after ``failures_to_open``
  consecutive failures, sheds during the cooldown, half-open admits one
  probe, and the probe's outcome closes or re-opens it.
* End to end through :meth:`Server.submit`: deadline errors carry the
  ``"deadline"`` failure cause, breaker sheds raise
  :class:`ServeOverloadError` with ``breaker_shed``/``breaker_trips``
  accounting, and a recovered plan serves again after the cooldown.

Admission- and coalescer-level tests run on the virtual-time loop
(``_virtual_loop``), so their deadlines and timeouts are exact and
free; ``Server``-level tests cross the real dispatch thread pool and
stay on the real loop.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from _virtual_loop import run as run_virtual

from repro import api, faults, serve
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    BreakerConfig,
    CircuitBreaker,
    CoalesceConfig,
    Coalescer,
    ServeDeadlineError,
    ServeMetrics,
    ServeOverloadError,
)
from repro.tensor import random_general


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def clean_faults():
    faults.clear()
    yield
    faults.clear()


def model(a, b, c):
    return (a @ b + c) @ a.T


@pytest.fixture()
def feeds():
    return [random_general(16, seed=s) for s in (1, 2, 3)]


# -- admission deadlines ------------------------------------------------------


class TestAdmissionDeadline:
    def test_already_expired_deadline_never_parks(self):
        async def main():
            metrics = ServeMetrics()
            ctl = AdmissionController(AdmissionConfig(max_inflight=4),
                                      metrics)
            loop = asyncio.get_running_loop()
            with pytest.raises(ServeDeadlineError, match="expired"):
                await ctl.acquire("a", deadline=loop.time() - 0.01)
            assert ctl.depth() == 0
            assert metrics.deadline_expired == 1

        run_virtual(main())

    def test_parked_waiter_expires_with_deadline_error(self):
        async def main():
            metrics = ServeMetrics()
            ctl = AdmissionController(AdmissionConfig(max_inflight=1),
                                      metrics)
            await ctl.acquire("a")
            loop = asyncio.get_running_loop()
            with pytest.raises(ServeDeadlineError):
                await ctl.acquire("b", deadline=loop.time() + 0.05)
            assert metrics.deadline_expired == 1
            # The expired waiter left no slot behind.
            ctl.release("a")
            await ctl.acquire("c")

        run_virtual(main())

    def test_tighter_bound_picks_the_error(self):
        async def main():
            ctl = AdmissionController(
                AdmissionConfig(max_inflight=1, wait_timeout=0.05)
            )
            await ctl.acquire("a")
            loop = asyncio.get_running_loop()
            # Deadline far beyond wait_timeout: the park ends on the
            # timeout, so overload — not deadline — is the right error.
            with pytest.raises(ServeOverloadError):
                await ctl.acquire("b", deadline=loop.time() + 30.0)
            # Deadline tighter than wait_timeout: deadline error.
            with pytest.raises(ServeDeadlineError):
                await ctl.acquire("b", deadline=loop.time() + 0.01)

        run_virtual(main())


# -- coalescer deadlines ------------------------------------------------------


def _echo_coalescer(config, metrics=None, *, delay=0.0, waves=None,
                    gate=None):
    """``gate`` (an ``asyncio.Event``) parks every wave inside dispatch
    until the test sets it — the way to hold a key busy."""

    async def dispatch(key, items):
        if waves is not None:
            waves.append(list(items))
        if delay:
            await asyncio.sleep(delay)
        if gate is not None:
            await gate.wait()
        return [("served", item) for item in items]

    return Coalescer(dispatch, config=config, metrics=metrics)


class TestCoalescerDeadline:
    def test_deadline_pulls_flush_forward(self):
        # Two requests queue behind a running wave; max_delay alone
        # would hold them for 30 s.  The expiring member pulls the
        # timer to its deadline: it resolves with the deadline error
        # right then, and the *other* member is flushed into a clean
        # wave of its own instead of waiting out max_delay.
        async def main():
            metrics = ServeMetrics()
            waves = []
            gate = asyncio.Event()
            co = _echo_coalescer(
                CoalesceConfig(max_wave=8, max_delay=30.0), metrics,
                waves=waves, gate=gate,
            )
            loop = asyncio.get_running_loop()
            head = co.submit("k", "head")
            while not waves:  # until the head wave is inside dispatch
                await asyncio.sleep(0)
            start = loop.time()
            fut_a = co.submit("k", "a")
            fut_b = co.submit("k", "b", expires_at=start + 0.05)
            with pytest.raises(ServeDeadlineError):
                await fut_b
            assert 0.05 <= loop.time() - start < 0.051
            assert metrics.deadline_expired == 1
            # The survivor left the queue with it, parked behind head.
            assert co.pending("k") == 0 and co.inflight_waves == 2
            assert not fut_a.done()
            gate.set()
            assert await head == ("served", "head")
            assert await fut_a == ("served", "a")
            assert waves == [["head"], ["a"]]
            assert metrics.deadline_expired == 1  # counted once
            assert loop.time() - start < 0.051  # max_delay never came

        run_virtual(main())

    def test_met_deadline_is_served(self):
        # A deadline looser than the natural flush changes nothing.
        async def main():
            co = _echo_coalescer(CoalesceConfig(max_wave=8, max_delay=0.01))
            loop = asyncio.get_running_loop()
            fut = co.submit("k", "a", expires_at=loop.time() + 10.0)
            assert await asyncio.wait_for(fut, 5.0) == ("served", "a")

        run_virtual(main())

    def test_expired_member_does_not_poison_the_wave(self):
        async def main():
            waves = []
            co = _echo_coalescer(
                CoalesceConfig(max_wave=8, max_delay=0.01), waves=waves
            )
            loop = asyncio.get_running_loop()
            fut_a = co.submit("k", "a")
            fut_b = co.submit("k", "b", expires_at=loop.time() - 0.01)
            assert await asyncio.wait_for(fut_a, 5.0) == ("served", "a")
            with pytest.raises(ServeDeadlineError):
                await fut_b
            # The expired member never reached dispatch.
            assert waves == [["a"]]

        run_virtual(main())

    def test_expiry_after_serialization_wait(self):
        # Wave 1 holds the per-key lock long enough for wave 2's only
        # member to expire before dispatching — the post-lock re-filter
        # must resolve it with the deadline error, and no empty wave
        # may dispatch.
        async def main():
            waves = []
            co = _echo_coalescer(
                CoalesceConfig(max_wave=1, max_delay=10.0),
                ServeMetrics(), delay=0.2, waves=waves,
            )
            loop = asyncio.get_running_loop()
            fut_a = co.submit("k", "a")  # max_wave=1: flushes, takes lock
            fut_b = co.submit("k", "b", expires_at=loop.time() + 0.05)
            assert await asyncio.wait_for(fut_a, 5.0) == ("served", "a")
            with pytest.raises(ServeDeadlineError):
                await asyncio.wait_for(fut_b, 5.0)
            await co.drain()
            assert waves == [["a"]]

        run_virtual(main())


# -- the circuit breaker ------------------------------------------------------


class TestCircuitBreaker:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="failures_to_open"):
            BreakerConfig(failures_to_open=-1).validate()
        with pytest.raises(ValueError, match="reset_timeout"):
            BreakerConfig(reset_timeout=0.0).validate()

    def test_trips_after_consecutive_failures(self):
        br = CircuitBreaker(BreakerConfig(failures_to_open=3,
                                          reset_timeout=1.0))
        assert br.allow(0.0)
        assert not br.record_failure(0.1)
        assert not br.record_failure(0.2)
        assert br.record_failure(0.3)  # the tripping failure
        assert br.state == "open"
        assert not br.allow(0.5)  # shedding inside the cooldown

    def test_success_resets_the_streak(self):
        br = CircuitBreaker(BreakerConfig(failures_to_open=2,
                                          reset_timeout=1.0))
        br.record_failure(0.1)
        br.record_success()
        assert not br.record_failure(0.2)  # streak restarted
        assert br.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        br = CircuitBreaker(BreakerConfig(failures_to_open=1,
                                          reset_timeout=1.0))
        br.record_failure(0.0)
        assert br.allow(1.5)       # cooldown over: the probe
        assert br.state == "half-open"
        assert not br.allow(1.6)   # second request still shed

    def test_probe_success_closes(self):
        br = CircuitBreaker(BreakerConfig(failures_to_open=1,
                                          reset_timeout=1.0))
        br.record_failure(0.0)
        assert br.allow(1.5)
        br.record_success()
        assert br.state == "closed"
        assert br.allow(1.6) and br.allow(1.7)  # fully open for traffic

    def test_probe_failure_reopens(self):
        br = CircuitBreaker(BreakerConfig(failures_to_open=1,
                                          reset_timeout=1.0))
        br.record_failure(0.0)
        assert br.allow(1.5)
        assert br.record_failure(1.6)  # the probe failed: trips again
        assert br.state == "open"
        assert not br.allow(2.0)       # new cooldown from the re-open
        assert br.allow(2.7)           # ... then a fresh probe

    def test_zero_threshold_disables_breaking(self):
        br = CircuitBreaker(BreakerConfig(failures_to_open=0))
        assert not br.enabled
        for t in range(20):
            assert not br.record_failure(float(t))
            assert br.allow(float(t))
        assert br.state == "closed"


# -- end to end through Server.submit -----------------------------------------


class TestServerDeadline:
    def test_deadline_must_be_positive(self, feeds):
        async def main():
            async with serve.Server() as server:
                with pytest.raises(ValueError, match="deadline"):
                    await server.submit(model, feeds, deadline=0)

        run(main())

    def test_deadline_expires_in_admission(self, feeds, hold_waves):
        async def main():
            async with serve.Server(
                admission=AdmissionConfig(max_inflight=1),
                coalesce=CoalesceConfig(max_wave=1, max_delay=0.001),
            ) as server:
                gate, entered = hold_waves(server)
                slow = asyncio.ensure_future(server.submit(model, feeds))
                await entered.wait()  # the held wave keeps the one slot
                with pytest.raises(ServeDeadlineError):
                    await server.submit(model, feeds, deadline=0.05)
                assert server.metrics.deadline_expired == 1
                assert server.metrics.failure_causes.get("deadline") == 1
                gate.set()
                out = await slow  # the slow request itself completes
                np.testing.assert_allclose(
                    out.data,
                    (feeds[0].data @ feeds[1].data + feeds[2].data)
                    @ feeds[0].data.T,
                    rtol=1e-5,
                )

        run(main())

    def test_deadline_expires_in_coalescer_without_poisoning_wave(
        self, feeds, hold_waves
    ):
        async def main():
            async with serve.Server(
                coalesce=CoalesceConfig(max_wave=8, max_delay=30.0),
            ) as server:
                # Hold the key busy: the first wave parks in front of
                # the engine until the test lets it through, so the
                # next two requests really are queued behind it.
                gate, entered = hold_waves(server)
                head = asyncio.ensure_future(server.submit(model, feeds))
                await entered.wait()
                patient = asyncio.ensure_future(server.submit(model, feeds))
                await asyncio.sleep(0)  # patient queues first
                with pytest.raises(ServeDeadlineError):
                    await server.submit(model, feeds, deadline=0.05)
                # The expiring member pulled the flush forward: the
                # patient request left the queue at that deadline, not
                # at max_delay, and waits only for the running wave.
                assert server._coalescer.pending() == 0
                assert not patient.done()
                assert server.metrics.deadline_expired == 1
                gate.set()
                ref = (
                    (feeds[0].data @ feeds[1].data + feeds[2].data)
                    @ feeds[0].data.T
                )
                for fut in (head, patient):
                    out = await asyncio.wait_for(fut, 10.0)
                    np.testing.assert_allclose(out.data, ref, rtol=1e-5)
                # Two clean singleton waves; the expired member was in
                # neither and is counted once.
                assert server.metrics.completed == 2
                assert server.metrics.waves == 2
                assert server.metrics.wave_occupancy.max == 1
                assert server.metrics.deadline_expired == 1
                assert server.metrics.failure_causes == {"deadline": 1}

        run(main())


class TestServerBreaker:
    def test_trip_shed_and_half_open_recovery(self, feeds):
        async def main():
            faults.install("serve.dispatch:error@1x2")
            async with serve.Server(
                coalesce=CoalesceConfig(max_wave=1, max_delay=0.001),
                breaker=BreakerConfig(failures_to_open=2,
                                      reset_timeout=0.2),
            ) as server:
                for _ in range(2):  # two failing waves trip the breaker
                    with pytest.raises(faults.InjectedFault):
                        await server.submit(model, feeds)
                assert server.metrics.breaker_trips == 1
                assert server.metrics.failure_causes.get(
                    "InjectedFault") == 2
                # Open: shed before admission, with the overload error.
                with pytest.raises(ServeOverloadError,
                                   match="circuit breaker"):
                    await server.submit(model, feeds)
                assert server.metrics.breaker_shed == 1
                await asyncio.sleep(0.25)  # cooldown → half-open
                # The probe succeeds (the fault window is exhausted)
                # and the breaker closes for regular traffic again.
                out = await server.submit(model, feeds)
                np.testing.assert_allclose(
                    out.data,
                    (feeds[0].data @ feeds[1].data + feeds[2].data)
                    @ feeds[0].data.T,
                    rtol=1e-5,
                )
                await server.submit(model, feeds)
                assert server.metrics.completed == 2

        run(main())

    def test_breaker_is_per_tenant(self, feeds):
        async def main():
            faults.install("serve.dispatch:error@1x2")
            async with serve.Server(
                coalesce=CoalesceConfig(max_wave=1, max_delay=0.001),
                breaker=BreakerConfig(failures_to_open=1,
                                      reset_timeout=30.0),
            ) as server:
                with pytest.raises(faults.InjectedFault):
                    await server.submit(model, feeds, tenant="alice")
                with pytest.raises(ServeOverloadError):
                    await server.submit(model, feeds, tenant="alice")
                # Bob's breaker is untouched; his wave consumes the
                # second injected fault and his next request serves.
                with pytest.raises(faults.InjectedFault):
                    await server.submit(model, feeds, tenant="bob")
                with pytest.raises(ServeOverloadError):
                    await server.submit(model, feeds, tenant="bob")

        run(main())

    def test_disabled_breaker_never_sheds(self, feeds):
        async def main():
            faults.install("serve.dispatch:error@1x3")
            async with serve.Server(
                coalesce=CoalesceConfig(max_wave=1, max_delay=0.001),
                breaker=BreakerConfig(failures_to_open=0),
            ) as server:
                for _ in range(3):  # every failure surfaces; no shedding
                    with pytest.raises(faults.InjectedFault):
                        await server.submit(model, feeds)
                assert server.metrics.breaker_trips == 0
                assert server.metrics.breaker_shed == 0
                out = await server.submit(model, feeds)
                assert out is not None

        run(main())

    def test_metrics_render_mentions_failures(self, feeds):
        async def main():
            faults.install("serve.dispatch:error@1")
            async with serve.Server(
                coalesce=CoalesceConfig(max_wave=1, max_delay=0.001),
            ) as server:
                with pytest.raises(faults.InjectedFault):
                    await server.submit(model, feeds)
                text = server.metrics.render()
                assert "InjectedFault" in text

        run(main())


class TestSessionFallbackOption:
    def test_inline_fallback_completes_batch_and_records_stats(self):
        A, B, C = (random_general(16, seed=s) for s in (7, 8, 9))

        def fn(a, b, c):
            return (a @ b + c) @ a.T

        with api.Session(
            shards=2, shard_fallback="inline",
            faults="worker.exec:crash@1w0",
        ) as s:
            f = s.compile(fn)
            ref = (A.data @ B.data + C.data) @ A.data.T
            result = s.run_batch(f, [[A, B, C]] * 4)
            assert all(
                np.allclose(o[0], ref, rtol=1e-5) for o in result.outputs
            )
            stats = s.stats()
            assert stats.shard_fallback_runs == 1
            assert stats.shard_fallback == "inline"
            assert "degraded: 1 batch(es)" in stats.render()

    def test_error_fallback_raises(self):
        from repro.runtime import ShardWorkerError

        A, B = random_general(8, seed=1), random_general(8, seed=2)
        with api.Session(shards=2,
                         faults="worker.exec:crash@1w0") as s:
            f = s.compile(lambda a, b: a @ b)
            with pytest.raises(ShardWorkerError):
                s.run_batch(f, [[A, B]] * 4)

    def test_fallback_option_validated(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="shard_fallback"):
            api.Options(shard_fallback="retry").validate()
