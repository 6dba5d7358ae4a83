"""Request coalescing: flush boundaries, wave splitting, cancellation.

Contracts under test (the flush-boundary checklist):

* the flush rule is work-conserving: a queue on an idle key flushes on
  the next loop turn (same-turn submits share the wave), a queue behind
  a running wave is flushed by that wave when it finishes — however it
  finishes — and nothing ever waits for the ``max_delay`` timer unless
  the wave ahead outlives it;
* a queue flushes the moment it reaches ``max_wave`` (occupancy cap),
  and the ``max_delay`` timer cuts a queue held behind a running wave
  into a wave of its own;
* requests with incompatible feed shapes/dtypes never share a wave —
  at the server level the coalesce key carries the feed signature, so
  mixed-shape submissions split into per-signature waves;
* a request cancelled while queued is dropped at flush time: it
  occupies no wave slot and the remaining requests still complete;
* waves of one key serialize; dispatch failures fan out to every
  request of the wave; ``drain()`` leaves nothing queued or in flight.

Coalescer-level tests run on the virtual-time loop (``_virtual_loop``):
timers cost nothing and ``loop.time()`` only moves when the loop had
to wait for one, so "the timer never fired" is an exact assertion.
Tests that execute waves through a real ``Server`` cross its thread
pool and stay on the real loop.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from _virtual_loop import run as run_virtual

from repro import api, serve
from repro.serve import CoalesceConfig, Coalescer, ServeMetrics
from repro.tensor import Tensor, random_general


def run(coro):
    return asyncio.run(coro)


def make_coalescer(waves, config, metrics=None, delay=0.0, gate=None):
    """A Coalescer whose dispatch echoes items back and logs each wave.

    ``gate`` (an ``asyncio.Event``) parks every wave inside dispatch
    until the test sets it — the way to hold a key busy.
    """

    async def dispatch(key, items):
        waves.append((key, list(items)))
        if delay:
            await asyncio.sleep(delay)
        if gate is not None:
            await gate.wait()
        return [f"done:{item}" for item in items]

    return Coalescer(dispatch, config=config, metrics=metrics)


async def dispatching(waves):
    """Yield until the first wave is inside dispatch."""
    while not waves:
        await asyncio.sleep(0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs", [{"max_wave": 0}, {"max_wave": 1.5}, {"max_delay": -0.1}]
    )
    def test_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            CoalesceConfig(**kwargs).validate()


class TestFlushBoundaries:
    def test_max_wave_flushes_immediately(self):
        async def main():
            waves = []
            c = make_coalescer(
                waves, CoalesceConfig(max_wave=3, max_delay=60.0)
            )
            futs = [c.submit("k", i) for i in range(3)]
            # Hitting max_wave flushed the wave inside submit, before
            # the loop turned once.
            assert c.pending("k") == 0
            results = await asyncio.gather(*futs)
            assert results == ["done:0", "done:1", "done:2"]
            assert len(waves) == 1
            assert waves[0] == ("k", [0, 1, 2])

        run_virtual(main())

    def test_isolated_request_on_idle_key_never_waits_for_the_timer(self):
        async def main():
            waves = []
            metrics = ServeMetrics()
            c = make_coalescer(
                waves, CoalesceConfig(max_wave=64, max_delay=60.0), metrics
            )
            loop = asyncio.get_running_loop()
            start = loop.time()
            fut = c.submit("k", "only")
            assert c.pending("k") == 1  # flushed next turn, not in submit
            assert await fut == "done:only"
            assert waves == [("k", ["only"])]
            # The virtual clock moves only when the loop waits for a
            # timer: the minute-long max_delay timer never fired.
            assert loop.time() == start
            assert metrics.queue_wait.max == 0.0

        run_virtual(main())

    def test_same_turn_submits_on_idle_key_form_one_wave(self):
        async def main():
            waves = []
            c = make_coalescer(
                waves, CoalesceConfig(max_wave=64, max_delay=60.0)
            )
            loop = asyncio.get_running_loop()
            start = loop.time()
            futs = [c.submit("k", i) for i in range(5)]
            await asyncio.gather(*futs)
            assert waves == [("k", [0, 1, 2, 3, 4])]
            assert loop.time() == start

        run_virtual(main())

    def test_finishing_wave_flushes_what_queued_behind_it(self):
        async def main():
            waves = []
            gate = asyncio.Event()
            c = make_coalescer(
                waves, CoalesceConfig(max_wave=64, max_delay=60.0),
                gate=gate,
            )
            loop = asyncio.get_running_loop()
            start = loop.time()
            head = c.submit("k", "head")
            await dispatching(waves)
            behind = [c.submit("k", i) for i in range(3)]
            for _ in range(5):
                await asyncio.sleep(0)
            # Busy key: no next-turn flush, the queue holds.
            assert c.pending("k") == 3 and c.inflight_waves == 1
            gate.set()
            await asyncio.gather(head, *behind)
            assert [items for _, items in waves] == [["head"], [0, 1, 2]]
            assert loop.time() == start  # no timer involved anywhere

        run_virtual(main())

    @pytest.mark.parametrize("ending", ["raise", "cancel"])
    def test_failed_or_cancelled_wave_still_hands_its_key_on(self, ending):
        async def main():
            waves = []
            gate = asyncio.Event()

            async def dispatch(key, items):
                waves.append(list(items))
                if len(waves) == 1:
                    await gate.wait()
                    raise ValueError("kernel exploded")
                return list(items)

            c = Coalescer(
                dispatch, config=CoalesceConfig(max_wave=64, max_delay=60.0)
            )
            loop = asyncio.get_running_loop()
            start = loop.time()
            head = c.submit("k", "head")
            await dispatching(waves)
            behind = c.submit("k", "behind")
            if ending == "raise":
                gate.set()
                with pytest.raises(ValueError, match="kernel exploded"):
                    await head
            else:
                (task,) = c._tasks
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await head
            assert await behind == "behind"
            assert waves == [["head"], ["behind"]]
            assert loop.time() == start  # handed on, not timed out

        run_virtual(main())

    def test_deadline_flushes_partial_wave(self):
        # The max_delay timer is the upper bound, not the common path:
        # it fires only for a queue whose key stays busy that long, and
        # then flushes the partial queue into a wave of its own.
        async def main():
            waves = []
            metrics = ServeMetrics()
            gate = asyncio.Event()
            c = make_coalescer(
                waves, CoalesceConfig(max_wave=64, max_delay=0.01), metrics,
                gate=gate,
            )
            head = c.submit("k", "head")
            await dispatching(waves)
            fut = c.submit("k", "only")
            await asyncio.sleep(0.009)
            assert c.pending("k") == 1  # far from max_wave: still queued
            await asyncio.sleep(0.002)
            # max_delay passed: flushed into a wave parked on the key.
            assert c.pending("k") == 0 and c.inflight_waves == 2
            assert not fut.done()
            gate.set()
            assert await head == "done:head"
            assert await fut == "done:only"
            assert [items for _, items in waves] == [["head"], ["only"]]
            assert metrics.wave_occupancy.max == 1
            # queue_wait is the time spent behind the running wave.
            assert metrics.queue_wait.max >= 0.011

        run_virtual(main())

    def test_overfull_burst_splits_at_max_wave(self):
        async def main():
            waves = []
            c = make_coalescer(
                waves, CoalesceConfig(max_wave=4, max_delay=0.005)
            )
            futs = [c.submit("k", i) for i in range(10)]
            await asyncio.gather(*futs)
            assert [len(items) for _, items in waves] == [4, 4, 2]

        run_virtual(main())

    def test_burst_overflow_queues_behind_its_own_wave(self):
        # The burst's first max_wave members flush inside submit; the
        # overflow is then behind a running wave, so the idle flush the
        # first submit scheduled must leave it for later arrivals.
        async def main():
            waves = []
            gate = asyncio.Event()
            c = make_coalescer(
                waves, CoalesceConfig(max_wave=4, max_delay=60.0), gate=gate
            )
            futs = [c.submit("k", i) for i in range(5)]
            await dispatching(waves)
            futs += [c.submit("k", i) for i in (5, 6)]
            assert c.pending("k") == 3 and c.inflight_waves == 1
            gate.set()
            await asyncio.gather(*futs)
            assert [items for _, items in waves] == [[0, 1, 2, 3], [4, 5, 6]]

        run_virtual(main())

    def test_distinct_keys_never_share_a_wave(self):
        async def main():
            waves = []
            c = make_coalescer(
                waves, CoalesceConfig(max_wave=8, max_delay=0.005)
            )
            futs = [c.submit(f"k{i % 2}", i) for i in range(6)]
            await asyncio.gather(*futs)
            assert len(waves) == 2
            by_key = dict(waves)
            assert by_key["k0"] == [0, 2, 4]
            assert by_key["k1"] == [1, 3, 5]

        run_virtual(main())


class TestIncompatibleFeedsSplitWaves:
    def test_float32_and_float64_feeds_get_different_wave_keys(self):
        # Same function, same shapes: only the dtype in the feed
        # signature keeps the two precisions out of one wave.
        async def main():
            f32 = [random_general(8, seed=s) for s in (1, 2)]
            f64 = [Tensor(t.data.astype(np.float64), dtype=np.float64)
                   for t in f32]

            def model(a, b):
                return a @ b + a

            async with serve.Server(
                api.Options(fusion=True, arena="preallocated"),
                coalesce=serve.CoalesceConfig(max_wave=2, max_delay=0.5),
            ) as server:
                outs = await asyncio.gather(
                    server.submit(model, f32), server.submit(model, f64),
                    server.submit(model, f32), server.submit(model, f64),
                )
                assert server.metrics.waves == 2
                assert server.metrics.wave_occupancy.max == 2
                assert [o.dtype for o in outs] == [
                    np.float32, np.float64, np.float32, np.float64
                ]

        run(main())


    def test_shape_and_dtype_split_at_the_server(self):
        # The server keys waves by (tenant, plan, feed signature): two
        # feed sizes for the same function must land in separate waves.
        async def main():
            small = [random_general(8, seed=s) for s in (1, 2)]
            big = [random_general(16, seed=s) for s in (3, 4)]

            def model(a, b):
                return a @ b + a

            async with serve.Server(
                api.Options(fusion=True, arena="preallocated"),
                coalesce=serve.CoalesceConfig(max_wave=2, max_delay=0.5),
            ) as server:
                outs = await asyncio.gather(
                    server.submit(model, small),
                    server.submit(model, big),
                    server.submit(model, small),
                    server.submit(model, big),
                )
                assert server.metrics.waves == 2
                assert server.metrics.wave_occupancy.max == 2
                np.testing.assert_allclose(
                    outs[0].data, small[0].data @ small[1].data
                    + small[0].data, rtol=1e-5)
                np.testing.assert_allclose(
                    outs[1].data, big[0].data @ big[1].data + big[0].data,
                    rtol=1e-5)

        run(main())


class TestCancellation:
    def test_cancelled_request_dropped_at_flush(self):
        async def main():
            waves = []
            metrics = ServeMetrics()
            c = make_coalescer(
                waves, CoalesceConfig(max_wave=8, max_delay=0.005), metrics
            )
            keep = c.submit("k", "keep")
            drop = c.submit("k", "drop")
            drop.cancel()
            assert await keep == "done:keep"
            # The cancelled request never reached a wave.
            assert waves == [("k", ["keep"])]
            assert drop.cancelled()
            assert metrics.wave_occupancy.max == 1

        run_virtual(main())

    def test_fully_cancelled_queue_dispatches_nothing(self):
        async def main():
            waves = []
            c = make_coalescer(
                waves, CoalesceConfig(max_wave=8, max_delay=0.002)
            )
            futs = [c.submit("k", i) for i in range(3)]
            for fut in futs:
                fut.cancel()
            await asyncio.sleep(0.02)
            await c.drain()
            assert waves == []

        run_virtual(main())

    def test_cancelled_during_serialization_wait_dropped(self):
        async def main():
            waves = []
            metrics = ServeMetrics()
            c = make_coalescer(
                waves, CoalesceConfig(max_wave=1, max_delay=0.1), metrics,
                delay=0.02,
            )
            first = c.submit("k", "first")    # wave 1, holds the key lock
            second = c.submit("k", "second")  # wave 2, parked on the lock
            await asyncio.sleep(0.005)
            second.cancel()
            assert await first == "done:first"
            await c.drain()
            # Wave 2 found its only request cancelled and dispatched
            # nothing.
            assert [items for _, items in waves] == [["first"]]
            assert metrics.cancelled == 1

        run_virtual(main())


class TestDispatchSemantics:
    def test_same_key_waves_serialize(self):
        async def main():
            running = {"now": 0, "peak": 0}

            async def dispatch(key, items):
                running["now"] += 1
                running["peak"] = max(running["peak"], running["now"])
                await asyncio.sleep(0.01)
                running["now"] -= 1
                return list(items)

            c = Coalescer(
                dispatch, config=CoalesceConfig(max_wave=2, max_delay=0.5)
            )
            futs = [c.submit("k", i) for i in range(6)]  # three waves
            await asyncio.gather(*futs)
            assert running["peak"] == 1

        run_virtual(main())

    def test_dispatch_failure_fans_out_to_whole_wave(self):
        async def main():
            async def dispatch(key, items):
                raise ValueError("kernel exploded")

            c = Coalescer(
                dispatch, config=CoalesceConfig(max_wave=2, max_delay=0.5)
            )
            f1 = c.submit("k", 1)
            f2 = c.submit("k", 2)
            for fut in (f1, f2):
                with pytest.raises(ValueError, match="kernel exploded"):
                    await fut
            # The coalescer survives a failed wave: the next one runs.
            f3 = c.submit("k", 3)
            c.flush("k")
            with pytest.raises(ValueError, match="kernel exploded"):
                await f3

        run_virtual(main())

    def test_result_count_mismatch_is_an_error(self):
        async def main():
            async def dispatch(key, items):
                return [0]  # wrong arity for a 2-wave

            c = Coalescer(
                dispatch, config=CoalesceConfig(max_wave=2, max_delay=0.5)
            )
            f1 = c.submit("k", 1)
            f2 = c.submit("k", 2)
            for fut in (f1, f2):
                with pytest.raises(RuntimeError, match="2"):
                    await fut

        run_virtual(main())

    def test_drain_flushes_and_waits(self):
        async def main():
            waves = []
            c = make_coalescer(
                waves, CoalesceConfig(max_wave=64, max_delay=60.0),
                delay=0.01,
            )
            futs = [c.submit("k", i) for i in range(3)]
            assert c.pending() == 3  # the next-turn flush is still pending
            await c.drain()
            assert c.pending() == 0
            assert c.inflight_waves == 0
            assert len(waves) == 1
            assert all(f.done() for f in futs)

        run_virtual(main())

    def test_drain_with_requests_queued_behind_a_running_wave(self):
        async def main():
            waves = []
            gate = asyncio.Event()
            c = make_coalescer(
                waves, CoalesceConfig(max_wave=64, max_delay=60.0),
                gate=gate,
            )
            head = c.submit("k", "head")
            await dispatching(waves)
            behind = [c.submit("k", i) for i in range(2)]
            draining = asyncio.ensure_future(c.drain())
            await asyncio.sleep(0)
            assert not draining.done()  # waits for the running wave
            gate.set()
            await draining
            assert c.pending() == 0
            assert c.inflight_waves == 0
            assert [items for _, items in waves] == [["head"], [0, 1]]
            assert head.done() and all(f.done() for f in behind)

        run_virtual(main())
