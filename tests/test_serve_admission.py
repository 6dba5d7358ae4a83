"""Admission control: bounded in-flight depth, backpressure, shedding.

Contracts under test:

* slots grant immediately below the limits and park (``policy="wait"``)
  or raise :class:`ServeOverloadError` (``policy="reject"``) above them;
* waiters are granted strictly FIFO on release, except that a waiter
  blocked only by its tenant cap does not head-of-line-block other
  tenants;
* ``wait_timeout`` turns a parked waiter into a rejection, and a waiter
  cancelled while parked never leaks a slot;
* config validation fails loudly.

The controller never leaves the loop thread, so every test runs on the
virtual-time loop (``_virtual_loop``): ``wait_timeout`` costs nothing.
"""

from __future__ import annotations

import asyncio

import pytest
from _virtual_loop import run

from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    ServeMetrics,
    ServeOverloadError,
)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_inflight": 0},
            {"max_inflight": 2.5},
            {"max_per_tenant": 0},
            {"policy": "drop"},
            {"wait_timeout": 0.0},
            {"wait_timeout": -1},
        ],
    )
    def test_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionConfig(**kwargs).validate()

    def test_controller_validates_on_construction(self):
        with pytest.raises(ValueError):
            AdmissionController(AdmissionConfig(max_inflight=-1))


class TestGrantAndRelease:
    def test_grants_below_limit(self):
        async def main():
            ctl = AdmissionController(AdmissionConfig(max_inflight=2))
            await ctl.acquire("a")
            await ctl.acquire("b")
            assert ctl.depth() == 2
            assert ctl.depth("a") == 1
            ctl.release("a")
            ctl.release("b")
            assert ctl.depth() == 0
            assert ctl.depth("a") == 0

        run(main())

    def test_reject_policy_raises_at_limit(self):
        async def main():
            ctl = AdmissionController(
                AdmissionConfig(max_inflight=1, policy="reject")
            )
            await ctl.acquire()
            with pytest.raises(ServeOverloadError, match="rejected"):
                await ctl.acquire()
            ctl.release()
            await ctl.acquire()  # slot freed, grants again

        run(main())

    def test_per_tenant_cap_rejects_only_that_tenant(self):
        async def main():
            ctl = AdmissionController(
                AdmissionConfig(max_inflight=8, max_per_tenant=1,
                                policy="reject")
            )
            await ctl.acquire("chatty")
            with pytest.raises(ServeOverloadError, match="chatty"):
                await ctl.acquire("chatty")
            await ctl.acquire("quiet")  # other tenants unaffected

        run(main())

    def test_rejections_counted_in_metrics(self):
        async def main():
            metrics = ServeMetrics()
            ctl = AdmissionController(
                AdmissionConfig(max_inflight=1, policy="reject"), metrics
            )
            await ctl.acquire()
            for _ in range(3):
                with pytest.raises(ServeOverloadError):
                    await ctl.acquire()
            assert metrics.rejected == 3
            assert metrics.queue_depth.high_water == 1

        run(main())


class TestWaitPolicy:
    def test_waiter_parks_then_granted_fifo(self):
        async def main():
            ctl = AdmissionController(AdmissionConfig(max_inflight=1))
            await ctl.acquire("a")
            order = []

            async def waiter(name):
                await ctl.acquire(name)
                order.append(name)

            t1 = asyncio.ensure_future(waiter("first"))
            await asyncio.sleep(0)
            t2 = asyncio.ensure_future(waiter("second"))
            await asyncio.sleep(0)
            assert ctl.waiting == 2
            ctl.release("a")
            await asyncio.sleep(0)
            assert order == ["first"]
            ctl.release("first")
            await asyncio.sleep(0)
            assert order == ["first", "second"]
            ctl.release("second")
            await asyncio.gather(t1, t2)
            assert ctl.depth() == 0 and ctl.waiting == 0

        run(main())

    def test_tenant_capped_waiter_does_not_block_other_tenants(self):
        async def main():
            ctl = AdmissionController(
                AdmissionConfig(max_inflight=2, max_per_tenant=1)
            )
            await ctl.acquire("a")
            await ctl.acquire("b")
            granted = []

            async def waiter(name):
                await ctl.acquire(name)
                granted.append(name)

            # "a" parks first (blocked by its tenant cap once a slot
            # frees from "b"); "c" parks behind it.
            ta = asyncio.ensure_future(waiter("a"))
            await asyncio.sleep(0)
            tc = asyncio.ensure_future(waiter("c"))
            await asyncio.sleep(0)
            ctl.release("b")  # global slot free, but "a" still capped
            await asyncio.sleep(0)
            assert granted == ["c"]  # skipped over the capped waiter
            ctl.release("a")  # now "a"'s cap clears
            await asyncio.sleep(0)
            assert granted == ["c", "a"]
            ctl.release("c")
            ctl.release("a")
            await asyncio.gather(ta, tc)

        run(main())

    def test_wait_timeout_rejects(self):
        async def main():
            ctl = AdmissionController(
                AdmissionConfig(max_inflight=1, wait_timeout=0.01)
            )
            await ctl.acquire()
            with pytest.raises(ServeOverloadError, match="wait_timeout"):
                await ctl.acquire()
            # The timed-out waiter must not consume the next free slot.
            ctl.release()
            await ctl.acquire()
            assert ctl.depth() == 1

        run(main())

    def test_cancelled_waiter_leaks_no_slot(self):
        async def main():
            ctl = AdmissionController(AdmissionConfig(max_inflight=1))
            await ctl.acquire("a")
            task = asyncio.ensure_future(ctl.acquire("b"))
            await asyncio.sleep(0)
            assert ctl.waiting == 1
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            ctl.release("a")
            # The cancelled waiter is skipped; the slot is free.
            await asyncio.sleep(0)
            assert ctl.depth() == 0
            await ctl.acquire("c")
            assert ctl.depth("c") == 1

        run(main())

    def test_grant_then_cancel_same_tick_returns_slot(self):
        async def main():
            ctl = AdmissionController(AdmissionConfig(max_inflight=1))
            await ctl.acquire("a")
            task = asyncio.ensure_future(ctl.acquire("b"))
            await asyncio.sleep(0)
            ctl.release("a")       # grants b's future...
            task.cancel()          # ...but b is cancelled before waking
            with pytest.raises(asyncio.CancelledError):
                await task
            # The granted-then-cancelled slot was handed back.
            assert ctl.depth() == 0

        run(main())

    def test_grant_in_same_tick_as_wait_timeout_returns_slot(
        self, monkeypatch
    ):
        # The nastiest interleaving: wait_for's timer fires in the very
        # tick _dispatch_waiters grants the parked future.  The slot was
        # already charged to the timed-out request — acquire must hand
        # it back before rejecting, or the pool shrinks by one forever.
        async def main():
            import repro.serve.admission as admission_module

            ctl = AdmissionController(
                AdmissionConfig(max_inflight=1, wait_timeout=0.05)
            )
            await ctl.acquire("a")

            async def grant_then_time_out(fut, timeout):
                ctl.release("a")  # frees the slot; grants fut to "b"
                assert fut.done() and not fut.cancelled()
                raise asyncio.TimeoutError

            monkeypatch.setattr(
                admission_module.asyncio, "wait_for", grant_then_time_out
            )
            try:
                with pytest.raises(ServeOverloadError):
                    await ctl.acquire("b")
            finally:
                monkeypatch.undo()
            # The granted-then-timed-out slot was released again...
            assert ctl.depth() == 0
            assert ctl.depth("b") == 0
            await ctl.acquire("c")  # ...and is immediately grantable
            assert ctl.depth("c") == 1

        run(main())
