"""Generated coverage of the coalescer's flush rule, on virtual time.

A Hypothesis state machine drives one :class:`Coalescer` whose stub
dispatch parks every wave until the machine completes it, so arrival
order, cancellations, deadlines, timer firings and the three ways a
wave can end (result, exception, task cancellation) interleave freely.
Checked after every rule:

* **work-conserving** — a key that holds queued requests has a wave
  executing (an idle key never keeps a request waiting);
* at most one wave per key executes at a time, and none exceeds
  ``max_wave``;
* no cancelled request and no request past its ``expires_at`` is ever
  handed to dispatch;

and at the end of every example, after ``drain()``: nothing is queued
or in flight and every future resolved exactly once, with an outcome it
was entitled to (its wave's result, its wave's exception,
``ServeDeadlineError`` only if it carried a deadline and was never
dispatched, cancelled only if the test or its wave's cancellation did
it).

Plus one deterministic count pin through a real ``Server``: eight
closed-loop clients refill every wave to exactly eight — the idle flush
is deferred one loop turn, so the first client to resubmit after a wave
never leaves alone.
"""

from __future__ import annotations

import asyncio
import functools

import pytest
from _virtual_loop import VirtualTimeLoop
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import api, serve
from repro.serve import (
    CoalesceConfig,
    Coalescer,
    ServeDeadlineError,
    ServeMetrics,
)
from repro.tensor import random_general

MAX_WAVE = 3
MAX_DELAY = 0.01
KEYS = ("a", "b")
#: Loop turns run after every rule.  The longest chain one rule starts
#: is: wave future set → wave task resumes, fans out, releases the key
#: → its done-callback flushes the queue behind it → the new wave task
#: takes the lock and enters dispatch.
SETTLE_TURNS = 5


class _Request:
    def __init__(self, rid, expires_at, future):
        self.rid = rid
        self.expires_at = expires_at
        self.future = future
        self.cancelled_by_test = False
        self.wave = None  # the _Wave that dispatched it, if any


class _Wave:
    def __init__(self, task, release):
        self.task = task          # the coalescer's wave task
        self.release = release    # future the stub dispatch is parked on
        self.error = None         # what "raise" completed it with
        self.cancelled = False


class CoalescerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.loop = VirtualTimeLoop()
        self.metrics = ServeMetrics()
        self.co = Coalescer(
            self._dispatch,
            config=CoalesceConfig(max_wave=MAX_WAVE, max_delay=MAX_DELAY),
            metrics=self.metrics,
        )
        self.requests: list[_Request] = []
        self.executing: dict[str, _Wave] = {}
        self.violations: list[str] = []

    # -- the stub executor ---------------------------------------------------

    async def _dispatch(self, key, items):
        now = self.loop.time()
        members = [self.requests[rid] for rid in items]
        if key in self.executing:
            self.violations.append(f"two waves of {key!r} executing")
        if len(items) > MAX_WAVE:
            self.violations.append(f"wave of {len(items)} > max_wave")
        for req in members:
            if req.future.done():
                self.violations.append(f"request {req.rid} dispatched done")
            if req.expires_at is not None and now >= req.expires_at:
                self.violations.append(f"request {req.rid} dispatched late")
        wave = _Wave(asyncio.current_task(), self.loop.create_future())
        for req in members:
            req.wave = wave
        self.executing[key] = wave
        try:
            await wave.release
        finally:
            del self.executing[key]
        return [("ok", rid) for rid in items]

    # -- driving the loop ----------------------------------------------------

    def _turn(self, action=None):
        """One loop iteration, with ``action`` run inside it."""
        if action is not None:
            self.loop.call_soon(action)
        self.loop.call_soon(self.loop.stop)
        self.loop.run_forever()

    def _settle(self):
        # A ready ``stop`` handle keeps the selector timeout at zero, so
        # settling never advances the virtual clock.
        for _ in range(SETTLE_TURNS):
            self._turn()

    # -- rules ---------------------------------------------------------------

    @rule(key=st.sampled_from(KEYS),
          deadline=st.sampled_from([None, None, 0.003, 0.008, 0.03]))
    def submit(self, key, deadline):
        def action():
            expires_at = (
                None if deadline is None else self.loop.time() + deadline
            )
            rid = len(self.requests)
            fut = self.co.submit(key, rid, expires_at=expires_at)
            self.requests.append(_Request(rid, expires_at, fut))

        self._turn(action)
        self._settle()

    @precondition(lambda self: any(
        not r.future.done() for r in self.requests))
    @rule(data=st.data())
    def cancel(self, data):
        live = [r for r in self.requests if not r.future.done()]
        req = data.draw(st.sampled_from(live))
        req.cancelled_by_test = True
        self._turn(req.future.cancel)
        self._settle()

    @rule(dt=st.sampled_from([0.001, 0.004, 0.011, 0.05]))
    def advance(self, dt):
        self.loop.call_later(dt, self.loop.stop)
        self.loop.run_forever()
        self._settle()

    @precondition(lambda self: self.executing)
    @rule(data=st.data(), how=st.sampled_from(["ok", "ok", "raise", "cancel"]))
    def complete_wave(self, data, how):
        key = data.draw(st.sampled_from(sorted(self.executing)))
        wave = self.executing[key]
        if how == "ok":
            action = functools.partial(wave.release.set_result, None)
        elif how == "raise":
            wave.error = ValueError(f"wave of {key!r} exploded")
            action = functools.partial(wave.release.set_exception, wave.error)
        else:
            wave.cancelled = True
            action = wave.task.cancel
        self._turn(action)
        self._settle()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def nothing_forbidden_reached_dispatch(self):
        assert not self.violations, self.violations

    @invariant()
    def work_conserving(self):
        for key in KEYS:
            if self.co.pending(key):
                assert key in self.executing, (
                    f"{self.co.pending(key)} request(s) queued on idle "
                    f"key {key!r}"
                )

    # -- end of example ------------------------------------------------------

    def teardown(self):
        try:
            draining = self.loop.create_task(self.co.drain())
            for _ in range(4 * len(self.requests) + 8):
                if draining.done():
                    break
                for wave in list(self.executing.values()):
                    wave.release.set_result(None)
                self._settle()
            assert draining.done(), "drain() did not terminate"
            draining.result()
            assert self.co.pending() == 0
            assert self.co.inflight_waves == 0
            assert not self.violations, self.violations
            for req in self.requests:
                self._check_outcome(req)
        finally:
            self.loop.close()

    def _check_outcome(self, req):
        fut, wave = req.future, req.wave
        assert fut.done(), f"request {req.rid} never resolved"
        if fut.cancelled():
            assert req.cancelled_by_test or (wave and wave.cancelled)
            return
        exc = fut.exception()
        if exc is None:
            assert fut.result() == ("ok", req.rid)
            assert wave is not None and not wave.error
        elif isinstance(exc, ServeDeadlineError):
            assert req.expires_at is not None and wave is None
        else:
            assert wave is not None and exc is wave.error


#: ``max_examples`` comes from the Hypothesis profile: tier-1 runs the
#: default 100, ``--hypothesis-profile=thorough`` (conftest.py; CI's
#: serve-smoke job) runs 2 500.
CoalescerMachine.TestCase.settings = settings(
    stateful_step_count=30, deadline=None
)
TestCoalescerMachine = CoalescerMachine.TestCase


# -- the closed-loop count pin --------------------------------------------------


def model(a, b, c):
    return (a @ b + c) @ a.T


@pytest.mark.parametrize(
    "options, clients",
    [
        (None, 8),
        (api.Options(shards=1), 8),
        # Fewer clients than the cap: the finishing wave's hand-off,
        # not max_wave, is what flushes each refill.
        (None, 4),
    ],
    ids=["in-process-8", "one-shard-8", "in-process-4"],
)
def test_closed_loop_clients_refill_every_wave(options, clients):
    # A wave fans its results out and its clients resubmit one by one
    # in a single loop turn.  Every one of them must land in the same
    # next wave — a count, not a timing: `rounds` waves of `clients`.
    rounds = 200
    feeds = [random_general(16, seed=s) for s in (1, 2, 3)]

    async def client(server):
        for _ in range(rounds):
            await server.submit(model, feeds)

    async def main():
        async with serve.Server(
            options, coalesce=CoalesceConfig(max_wave=8, max_delay=60.0)
        ) as server:
            # Round one (compiles the plan, spawns the worker).
            await asyncio.gather(
                *(server.submit(model, feeds) for _ in range(clients))
            )
            occupancy = server.metrics.wave_occupancy
            waves, members = occupancy.count, occupancy.total
            # Bounded: a lost hand-off would leave every refill to the
            # one-minute timer.
            await asyncio.wait_for(
                asyncio.gather(*(client(server) for _ in range(clients))),
                timeout=30.0,
            )
            assert occupancy.count - waves == rounds
            assert occupancy.total - members == rounds * clients
            assert occupancy.max == clients

    asyncio.run(main())
