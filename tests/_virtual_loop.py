"""A virtual-time asyncio event loop for tests: ``asyncio.sleep(30)`` is free.

Every timestamp in ``repro.serve`` comes from ``loop.time()`` and every
timer from ``loop.call_at`` / ``call_later``, so a loop whose clock is a
number the test suite owns makes timer behaviour (``max_delay``,
deadlines, ``wait_timeout``, stub-dispatch service times) exact and
instant: whenever the loop would block until its next timer, the clock
jumps there instead.

Only for code that stays on the loop thread.  Nothing here waits for
another thread or a socket — a loop with nothing ready and no timer
armed is a deadlock under virtual time, and raises instead of hanging.
Tests that cross the real dispatch thread pool (a ``Server`` executing
waves) stay on the real loop.
"""

from __future__ import annotations

import asyncio
import selectors

__all__ = ["VirtualTimeLoop", "run"]

#: Added to every jump so the clock lands strictly past the timer that
#: bounded the wait, as a real clock always does; far above float
#: rounding of ``now + (when - now)``, far below any delay a test uses.
_TICK = 1e-9


class _SkippingSelector(selectors.DefaultSelector):
    """``select(timeout)`` advances the loop's clock instead of blocking."""

    def __init__(self, loop: "VirtualTimeLoop") -> None:
        super().__init__()
        self._loop = loop

    def select(self, timeout=None):
        if timeout is None:
            raise RuntimeError(
                "virtual-time loop deadlock: nothing is ready and no timer "
                "is armed (a future nobody will resolve, or work waiting "
                "on another thread — use the real loop for that)"
            )
        if timeout > 0:
            self._loop._now += timeout + _TICK
        return super().select(0)


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """A ``SelectorEventLoop`` whose ``time()`` is a virtual clock."""

    def __init__(self) -> None:
        self._now = 0.0
        super().__init__(_SkippingSelector(self))

    def time(self) -> float:
        return self._now


def run(coro):
    """``asyncio.run`` on a fresh :class:`VirtualTimeLoop`."""
    loop = VirtualTimeLoop()
    try:
        return loop.run_until_complete(coro)
    finally:
        try:
            # A loop, not one pass: a cancelled wave hands its key on,
            # which can start another task.
            while leftovers := asyncio.all_tasks(loop):
                for task in leftovers:
                    task.cancel()
                loop.run_until_complete(
                    asyncio.gather(*leftovers, return_exceptions=True)
                )
        finally:
            loop.close()
