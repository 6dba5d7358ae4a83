"""``Session.run_batch``: one compiled function over many feed sets — a
plain loop over the same warm executor single calls use."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import api
from repro.errors import GraphError
from repro.runtime import PinnedBinding
from repro.tensor import random_general

ARENAS = ["per-call", "preallocated"]


def gram(a, b):
    return (a.T @ b).T @ (a.T @ b)


def _feed_sets(count=6, n=12):
    return [
        [random_general(n, seed=100 + i), random_general(n, seed=200 + i)]
        for i in range(count)
    ]


def _expected(feed_sets):
    with api.Session() as plain:
        f = plain.compile(gram)
        return [f(*feeds).data.tobytes() for feeds in feed_sets]


@pytest.fixture(params=ARENAS)
def session(request):
    with api.Session(arena=request.param, fusion=True) as s:
        yield s


def test_matches_single_runs(session):
    feed_sets = _feed_sets()
    batch = session.run_batch(session.compile(gram), feed_sets)
    assert len(batch) == len(feed_sets)
    assert [outs[0].tobytes() for outs in batch.outputs] == _expected(feed_sets)
    # Outputs are detached copies, not views of shared arena storage.
    assert batch.outputs[0][0].base is None


def test_reports_are_the_one_cached_report(session):
    feed_sets = _feed_sets(3)
    f = session.compile(gram)
    f(*feed_sets[0])
    batch = session.run_batch(f, feed_sets)
    assert all(r is f.last_report for r in batch.reports)
    assert f.last_report.calls
    assert batch.total_flops == f.last_report.total_flops * len(feed_sets)


def test_first_outputs_helper(session):
    batch = session.run_batch(session.compile(gram), _feed_sets(3))
    firsts = batch.first_outputs()
    assert len(firsts) == 3
    assert all(isinstance(f, np.ndarray) for f in firsts)


def test_empty_batch(session):
    batch = session.run_batch(session.compile(gram), [])
    assert len(batch) == 0 and batch.total_flops == 0


# -- failure paths ------------------------------------------------------------
#
# A feed set that raises mid-batch must surface the error and leave the
# system reusable: results handed out earlier untouched, the executor's
# slot table and buffers valid (every slot is rewritten by the next run).


def test_bad_feed_surfaces_and_leaves_executor_valid(session):
    feed_sets = _feed_sets()
    expected = _expected(feed_sets)
    f = session.compile(gram)
    earlier = session.run_batch(f, feed_sets)
    bad = list(feed_sets)
    bad[3] = [random_general(5, seed=9), random_general(5, seed=10)]
    with pytest.raises(GraphError):
        session.run_batch(f, bad)
    assert [outs[0].tobytes() for outs in earlier.outputs] == expected
    again = session.run_batch(f, feed_sets)
    assert [outs[0].tobytes() for outs in again.outputs] == expected
    assert f(*feed_sets[2]).data.tobytes() == expected[2]


def test_failure_inside_execution_releases_the_executor(monkeypatch):
    """An error raised *inside* the serving pass (after the feeds were
    bound, under the executor's lock) propagates and leaves the lock
    free and the buffers reusable."""
    feed_sets = _feed_sets()
    expected = _expected(feed_sets)
    with api.Session(arena="preallocated", fusion=True) as s:
        f = s.compile(gram)
        f(*feed_sets[0])  # the recording pass; later calls serve
        real = PinnedBinding.execute
        calls = []

        def flaky(binding):
            calls.append(binding)
            if len(calls) == 3:
                raise RuntimeError("kernel blew up")
            return real(binding)

        monkeypatch.setattr(PinnedBinding, "execute", flaky)
        with pytest.raises(RuntimeError, match="blew up"):
            s.run_batch(f, feed_sets)
        monkeypatch.setattr(PinnedBinding, "execute", real)
        assert f.get_concrete(*feed_sets[0]).lock.acquire(blocking=False)
        f.get_concrete(*feed_sets[0]).lock.release()
        batch = s.run_batch(f, feed_sets)
        assert [outs[0].tobytes() for outs in batch.outputs] == expected


# -- concurrency --------------------------------------------------------------


def test_batches_and_single_calls_interleave_on_one_executor():
    """The executor's lock is taken per feed, so batches and single
    calls from more threads than cores share one slot table without
    ever seeing each other's feeds."""
    threads_n = 4
    per_thread = [_feed_sets(4, n=12) for _ in range(threads_n)]
    for t, sets in enumerate(per_thread):  # distinct data per thread
        for feeds in sets:
            feeds[0].data[...] += t
    expected = [_expected(sets) for sets in per_thread]
    errors: list = []
    with api.Session(arena="preallocated", fusion=True) as s:
        f = s.compile(gram)

        def worker(t):
            try:
                for _ in range(15):
                    batch = s.run_batch(f, per_thread[t])
                    got = [outs[0].tobytes() for outs in batch.outputs]
                    single = f(*per_thread[t][1]).data.tobytes()
                    if got != expected[t] or single != expected[t][1]:
                        errors.append(t)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(threads_n)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
    assert errors == []
