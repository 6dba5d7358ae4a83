"""Feed binding: the one rule, at plan level and through a Session.

The contract under test: arena execution aliases a feed that is
contiguous in its input slot's declared order — no staging memcpy, no
allocation, bit-identical outputs — and copies any other feed into the
slot's persistent buffer.  Observed through ``PlanArena.bytes_copied``:
no growth for aliased feeds, ``nbytes`` growth per staged feed.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import api
from repro.ir import trace
from repro.passes import default_pipeline
from repro.runtime import compile_plan
from repro.tensor import Tensor, random_general

N = 64


def _workload():
    ops = [random_general(N, seed=s) for s in (1, 2, 3)]

    def fn(a, b, c):
        acc = a
        for _ in range(4):
            acc = (acc @ b + c - a) @ a.T
        return 2.0 * acc + b - (-c) * 0.5

    graph = default_pipeline().run(trace(fn, ops))
    return graph, [t.data for t in ops]


@pytest.fixture(scope="module")
def workload():
    return _workload()


def _alloc_peak(fn, reps=30):
    fn()
    tracemalloc.start()
    tracemalloc.reset_peak()
    for _ in range(reps):
        fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


#: ``fused`` compiles through the ``fusion=True`` keyword the frozen e2e
#: benchmark still passes; kernel fusion is deleted, so that plan must
#: behave exactly like the bare call's.
VIA_KEYWORD = pytest.mark.parametrize("fusion", [False, True],
                                      ids=["plain", "fused"])


class TestPlanBinding:
    @VIA_KEYWORD
    def test_ordered_feeds_are_aliased_not_copied(self, workload, fusion):
        graph, feeds = workload
        plan = compile_plan(graph, fusion=fusion)
        arena = plan.new_arena()
        ref, _ = plan.execute(feeds, record=False)
        for _ in range(3):
            outs, _ = plan.execute(feeds, record=False, arena=arena)
            assert outs[0].tobytes() == ref[0].tobytes()
        # The aliasing is real: no bytes were staged, and no arena buffer
        # was ever materialized for the input slots.
        assert arena.bytes_copied == 0
        for spec in plan.inputs:
            assert arena.buffers[spec.slot] is None

    def test_aliasing_is_zero_allocation_after_warmup(self, workload):
        graph, feeds = workload
        plan = compile_plan(graph)
        arena = plan.new_arena()
        for _ in range(3):
            plan.execute(feeds, record=False, arena=arena)
        warm = arena.allocations
        peak = _alloc_peak(
            lambda: plan.execute(feeds, record=False, arena=arena)
        )
        assert peak < feeds[0].nbytes, f"aliased execution allocated: {peak}"
        assert arena.allocations == warm
        # ...and strictly: zero ndarray *data* allocations survive.
        tracemalloc.start()
        for _ in range(10):
            plan.execute(feeds, record=False, arena=arena)
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(
                inclusive=True, domain=np.lib.tracemalloc_domain)]
        )
        tracemalloc.stop()
        assert sum(s.size for s in snap.statistics("lineno")) == 0

    @pytest.mark.parametrize("record", [False, True])
    def test_other_layouts_are_copied(self, workload, record):
        graph, feeds = workload
        plan = compile_plan(graph)
        arena = plan.new_arena()
        ref, _ = plan.execute(feeds, record=False)
        strided = np.zeros((N, 2 * N), dtype=feeds[2].dtype)[:, ::2]
        strided[...] = feeds[2]
        mixed = [feeds[0], np.asfortranarray(feeds[1]), strided]
        for call in (1, 2):
            outs, _ = plan.execute(mixed, record=record, arena=arena)
            assert outs[0].tobytes() == ref[0].tobytes()
            # Exactly the F-ordered and the strided feed were staged, on
            # every call; the C one aliased.
            assert arena.bytes_copied == call * (
                feeds[1].nbytes + feeds[2].nbytes
            )
        assert arena.buffers[plan.inputs[0].slot] is None

    def test_aliased_record_pass_keeps_report_parity(self, workload):
        graph, feeds = workload
        plan = compile_plan(graph)
        _, rep_ref = plan.execute(feeds)
        _, rep = plan.execute(feeds, arena=plan.new_arena())
        assert rep.calls == rep_ref.calls
        assert rep.peak_bytes == rep_ref.peak_bytes

    def test_aliased_feeds_are_read_not_mutated(self, workload):
        graph, feeds = workload
        plan = compile_plan(graph)
        arena = plan.new_arena()
        before = [f.copy() for f in feeds]
        for _ in range(2):
            plan.execute(feeds, record=False, arena=arena)
        for f, b in zip(feeds, before):
            assert f.tobytes() == b.tobytes()


def _arena_of(f, *args):
    return f.get_concrete(*args).binding.arena


class TestSessionBinding:
    FN = staticmethod(lambda p, q: (p @ q + p).T @ q)

    def test_c_ordered_feeds_alias_f_ordered_feeds_copy(self):
        a_c, b_c = random_general(16, seed=1), random_general(16, seed=2)
        a_f = Tensor(np.asfortranarray(a_c.data))
        b_f = Tensor(np.asfortranarray(b_c.data))
        with api.Session() as plain:
            ref = plain.run(self.FN, a_c, b_c)
        with api.Session() as s:
            f = s.compile(self.FN)
            for _ in range(3):
                assert f(a_c, b_c).data.tobytes() == ref.data.tobytes()
            arena = _arena_of(f, a_c, b_c)
            assert arena.bytes_copied == 0
            for call in (1, 2, 3):
                assert f(a_f, b_f).data.tobytes() == ref.data.tobytes()
                assert arena.bytes_copied == call * (
                    a_f.data.nbytes + b_f.data.nbytes
                )
            assert "donat" not in s.stats().render()

    def test_rebinds_when_identity_or_layout_changes(self):
        """One persistent slot table, rebound in place: a different
        array, or the same values in another layout, must be picked up
        on the very next call."""
        a, b = random_general(16, seed=1), random_general(16, seed=2)
        other = random_general(16, seed=3)
        with api.Session() as plain:
            g = plain.compile(self.FN)
            ref_ab, ref_ob = g(a, b), g(other, b)
        with api.Session() as s:
            f = s.compile(self.FN)
            a_f = Tensor(np.asfortranarray(a.data))
            arena = _arena_of(f, a, b)
            for first, ref, staged in (
                (a, ref_ab, 0),                # aliased
                (other, ref_ob, 0),            # new identity, still aliased
                (a_f, ref_ab, a.data.nbytes),  # same values, F layout: copied
                (a, ref_ab, 0),                # back to the aliased array
            ):
                before = arena.bytes_copied
                assert f(first, b).data.tobytes() == ref.data.tobytes()
                assert arena.bytes_copied - before == staged
