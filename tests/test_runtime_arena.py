"""Preallocated-arena execution (repro.runtime.plan.PlanArena).

The headline claim under test: after warmup, repeated execution of a
plan through an arena performs **zero ndarray allocations** — verified
two ways, with ``tracemalloc`` peaks (any intermediate would show up as a
matrix-sized transient) and with numpy's tracemalloc domain (no ndarray
*data* allocations survive).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.frameworks import tfsim
from repro.ir import Interpreter, trace
from repro.passes import aware_pipeline, default_pipeline
from repro.runtime import compile_plan
from repro.tensor import (
    random_general,
    random_lower_triangular,
    random_symmetric,
    random_tridiagonal,
    random_vector,
)

N = 64  # one float32 matrix = N*N*4 = 16 KiB; python-object noise ~1 KiB


def _workload():
    """Dispatch-bound mix covering the destination-aware kernels:
    elementwise chains, GEMM (plain + trans), transpose."""
    ops = [random_general(N, seed=s) for s in (1, 2, 3)]

    def fn(a, b, c):
        acc = a
        for _ in range(4):
            acc = (acc @ b + c - a) @ a.T
        return 2.0 * acc + b - (-c) * 0.5

    graph = default_pipeline().run(trace(fn, ops))
    return graph, [t.data for t in ops]


def _alloc_peak(fn, reps=30):
    """Peak traced bytes across ``reps`` calls (after one warm call)."""
    fn()
    tracemalloc.start()
    tracemalloc.reset_peak()
    for _ in range(reps):
        fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


@pytest.fixture(scope="module")
def workload():
    return _workload()


#: ``fused`` compiles through the ``fusion=True`` keyword the frozen e2e
#: benchmark still passes; kernel fusion is deleted, so that plan must
#: behave exactly like the bare call's.
VIA_KEYWORD = pytest.mark.parametrize("fusion", [False, True],
                                      ids=["plain", "fused"])


class TestAllocationFree:
    @VIA_KEYWORD
    def test_zero_ndarray_allocations_after_warmup(self, workload, fusion):
        graph, feeds = workload
        plan = compile_plan(graph, fusion=fusion)
        arena = plan.new_arena()
        for _ in range(3):
            plan.execute(feeds, record=False, arena=arena)
        warm_allocs = arena.allocations
        peak = _alloc_peak(lambda: plan.execute(feeds, record=False,
                                                arena=arena))
        # Any materialized intermediate would add >= one matrix to the
        # peak; all that remains is python-object churn.
        matrix_bytes = feeds[0].nbytes
        assert peak < matrix_bytes, f"arena execution allocated: peak={peak}"
        assert arena.allocations == warm_allocs  # no buffer was replaced
        # And per-call mode *does* allocate on the same workload — the
        # measurement is sensitive, not vacuous.
        assert _alloc_peak(
            lambda: plan.execute(feeds, record=False)
        ) > matrix_bytes

    def test_no_live_ndarray_data_allocations(self, workload):
        graph, feeds = workload
        plan = compile_plan(graph)
        arena = plan.new_arena()
        plan.execute(feeds, record=False, arena=arena)
        tracemalloc.start()
        for _ in range(10):
            plan.execute(feeds, record=False, arena=arena)
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(
                inclusive=True, domain=np.lib.tracemalloc_domain)]
        )
        tracemalloc.stop()
        assert sum(s.size for s in snap.statistics("lineno")) == 0


class TestLoopBodies:
    """``fori_loop`` sub-plans execute through persistent ping-pong child
    arenas: iterative workloads are allocation-free after warmup too."""

    def _power_iteration(self):
        a = random_general(N, seed=1)
        v = random_vector(N, seed=2)

        def body(i, x, aa):
            return 0.05 * (aa @ x)

        def fn(p, q):
            return tfsim.fori_loop(10, body, q, [p])

        graph = default_pipeline().run(trace(fn, [a, v]))
        return graph, [a.data, v.data]

    @VIA_KEYWORD
    def test_loop_zero_ndarray_allocations_after_warmup(self, fusion):
        graph, feeds = self._power_iteration()
        plan = compile_plan(graph, fusion=fusion)
        arena = plan.new_arena()
        ref, _ = plan.execute(feeds, record=False)
        for _ in range(3):  # both ping-pong child arenas must warm
            outs, _ = plan.execute(feeds, record=False, arena=arena)
            assert outs[0].tobytes() == ref[0].tobytes()
        tracemalloc.start()
        for _ in range(10):
            plan.execute(feeds, record=False, arena=arena)
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(
                inclusive=True, domain=np.lib.tracemalloc_domain)]
        )
        tracemalloc.stop()
        assert sum(s.size for s in snap.statistics("lineno")) == 0

    def test_loop_carried_value_is_aliased_not_copied(self):
        """After warmup an iteration stages nothing: the carried value and
        the captures alias arena buffers across the loop boundary."""
        graph, feeds = self._power_iteration()
        plan = compile_plan(graph)
        arena = plan.new_arena()
        for _ in range(3):
            plan.execute(feeds, record=False, arena=arena)
        (state,) = arena.loops.values()
        copied = [child.bytes_copied for child in state.arenas]
        plan.execute(feeds, record=False, arena=arena)
        assert [c.bytes_copied for c in state.arenas] == copied

    def test_loop_report_parity_through_arena(self):
        graph, feeds = self._power_iteration()
        outs_i, rep_i = Interpreter(record=True).run(graph, feeds)
        plan = compile_plan(graph)
        arena = plan.new_arena()
        for _ in range(2):
            outs_p, rep_p = plan.execute(feeds, arena=arena)
            assert outs_p[0].tobytes() == outs_i[0].tobytes()
            assert rep_p.calls == rep_i.calls
            assert rep_p.peak_bytes == rep_i.peak_bytes


class TestStructuredKernels:
    """TRMM/SYMM/SYRK and the diagonal/tridiagonal specials write arena
    destinations directly — no compute-then-copy, no allocations."""

    CASES = {
        "trmm": (lambda l, b: l @ b, ["L", "B"]),
        "trmm_right": (lambda b, l: b @ l, ["B", "L"]),
        "symm": (lambda s, b: s @ b, ["S", "B"]),
        "syrk": (lambda a: a @ a.T, ["A"]),
        "tridiag": (lambda t, b: t @ b, ["T", "B"]),
    }

    @pytest.mark.parametrize("case", CASES, ids=list(CASES))
    def test_structured_arena_zero_data_allocations(self, case):
        fn, keys = self.CASES[case]
        pool = {
            "A": random_general(N, seed=1),
            "B": random_general(N, seed=2),
            "L": random_lower_triangular(N, seed=5),
            "S": random_symmetric(N, seed=6),
            "T": random_tridiagonal(N, seed=9),
        }
        args = [pool[k] for k in keys]
        graph = aware_pipeline().run(trace(fn, args))
        feeds = [t.data for t in args]
        outs_i, rep_i = Interpreter(record=True).run(graph, feeds)
        plan = compile_plan(graph)
        arena = plan.new_arena()
        plan.execute(feeds, record=False, arena=arena)
        staged = arena.bytes_copied  # feed staging only
        tracemalloc.start()
        for _ in range(5):
            outs, _ = plan.execute(feeds, record=False, arena=arena)
            assert outs[0].tobytes() == outs_i[0].tobytes()
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(
                inclusive=True, domain=np.lib.tracemalloc_domain)]
        )
        tracemalloc.stop()
        assert sum(s.size for s in snap.statistics("lineno")) == 0
        # No compute-then-copy landings: the only copies stage the feeds
        # whose (C) layout differs from their slot's declared order.
        per_call = sum(
            f.nbytes for spec, f in zip(plan.inputs, feeds)
            if plan.slot_orders[spec.slot] == "F"
        )
        assert arena.bytes_copied == staged + 5 * per_call


class TestArenaSemantics:
    def test_outputs_alias_arena_and_are_overwritten(self, workload):
        graph, feeds = workload
        plan = compile_plan(graph)
        arena = plan.new_arena()
        first, _ = plan.execute(feeds, record=False, arena=arena)
        kept = first[0].copy()
        # Executing with different feeds rewrites the aliased buffer...
        other = [np.full_like(feeds[0], 0.5), feeds[1], feeds[2]]
        second, _ = plan.execute(other, record=False, arena=arena)
        assert second[0] is first[0]
        assert first[0].tobytes() != kept.tobytes()
        # ...and re-running the original feeds restores the original bits.
        plan.execute(feeds, record=False, arena=arena)
        assert first[0].tobytes() == kept.tobytes()

    def test_arena_does_not_mutate_user_feeds(self, workload):
        graph, feeds = workload
        plan = compile_plan(graph)
        arena = plan.new_arena()
        before = [f.copy() for f in feeds]
        plan.execute(feeds, record=False, arena=arena)
        for f, b in zip(feeds, before):
            assert f.tobytes() == b.tobytes()

    def test_passed_through_feed_is_never_written(self):
        """Slot liveness is not object ownership: a ``fori_loop`` identity
        body hands an input array through unchanged, and nothing
        downstream may write through it — arena-less or through an
        arena, on the first call or a repeat."""
        ab = [random_general(12, seed=1), random_general(12, seed=2)]

        def fn(p, q):
            return tfsim.fori_loop(3, lambda i, x, pp: x, q, [p]) + p @ p

        graph = trace(fn, ab)
        feeds = [np.asfortranarray(t.data) for t in ab]
        kept = [f.copy() for f in feeds]
        ref, _ = Interpreter(record=False).run(graph, feeds)
        plan = compile_plan(graph)
        arena = plan.new_arena()
        for use in (None, None, arena, arena):
            outs, _ = plan.execute(feeds, record=False, arena=use)
            assert outs[0].tobytes() == ref[0].tobytes()
            for f, k in zip(feeds, kept):
                assert f.tobytes() == k.tobytes(), "caller feed was mutated"

    def test_recycled_slots_stay_correct_across_calls(self):
        """A long chain recycles dead temporaries' slots, so an arena
        buffer holds a different value at each point of the pass; repeated
        arena calls stay bit-identical to the Interpreter."""
        ops = [random_general(16, seed=s) for s in (1, 2, 3)]

        def fn(a, b, c):
            acc = a
            for _ in range(6):
                acc = (acc @ b + c - a) @ a.T
            return 2.0 * acc + b - (-c) * 0.5

        graph = default_pipeline().run(trace(fn, ops))
        feeds = [t.data for t in ops]
        ref, _ = Interpreter(record=False).run(graph, feeds)
        plan = compile_plan(graph)
        assert plan.num_slots < len(plan.instructions)
        arena = plan.new_arena()
        for _ in range(3):
            outs, _ = plan.execute(feeds, record=False, arena=arena)
            assert outs[0].tobytes() == ref[0].tobytes()

    def test_dtype_change_rewarms_without_breaking(self, workload):
        graph, feeds = workload
        plan = compile_plan(graph)
        arena = plan.new_arena()
        plan.execute(feeds, record=False, arena=arena)  # float32 warmup
        warm = arena.allocations
        feeds64 = [f.astype(np.float64) for f in feeds]
        outs64, _ = plan.execute(feeds64, record=False, arena=arena)
        assert outs64[0].dtype == np.float64
        assert arena.allocations > warm  # rewarmed for the new dtype
        ref64, _ = plan.execute(feeds64, record=False)
        assert outs64[0].tobytes() == ref64[0].tobytes()

    def test_two_arenas_are_independent(self, workload):
        graph, feeds = workload
        plan = compile_plan(graph)
        a1, a2 = plan.new_arena(), plan.new_arena()
        o1, _ = plan.execute(feeds, record=False, arena=a1)
        o2, _ = plan.execute(feeds, record=False, arena=a2)
        assert o1[0] is not o2[0]
        assert o1[0].tobytes() == o2[0].tobytes()

    def test_report_accounting_is_arena_independent(self, workload):
        """The modelled report (a memory *model*) must not change just
        because real buffers are reused."""
        graph, feeds = workload
        outs_i, rep_i = Interpreter(record=True).run(graph, feeds)
        plan = compile_plan(graph)
        arena = plan.new_arena()
        for _ in range(2):  # warm and repeat: stable accounting
            _, rep = plan.execute(feeds, arena=arena)
            assert rep.calls == rep_i.calls
            assert rep.peak_bytes == rep_i.peak_bytes
            assert rep.live_bytes == rep_i.live_bytes

    def test_structured_kernels_write_destinations(self):
        """TRMM executes destination-aware in arena mode (compute-then-
        copy fell away this PR); outputs stay bit-identical either way."""
        l_mat = random_lower_triangular(16, seed=5)
        b = random_general(16, seed=2)
        graph = aware_pipeline().run(trace(lambda l, p: l @ p, [l_mat, b]))
        feeds = [l_mat.data, b.data]
        plan = compile_plan(graph)
        arena = plan.new_arena()
        ref, rep = plan.execute(feeds)
        assert "trmm" in {c.kernel for c in rep.calls}
        for _ in range(2):
            outs, _ = plan.execute(feeds, record=False, arena=arena)
            assert outs[0].tobytes() == ref[0].tobytes()

    def test_non_blas_dtype_feeds_match_per_call(self):
        """Integer feeds have no BLAS routine: the arena GEMM path must
        fall back to the coercing wrapper, matching per-call mode instead
        of crashing on the dtype-dispatch lookup."""
        ab = [random_general(8, seed=1), random_general(8, seed=2)]
        graph = trace(lambda a, b: a @ b + a, ab)
        plan = compile_plan(graph)
        feeds = [np.arange(64, dtype=np.int64).reshape(8, 8),
                 np.ones((8, 8), dtype=np.int64)]
        ref, _ = plan.execute(feeds, record=False)
        outs, _ = plan.execute(feeds, record=False, arena=plan.new_arena())
        assert outs[0].dtype == ref[0].dtype
        assert outs[0].tobytes() == ref[0].tobytes()

    def test_constants_are_staged_once(self):
        from repro.frameworks import tfsim

        a = random_general(8, seed=1)
        graph = trace(lambda p: p + tfsim.ones(8, 8), [a])
        plan = compile_plan(graph)
        arena = plan.new_arena()
        ref, _ = plan.execute([a.data], record=False)
        plan.execute([a.data], record=False, arena=arena)
        warm = arena.allocations
        outs, _ = plan.execute([a.data], record=False, arena=arena)
        assert arena.allocations == warm
        assert outs[0].tobytes() == ref[0].tobytes()
