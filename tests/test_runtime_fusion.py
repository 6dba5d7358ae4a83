"""The post-schedule fusion stage (repro.runtime.fusion).

Structure-level checks (what fuses, what must not) plus the fused-call
report representation.  Bit-parity of fused execution across the full
workload suite lives in tests/test_runtime_plans.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir import Interpreter, trace
from repro.passes import default_pipeline
from repro.runtime import compile_plan
from repro.tensor import random_general


def _plan_pair(fn, tensors, *, pipeline=True):
    graph = trace(fn, tensors)
    if pipeline:
        graph = default_pipeline().run(graph)
    feeds = [t.data for t in tensors]
    return compile_plan(graph), compile_plan(graph, fusion=True), feeds


@pytest.fixture
def ab():
    return [random_general(12, seed=1), random_general(12, seed=2)]


class TestElementwiseChains:
    def test_chain_collapses_to_one_instruction(self, ab):
        plain, fused, feeds = _plan_pair(
            lambda a, b: 2.0 * a + b - a, ab, pipeline=False
        )
        assert len(fused.instructions) < len(plain.instructions)
        assert fused.fusion_stats.ew_chains == 1
        assert fused.fusion_stats.ew_ops_fused == 3
        (inst,) = [i for i in fused.instructions if i.op == "fused"]
        assert inst.calls[0].kernel == "fused(scale+add+sub)"
        assert inst.calls[0].node_op == "fused"

    def test_combined_record_sums_member_flops(self, ab):
        plain, fused, feeds = _plan_pair(
            lambda a, b: 2.0 * a + b - a, ab, pipeline=False
        )
        _, rep_plain = plain.execute(feeds)
        _, rep_fused = fused.execute(feeds)
        assert rep_fused == rep_plain
        assert len(fused.instructions) < len(plain.instructions)

    def test_multiuse_value_blocks_fusion(self, ab):
        # t is consumed twice -> it must be materialized, not fused away.
        def fn(a, b):
            t = a + b
            return t - a, t + b

        plain, fused, feeds = _plan_pair(fn, ab, pipeline=False)
        assert fused.fusion_stats.ew_chains == 0
        outs_p, _ = plain.execute(feeds)
        outs_f, _ = fused.execute(feeds)
        for p, f in zip(outs_p, outs_f):
            assert p.tobytes() == f.tobytes()

    def test_single_elementwise_op_stays_unfused(self, ab):
        _, fused, _ = _plan_pair(lambda a, b: a + b, ab, pipeline=False)
        assert fused.fusion_stats.ew_chains == 0
        assert fused.fusion_stats.instructions_after == 1

    def test_describe_shows_fusion_summary(self, ab):
        _, fused, _ = _plan_pair(lambda a, b: 2.0 * a + b - a, ab,
                                 pipeline=False)
        text = fused.describe()
        assert "fusion:" in text and "fused(" in text


class TestGemmAlphaFold:
    def test_trailing_scale_folds(self, ab):
        plain, fused, feeds = _plan_pair(lambda a, b: 2.0 * (a @ b), ab,
                                         pipeline=False)
        assert fused.fusion_stats.gemm_folds == 1
        assert len(fused.instructions) == len(plain.instructions) - 1
        (inst,) = fused.instructions
        assert inst.calls[0].kernel == "fused(gemm+scale)"
        # FLOPs: gemm's 2mnk plus the scale's mn, exactly as unfused.
        _, rp = plain.execute(feeds)
        _, rf = fused.execute(feeds)
        assert rf.total_flops == rp.total_flops

    def test_neg_folds_as_minus_alpha(self, ab):
        plain, fused, feeds = _plan_pair(lambda a, b: -(a @ b), ab,
                                         pipeline=False)
        assert fused.fusion_stats.gemm_folds == 1
        outs_p, _ = plain.execute(feeds)
        outs_f, _ = fused.execute(feeds)
        assert outs_p[0].tobytes() == outs_f[0].tobytes()

    def test_only_one_factor_folds_per_gemm(self, ab):
        """A second trailing scale must NOT cascade into alpha: combining
        two rounded multiplies into one premultiplied factor drifts a ULP
        from the interpreter.  The first scale folds; the rest stay
        elementwise (and chain-fuse among themselves)."""
        expr = lambda a, b: -(3.0 * (2.0 * (a @ b)))  # noqa: E731
        _, fused, feeds = _plan_pair(expr, ab, pipeline=False)
        assert fused.fusion_stats.gemm_folds == 1
        kernels = [i.calls[0].kernel for i in fused.instructions]
        assert "fused(gemm+scale)" in kernels
        graph = trace(expr, ab)
        outs_i, rep_i = Interpreter(record=True).run(graph, feeds)
        outs_f, rep_f = fused.execute(feeds)
        assert outs_i[0].tobytes() == outs_f[0].tobytes()
        assert rep_i == rep_f

    def test_inexact_factor_pair_stays_bit_identical(self, ab):
        """Regression for the cascade bug: 3.0 * (3.0 * (A@B)) — folding
        both factors as alpha=9.0 differs from two sequential multiplies
        by 1 ULP; single-fold keeps bit parity."""
        expr = lambda a, b: 3.0 * (3.0 * (a @ b))  # noqa: E731
        graph = trace(expr, ab)
        feeds = [t.data for t in ab]
        outs_i, _ = Interpreter(record=True).run(graph, feeds)
        fused = compile_plan(graph, fusion=True)
        arena = fused.new_arena()
        for use in (None, arena, arena):
            outs_f, _ = fused.execute(feeds, record=False, arena=use)
            assert outs_i[0].tobytes() == outs_f[0].tobytes()

    def test_multiuse_gemm_result_not_folded(self, ab):
        def fn(a, b):
            t = a @ b
            return 2.0 * t + t

        _, fused, feeds = _plan_pair(fn, ab, pipeline=False)
        assert fused.fusion_stats.gemm_folds == 0

    def test_gemv_not_folded(self):
        # Only the dense GEMM path carries a foldable alpha; a
        # matrix-vector product lowers to GEMV and keeps its scale.
        a = random_general(12, seed=1)
        x = random_general(12, seed=3)
        _, fused, feeds = _plan_pair(
            lambda p, q: 2.0 * (p @ q[:, 0:1]), [a, x], pipeline=False
        )
        assert fused.fusion_stats.gemm_folds == 0
        outs, rep = fused.execute(feeds)
        assert "gemv" in {c.kernel for c in rep.calls}


class TestGemmBetaFold:
    """A single-consumer ``add``/``sub`` of a GEMM result with a *dead*
    addend folds into the BLAS call's C-accumulate (``beta=±1``).  The
    contract: bit-identical to the interpreter in every fusion × arena
    combination, and the interpreter's report."""

    EXPRS = {
        "add": lambda a, b: a @ b + b @ a,
        "add_flipped": lambda a, b: (a + a) + (a @ b),
        "sub_g_minus_c": lambda a, b: a @ b - b @ a,
        "sub_c_minus_g": lambda a, b: (a + b) - (a @ b),
    }

    @pytest.mark.parametrize("name", EXPRS, ids=list(EXPRS))
    def test_folds_and_stays_bit_identical(self, name, ab):
        expr = self.EXPRS[name]
        graph = trace(expr, ab)
        feeds = [t.data for t in ab]
        outs_i, rep_i = Interpreter(record=True).run(graph, feeds)
        fused = compile_plan(graph, fusion=True)
        assert fused.fusion_stats.gemm_beta_folds == 1
        arena = fused.new_arena()
        for use in (None, arena, arena):  # per-call, warming, warm
            outs_f, rep_f = fused.execute(feeds, arena=use)
            assert outs_i[0].tobytes() == outs_f[0].tobytes()
            assert rep_f == rep_i

    def test_combined_call_record(self, ab):
        fused = _plan_pair(lambda a, b: a @ b + b @ a, ab, pipeline=False)[1]
        (inst,) = [i for i in fused.instructions if i.calls[0].node_op == "fused"]
        assert inst.calls[0].kernel == "fused(gemm+add)"
        assert inst.calls[0].node_op == "fused"

    def test_live_addend_blocks_fold(self, ab):
        # The addend is an input — never dead, so the in-place accumulate
        # would overwrite a caller-visible value.  Must not fold.
        _, fused, _ = _plan_pair(lambda a, b: a @ b + a, ab, pipeline=False)
        assert fused.fusion_stats.gemm_beta_folds == 0

    def test_multiuse_addend_blocks_fold(self, ab):
        def fn(a, b):
            t = a + b
            return a @ b + t, t

        _, fused, _ = _plan_pair(fn, ab, pipeline=False)
        assert fused.fusion_stats.gemm_beta_folds == 0


class TestFoldAwareScheduling:
    """Pass 0: a beta-foldable gemm→add/sub pair whose members are *not*
    adjacent (the dead addend's producer sits between them) becomes
    adjacent by hoisting the independent interveners above the GEMM —
    then pass 1b folds as usual.  Values must be bit-identical to the
    interpreter, and so must the report: the plan derives it from the
    schedule before the hoist."""

    def test_non_adjacent_pair_folds(self, ab):
        # Schedule: [gemm, sub(c-producer), add] — sub is independent of
        # the gemm and produces the dead addend.
        def fn(a, b):
            return a @ b + (b - a)

        plain, fused, feeds = _plan_pair(fn, ab, pipeline=False)
        assert fused.fusion_stats.fold_sinks == 1
        assert fused.fusion_stats.gemm_beta_folds == 1
        graph = trace(fn, ab)
        outs_i, rep_i = Interpreter(record=True).run(graph, feeds)
        arena = fused.new_arena()
        for use in (None, arena, arena):
            outs_f, rep_f = fused.execute(feeds, arena=use)
            assert outs_i[0].tobytes() == outs_f[0].tobytes()
            assert rep_f == rep_i

    def test_adjacent_pair_needs_no_sink(self, ab):
        # The addend's producer is scheduled *before* the GEMM already:
        # [add, gemm, add] — the pair is adjacent, nothing to hoist.
        _, fused, _ = _plan_pair(lambda a, b: (a + a) + a @ b, ab,
                                 pipeline=False)
        assert fused.fusion_stats.fold_sinks == 0
        assert fused.fusion_stats.gemm_beta_folds == 1

    def test_two_gemm_sum_sinks_once_and_folds(self, ab):
        # a@b + b@a: the first GEMM's consumer is non-adjacent (the
        # second GEMM sits between) — the scheduler hoists it, and
        # exactly one fold fires, bit-identically.
        plain, fused, feeds = _plan_pair(lambda a, b: a @ b + b @ a, ab,
                                         pipeline=False)
        assert fused.fusion_stats.fold_sinks == 1
        assert fused.fusion_stats.gemm_beta_folds == 1
        outs_p, _ = plain.execute(feeds)
        outs_f, _ = fused.execute(feeds)
        assert outs_p[0].tobytes() == outs_f[0].tobytes()

    def test_dependent_intervener_blocks_sink(self, ab):
        # The instruction between gemm and add *reads the gemm result*
        # (transpose of it): hoisting would read a stale slot, so the
        # scheduler must leave the order alone and no fold fires.
        def fn(a, b):
            g = a @ b
            return g + g.T

        _, fused, feeds = _plan_pair(fn, ab, pipeline=False)
        assert fused.fusion_stats.fold_sinks == 0
        assert fused.fusion_stats.gemm_beta_folds == 0
        graph = trace(fn, ab)
        outs_i, _ = Interpreter(record=True).run(graph, feeds)
        outs_f, _ = fused.execute(feeds)
        assert outs_i[0].tobytes() == outs_f[0].tobytes()

    def test_multiple_interveners_sink_together(self, ab):
        # Two independent producers (chain-fused or not) between the
        # GEMM and its consumer: all hoist, the fold fires, values are
        # bit-identical in every mode.
        def fn(a, b):
            return a @ b + (b - a + b)

        _, fused, feeds = _plan_pair(fn, ab, pipeline=False)
        assert fused.fusion_stats.fold_sinks == 1
        assert fused.fusion_stats.gemm_beta_folds == 1
        graph = trace(fn, ab)
        outs_i, _ = Interpreter(record=True).run(graph, feeds)
        arena = fused.new_arena()
        for use in (None, arena, arena):
            outs_f, _ = fused.execute(feeds, arena=use)
            assert outs_i[0].tobytes() == outs_f[0].tobytes()

    def test_describe_mentions_sinks(self, ab):
        _, fused, _ = _plan_pair(lambda a, b: a @ b + (b - a), ab,
                                 pipeline=False)
        assert "1 beta-folds (1 scheduled)" in fused.fusion_stats.describe()

    def test_alpha_folded_gemm_not_beta_folded(self, ab):
        # alpha != 1 would let BLAS FMA-contract alpha·acc against C —
        # one rounding where the interpreter has two.  The alpha fold
        # wins (adjacent scale); the add stays elementwise.
        def fn(a, b):
            return 2.0 * (a @ b) + (b @ a)

        graph = trace(fn, ab)
        feeds = [t.data for t in ab]
        fused = compile_plan(graph, fusion=True)
        assert fused.fusion_stats.gemm_folds == 1
        # The second gemm (b@a) has a live single-consumer... its result
        # feeds the add whose other operand is the alpha-folded site's
        # result; whichever way it resolved, outputs stay bit-identical.
        outs_i, _ = Interpreter(record=True).run(graph, feeds)
        for use in (None, fused.new_arena()):
            outs_f, _ = fused.execute(feeds, arena=use)
            assert outs_i[0].tobytes() == outs_f[0].tobytes()

    def test_gemm_result_plus_itself_not_beta_folded(self, ab):
        def fn(a, b):
            t = a @ b
            return t + t

        _, fused, _ = _plan_pair(fn, ab, pipeline=False)
        assert fused.fusion_stats.gemm_beta_folds == 0

    def test_fold_never_mutates_a_passed_through_feed(self, ab):
        """Slot liveness is not object ownership: an op can hand an
        *input array* through unchanged (here a fori_loop identity
        body), so the accumulate must never write through the addend
        object.  Regression: overwrite_c=1 in per-call mode corrupted
        the caller's feed and made repeat calls disagree."""
        from repro.frameworks import tfsim

        def fn(p, q):
            return tfsim.fori_loop(3, lambda i, x, pp: x, q, [p]) + p @ p

        graph = trace(fn, ab)
        feeds = [np.asfortranarray(t.data) for t in ab]
        kept = [f.copy() for f in feeds]
        fused = compile_plan(graph, fusion=True)
        assert fused.fusion_stats.gemm_beta_folds == 1
        first, _ = fused.execute(feeds, record=False)
        first = [o.copy() for o in first]
        for f, k in zip(feeds, kept):
            assert f.tobytes() == k.tobytes(), "caller feed was mutated"
        again, _ = fused.execute(feeds, record=False)
        assert first[0].tobytes() == again[0].tobytes()
        outs_i, _ = Interpreter(record=True).run(graph, feeds)
        assert outs_i[0].tobytes() == again[0].tobytes()

    def test_mixed_operand_dtypes_raise_like_unfused(self, ab):
        """A beta-folded GEMM must not silently downcast a mismatched B
        operand: the unfused plan raises DTypeError, so the fused one
        must too (regression: only the addend dtype was checked)."""
        from repro.errors import DTypeError
        from repro.frameworks import tfsim
        from repro.tensor import Tensor

        k64 = np.ones((12, 12), dtype=np.float64)

        def fn(a, b):
            return b @ a + a @ tfsim.constant(k64)

        # Trace uniformly in float64 (tracing rejects mixed dtypes)...
        a64 = [Tensor(t.data.astype(np.float64)) for t in ab]
        graph = trace(fn, a64)
        fused = compile_plan(graph, fusion=True)
        assert fused.fusion_stats.gemm_beta_folds == 1
        plain = compile_plan(graph)
        # ...then feed float32: the float64 const makes `a @ K` mixed at
        # execution time.
        feeds32 = [t.data for t in ab]
        with pytest.raises(DTypeError):
            plain.execute(feeds32, record=False)
        with pytest.raises(DTypeError):
            fused.execute(feeds32, record=False)
        with pytest.raises(DTypeError):
            fused.execute(feeds32, record=False, arena=fused.new_arena())

    def test_integer_feeds_fall_back(self, ab):
        graph = trace(lambda a, b: a @ b + b @ a, ab)
        fused = compile_plan(graph, fusion=True)
        assert fused.fusion_stats.gemm_beta_folds == 1
        feeds = [np.arange(144, dtype=np.int64).reshape(12, 12),
                 np.ones((12, 12), dtype=np.int64)]
        ref, _ = fused.execute(feeds, record=False)
        plain = compile_plan(graph)
        exp, _ = plain.execute(feeds, record=False)
        assert ref[0].dtype == exp[0].dtype
        assert ref[0].tobytes() == exp[0].tobytes()
        outs, _ = fused.execute(feeds, record=False, arena=fused.new_arena())
        assert outs[0].tobytes() == exp[0].tobytes()


class TestArenaAliasing:
    """Fused sites whose destination slot recycles an operand slot must
    stage through the scratch buffer, not clobber live operands."""

    def test_recycled_destination_slots_stay_correct(self):
        ops = [random_general(16, seed=s) for s in (1, 2, 3)]

        def fn(a, b, c):
            acc = a
            for _ in range(6):
                acc = (acc @ b + c - a) @ a.T
            return 2.0 * acc + b - (-c) * 0.5

        graph = default_pipeline().run(trace(fn, ops))
        feeds = [t.data for t in ops]
        outs_i, _ = Interpreter(record=True).run(graph, feeds)
        plan = compile_plan(graph, fusion=True)
        assert any(i.scratch is not None for i in plan.instructions)
        arena = plan.new_arena()
        for _ in range(3):
            outs_f, _ = plan.execute(feeds, record=False, arena=arena)
            assert all(
                i.tobytes() == f.tobytes() for i, f in zip(outs_i, outs_f)
            )

    def test_fused_chain_output_can_be_graph_output(self, ab):
        plain, fused, feeds = _plan_pair(
            lambda a, b: (2.0 * a + b, a @ b), ab, pipeline=False
        )
        outs_p, _ = plain.execute(feeds)
        outs_f, _ = fused.execute(feeds)
        for p, f in zip(outs_p, outs_f):
            assert p.tobytes() == f.tobytes()


class TestPlanProperties:
    def test_plan_flops_matches_report_with_fusion(self, ab):
        _, fused, feeds = _plan_pair(
            lambda a, b: 2.0 * (a @ b) + b - a, ab, pipeline=False
        )
        _, report = fused.execute(feeds)
        assert fused.flops == report.total_flops

    def test_fusion_stats_bookkeeping(self, ab):
        plain, fused, _ = _plan_pair(
            lambda a, b: 2.0 * a + b - a, ab, pipeline=False
        )
        st = fused.fusion_stats
        assert st.instructions_before == len(plain.instructions)
        assert st.instructions_after == len(fused.instructions)
        assert st.sites == st.ew_chains + st.gemm_folds
        assert plain.fusion_stats is None

    def test_fused_events_replay_matches_interpreter_memory(self, ab):
        """The report comes from the schedule before fusion: chains and
        an alpha fold, and a beta fold the scheduler sank below its
        addend's producer, report exactly what the interpreter does —
        per call, through an arena and as ``plan.report``."""
        for fn, sinks in (
            (lambda a, b: (a @ b + b - a) @ (2.0 * a), 0),
            (lambda a, b: a @ b + (b - a), 1),
        ):
            graph = trace(fn, ab)
            feeds = [t.data for t in ab]
            _, rep_i = Interpreter(record=True).run(graph, feeds)
            fused = compile_plan(graph, fusion=True)
            assert fused.fusion_stats.fold_sinks == sinks
            assert fused.report == rep_i
            for arena in (None, fused.new_arena()):
                assert fused.execute(feeds, arena=arena)[1] == rep_i
