"""Tests for the default (TF/PyT-faithful) optimizer passes."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.ir import Graph, Node, builder, run_graph, trace
from repro.ir.tracing import trace_loop
from repro.passes import (
    ArithmeticSimplification,
    CommonSubexpressionElimination,
    ConstantFolding,
    GraphPass,
    LoopInvariantCodeMotion,
    NoOpElimination,
    PassPipeline,
    TransposeElimination,
    default_pipeline,
)


def _check_semantics(fn, args, pipeline=None):
    """Trace fn, optimize, and assert optimized == unoptimized numerically."""
    g = trace(fn, args)
    feeds = [a.data for a in args]
    before, _ = run_graph(g, feeds)
    opt = (pipeline or default_pipeline()).run(g)
    after, report = run_graph(opt, feeds)
    for x, y in zip(before, after):
        assert np.allclose(x, y, rtol=1e-3, atol=1e-4)
    return opt, report


class TestCSE:
    def test_paper_e2_dedups(self, operands):
        """(AᵀB)ᵀ(AᵀB): 3 GEMMs -> 2 (paper Fig. 3 / Table I row 2)."""
        opt, report = _check_semantics(
            lambda a, b: (a.T @ b).T @ (a.T @ b), [operands["A"], operands["B"]]
        )
        assert report.kernel_counts()["gemm"] == 2

    def test_paper_e3_finds_nothing(self, operands):
        """(AᵀB)ᵀAᵀB: left-to-right chain, no duplicates (Fig. 4) -> 3 GEMMs."""
        opt, report = _check_semantics(
            lambda a, b: (a.T @ b).T @ a.T @ b, [operands["A"], operands["B"]]
        )
        assert report.kernel_counts()["gemm"] == 3

    def test_inputs_never_merged(self, n):
        a = builder.input_node((n, n), "float32", name="a")
        b = builder.input_node((n, n), "float32", name="b")
        g = Graph([builder.add(a, b)], inputs=[a, b])
        out = CommonSubexpressionElimination().run(g)
        assert len(out.inputs) == 2

    def test_attrs_distinguish(self, operands):
        """matmul(a,b) and matmul(a,b,trans_a) must NOT merge."""
        a = builder.input_node((8, 8), "float32")
        b = builder.input_node((8, 8), "float32")
        m1 = builder.matmul(a, b)
        m2 = builder.matmul(a, b, trans_a=True)
        g = Graph([builder.add(m1, m2)])
        out = CommonSubexpressionElimination().run(g)
        assert out.op_counts()["matmul"] == 2

    def test_identical_consts_merge(self):
        c1 = builder.const(np.ones((4, 4), dtype=np.float32))
        c2 = builder.const(np.ones((4, 4), dtype=np.float32))
        g = Graph([builder.add(c1, c2)])
        out = CommonSubexpressionElimination().run(g)
        assert out.op_counts()["const"] == 1

    def test_deep_structural_merge(self, operands):
        """Duplicates several levels deep collapse bottom-up."""
        opt, report = _check_semantics(
            lambda a, b: ((a @ b) @ (a @ b)) + ((a @ b) @ (a @ b)),
            [operands["A"], operands["B"]],
        )
        assert opt.op_counts()["matmul"] == 2  # a@b and (a@b)@(a@b)


class TestTransposeElimination:
    def test_double_transpose_cancels(self, operands):
        opt, _ = _check_semantics(
            lambda a: a.T.T, [operands["A"]],
            pipeline=PassPipeline([TransposeElimination()]),
        )
        assert opt.op_counts().get("transpose", 0) == 0

    def test_transpose_fuses_into_matmul(self, operands):
        opt, report = _check_semantics(
            lambda a, b: a.T @ b, [operands["A"], operands["B"]],
            pipeline=PassPipeline([TransposeElimination()]),
        )
        assert opt.op_counts().get("transpose", 0) == 0
        (mm,) = opt.nodes_by_op("matmul")
        assert mm.attrs["trans_a"] is True

    def test_transpose_of_transpose_in_matmul(self, operands):
        opt, _ = _check_semantics(
            lambda a, b: a.T.T @ b.T, [operands["A"], operands["B"]],
            pipeline=PassPipeline([TransposeElimination()]),
        )
        (mm,) = opt.nodes_by_op("matmul")
        assert mm.attrs["trans_a"] is False
        assert mm.attrs["trans_b"] is True

    def test_transpose_kept_for_add_consumer(self, operands):
        opt, _ = _check_semantics(
            lambda a: a.T + a, [operands["A"]],
            pipeline=PassPipeline([TransposeElimination()]),
        )
        assert opt.op_counts().get("transpose", 0) == 1


class TestArithmetic:
    def test_x_plus_x_becomes_scale(self, operands):
        """Paper Experiment 1: AᵀB + AᵀB -> 2·(AᵀB)."""
        opt, report = _check_semantics(
            lambda a, b: a.T @ b + a.T @ b, [operands["A"], operands["B"]]
        )
        counts = report.kernel_counts()
        assert counts["gemm"] == 1
        assert counts["scale"] == 1

    def test_neg_normalized(self, operands):
        opt, _ = _check_semantics(
            lambda a: -a, [operands["A"]],
            pipeline=PassPipeline([ArithmeticSimplification()]),
        )
        assert opt.op_counts().get("neg", 0) == 0
        assert opt.op_counts().get("scale", 0) == 1

    def test_scale_chain_collapses(self, operands):
        opt, _ = _check_semantics(
            lambda a: (a * 2.0) * 3.0, [operands["A"]],
            pipeline=PassPipeline([ArithmeticSimplification()]),
        )
        (s,) = opt.nodes_by_op("scale")
        assert s.attrs["alpha"] == pytest.approx(6.0)

    def test_ax_plus_bx_combines(self, operands):
        opt, _ = _check_semantics(
            lambda a: a * 2.0 + a * 3.0, [operands["A"]],
            pipeline=PassPipeline([ArithmeticSimplification()]),
        )
        assert opt.op_counts().get("add", 0) == 0
        (s,) = opt.nodes_by_op("scale")
        assert s.attrs["alpha"] == pytest.approx(5.0)

    def test_x_minus_x_is_zero_scale(self, operands):
        opt, _ = _check_semantics(
            lambda a: a - a, [operands["A"]],
            pipeline=PassPipeline([ArithmeticSimplification()]),
        )
        (s,) = opt.nodes_by_op("scale")
        assert s.attrs["alpha"] == 0.0

    def test_sub_after_cse(self, operands):
        """CSE must run first for a.T@b - a.T@b to be seen as x - x."""
        opt, report = _check_semantics(
            lambda a, b: a.T @ b - a.T @ b, [operands["A"], operands["B"]]
        )
        assert report.kernel_counts().get("gemm", 0) <= 1


class TestConstantFolding:
    def test_const_subtree_folds(self, operands):
        c = np.full((operands["A"].shape), 2.0, dtype=np.float32)
        from repro.tensor import Tensor

        ct = Tensor(c)
        opt, _ = _check_semantics(
            lambda a: (ct + ct) + a, [operands["A"]],
            pipeline=PassPipeline([ConstantFolding()]),
        )
        # the ct+ct add folded away; only the input add remains
        assert opt.op_counts()["add"] == 1

    def test_input_dependent_not_folded(self, operands):
        opt, _ = _check_semantics(
            lambda a, b: a + b, [operands["A"], operands["B"]],
            pipeline=PassPipeline([ConstantFolding()]),
        )
        assert opt.op_counts()["add"] == 1


class TestNoOpElimination:
    def test_scale_one_dropped(self, operands):
        g = trace(lambda a: a * 1.0, [operands["A"]])
        out = NoOpElimination().run(g)
        assert out.op_counts().get("scale", 0) == 0

    def test_full_slice_dropped(self, operands):
        g = trace(lambda a: a[:, :], [operands["A"]])
        out = NoOpElimination().run(g)
        assert out.op_counts().get("slice", 0) == 0

    def test_partial_slice_kept(self, operands):
        g = trace(lambda a: a[1:3, :], [operands["A"]])
        out = NoOpElimination().run(g)
        assert out.op_counts().get("slice", 0) == 1


class TestLICM:
    def _loop_graph(self, a, b, trips=3):
        def fn(p, q):
            def body(i, acc, pp, qq):
                return acc + pp @ qq

            init = (p @ q) * 0.0
            return trace_loop(body, init, [p, q], trip_count=trips)

        return trace(fn, [a, b])

    def test_invariant_product_hoisted(self, operands):
        a, b = operands["A"], operands["B"]
        g = self._loop_graph(a, b)
        before, _ = run_graph(g, [a.data, b.data])
        opt = default_pipeline().run(g)
        after, report = run_graph(opt, [a.data, b.data])
        assert np.allclose(before[0], after[0], atol=1e-3)
        # one gemm total (hoisted + shared with init after CSE)
        assert report.kernel_counts()["gemm"] == 1

    def test_variant_body_not_hoisted(self, operands):
        """acc @ b depends on the carried value -> must stay in the loop."""
        a, b = operands["A"], operands["B"]

        def fn(p, q):
            def body(i, acc, qq):
                return acc @ qq

            return trace_loop(body, p, [q], trip_count=3)

        g = trace(fn, [a, b])
        before, _ = run_graph(g, [a.data, b.data])
        opt = PassPipeline([LoopInvariantCodeMotion()]).run(g)
        after, report = run_graph(opt, [a.data, b.data])
        assert np.allclose(before[0], after[0], rtol=1e-3, atol=1e-4)
        assert report.kernel_counts()["gemm"] == 3

    def test_index_dependent_not_hoisted(self):
        idx = builder.input_node((1, 1), "float32", name="i")
        carried = builder.input_node((1, 1), "float32", name="c")
        # body: c + (i * 2): depends on idx -> not hoistable
        body = Graph(
            [builder.add(carried, builder.scale(idx, 2.0))],
            inputs=[idx, carried],
        )
        init = builder.const(np.zeros((1, 1), dtype=np.float32))
        node = builder.loop(body, init, [], trip_count=3)
        g = Graph([node])
        out = LoopInvariantCodeMotion().run(g)
        outs, _ = run_graph(out, [])
        assert outs[0][0, 0] == pytest.approx(2.0 * (0 + 1 + 2))

    def test_nothing_left_to_hoist_returns_the_argument(self, operands):
        """A loop LICM cannot improve keeps its node, so the graph keeps
        its identity (and the pipeline does not re-validate it)."""
        a, b = operands["A"], operands["B"]
        licm = LoopInvariantCodeMotion()
        hoisted = licm.run(self._loop_graph(a, b))
        assert licm.last_stats.rewrites == 1
        assert licm.run(hoisted) is hoisted
        assert licm.last_stats.rewrites == 0


def _all_nodes(graph):
    """Every node of ``graph``, loop bodies included."""
    for node in graph.topological():
        yield node
        if node.op == "loop":
            yield from _all_nodes(node.attrs["body"])


class _CorruptAdd(GraphPass):
    """Re-emit the first ``add`` with a wrong recorded shape; every node
    below it stays shared, every node above it is rebuilt validly."""

    name = "corrupt_add"

    def apply(self, graph):
        done = []

        def fn(node, new_inputs):
            if node.op != "add" or done:
                return None
            done.append(node)
            rows, cols = node.shape
            return Node("add", new_inputs, dict(node.attrs), shape=(cols, rows))

        return graph.rewrite(fn)


class _Untouched(GraphPass):
    name = "untouched"

    def apply(self, graph):
        return graph


class _RecreateOutput(GraphPass):
    """Replace the output node by a fresh clone and drop the old one, so
    its address is free for the next allocation."""

    def __init__(self, corrupt=False):
        self.name = "recreate_corrupt" if corrupt else "recreate"
        self.corrupt = corrupt
        super().__init__()

    def apply(self, graph):
        (out,) = graph.outputs
        rows, cols = out.shape
        shape = (rows, cols + 1) if self.corrupt else None
        fresh = Node(out.op, out.inputs, dict(out.attrs), shape=shape)
        return Graph([fresh], inputs=graph.inputs)


class TestPipeline:
    def test_validates_between_passes(self, operands):
        g = trace(lambda a, b: a @ b, [operands["A"], operands["B"]])
        p = default_pipeline()
        p.run(g)
        assert len(p.history) == len(p.passes)

    def test_describe_after_run(self, operands):
        g = trace(lambda a, b: a @ b + a @ b, [operands["A"], operands["B"]])
        p = default_pipeline()
        p.run(g)
        text = p.describe()
        assert "cse" in text

    def test_default_pipeline_is_idempotent(self, operands):
        g = trace(lambda a, b: (a.T @ b).T @ (a.T @ b),
                  [operands["A"], operands["B"]])
        p = default_pipeline()
        once = p.run(g)
        twice = default_pipeline().run(once)
        assert once.op_counts() == twice.op_counts()

    def _vector_graph(self, operands):
        # (n, 1) operands: a transposed recorded shape is a real corruption.
        return trace(lambda a, x: (a @ x + x) * 2.0,
                     [operands["A"], operands["x"]])

    @pytest.mark.parametrize("validate", [True, False])
    def test_corrupt_node_rejected_at_its_pass_boundary(self, operands, validate):
        p = PassPipeline(
            [CommonSubexpressionElimination(), _CorruptAdd(), NoOpElimination()],
            validate=validate,
        )
        g = self._vector_graph(operands)
        if not validate:
            p.run(g)
            assert len(p.history) == 3
            return
        with pytest.raises(
            GraphError, match="pass 'corrupt_add' produced an invalid graph"
        ):
            p.run(g)
        assert [s.name for s in p.history] == ["cse"]

    def test_unchanged_graph_is_not_revalidated(self, operands, monkeypatch):
        from repro.passes import pipeline as pipeline_mod

        validated = []
        real = pipeline_mod.validate_graph

        def spy(graph, **kwargs):
            validated.append(graph)
            return real(graph, **kwargs)

        monkeypatch.setattr(pipeline_mod, "validate_graph", spy)
        g = self._vector_graph(operands)
        p = PassPipeline([_Untouched(), _Untouched(), _CorruptAdd()])
        with pytest.raises(GraphError, match="'corrupt_add' produced an invalid"):
            p.run(g)
        # the traced graph, then only the graph the corrupting pass made
        assert len(validated) == 2
        assert validated[0] is g and validated[1] is not g
        assert [s.name for s in p.history] == ["untouched", "untouched"]

    @pytest.mark.parametrize("loop", [False, True])
    def test_each_node_validated_once_per_run(self, operands, monkeypatch, loop):
        from repro.ir import validate as validate_mod

        calls = []
        real = validate_mod._validate_node

        def spy(node, *args):
            calls.append(node)
            return real(node, *args)

        monkeypatch.setattr(validate_mod, "_validate_node", spy)
        a, b = operands["A"], operands["B"]
        if loop:
            g = TestLICM()._loop_graph(a, b)
        else:
            g = trace(lambda p, q: (p.T @ q).T @ (p.T @ q) + (p + p) * 1.0, [a, b])
        pipe = default_pipeline()
        graphs = [g]  # keeps every node alive, so ids below are distinct
        for p in pipe.passes:
            def run(graph, _run=p.run):
                graphs.append(_run(graph))
                return graphs[-1]

            p.run = run
        pipe.run(g)
        assert any(s.rewrites for s in pipe.history)
        seen = {id(n) for graph in graphs for n in _all_nodes(graph)}
        assert len(calls) == len(seen)
        assert {id(n) for n in calls} == seen

        # Nothing leaks across runs: the same graph is validated afresh.
        del calls[:]
        pipe.run(g)
        assert {id(n) for n in _all_nodes(g)} <= {id(n) for n in calls}

    def test_in_place_mutation_is_left_to_the_full_walk(self, operands):
        """The one thing once-per-node checking gives up: a pass that
        mutates an already-validated node in place.  ``validate_graph``
        without ``checked`` — what ``Options(validation="full")`` runs on
        the optimized graph — still sees it."""
        from repro.ir import validate_graph

        class MutateInPlace(GraphPass):
            name = "mutate_in_place"

            def apply(self, graph):
                add = graph.nodes_by_op("add")[0]
                rows, cols = add.shape
                object.__setattr__(add, "shape", (cols, rows))
                return _RecreateOutput().apply(graph)  # a changed graph

        result = PassPipeline([MutateInPlace()]).run(self._vector_graph(operands))
        with pytest.raises(GraphError, match="recorded shape"):
            validate_graph(result)

    def test_recycled_address_cannot_skip_validation(self, operands):
        """Rewritten-away nodes die between passes and CPython reuses
        their addresses; a never-validated node must not pass as one of
        them."""
        for valid_rounds in range(1, 9):
            g = self._vector_graph(operands)
            p = PassPipeline(
                [_RecreateOutput() for _ in range(valid_rounds)]
                + [_RecreateOutput(corrupt=True)]
            )
            with pytest.raises(GraphError, match="'recreate_corrupt' produced"):
                p.run(g)
            assert len(p.history) == valid_rounds


class TestPipelineExtendAndDescribe:
    def test_extend_appends_and_keeps_validate(self, operands):
        p = PassPipeline([TransposeElimination()], validate=False)
        q = p.extend([CommonSubexpressionElimination()])
        assert [x.name for x in q.passes] == [x.name for x in p.passes] + ["cse"]
        assert q.validate is p.validate
        assert p.passes == q.passes[:-1]  # original untouched

    def test_extend_starts_with_fresh_history(self, operands):
        p = default_pipeline()
        p.run(trace(lambda a: a @ a, [operands["A"]]))
        q = p.extend([NoOpElimination()])
        assert q.history == []
        assert len(p.history) == len(p.passes)  # original history intact

    def test_running_extension_leaves_original_history(self, operands):
        p = default_pipeline()
        p.run(trace(lambda a: a @ a, [operands["A"]]))
        before = list(p.history)
        q = p.extend([NoOpElimination()])
        q.run(trace(lambda a: a @ a + a, [operands["A"]]))
        assert p.history == before
        assert len(q.history) == len(q.passes)

    def test_describe_before_run_lists_names(self):
        p = PassPipeline([TransposeElimination(), NoOpElimination()])
        assert p.describe() == "transpose_elim -> noop_elim"

    def test_describe_partial_history_marks_not_run(self, operands):
        """After a run that failed partway, describe() must still render
        every pass instead of dropping the ones without stats."""
        from repro.errors import GraphError

        class Boom(TransposeElimination):
            name = "boom"

            def apply(self, graph):
                raise GraphError("synthetic failure")

        p = PassPipeline(
            [CommonSubexpressionElimination(), Boom(), NoOpElimination()]
        )
        g = trace(lambda a: a @ a + a @ a, [operands["A"]])
        with pytest.raises(GraphError):
            p.run(g)
        text = p.describe()
        assert len(p.history) == 1  # only cse completed
        assert "cse" in text
        assert "boom" in text and "noop_elim" in text
        assert text.count("(not run)") == 2
