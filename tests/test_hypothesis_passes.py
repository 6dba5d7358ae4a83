"""Property-based tests: every optimizer pass preserves semantics.

A hypothesis strategy generates random expression DAGs (as traced Python
functions over random operands); each pass — and both full pipelines — must
produce a graph that computes the same values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import Graph, run_graph, trace, validate_graph
from repro.ir.tracing import SymbolicTensor, trace_loop
from repro.passes import (
    ArithmeticSimplification,
    ChainReordering,
    CommonSubexpressionElimination,
    ConstantFolding,
    DistributivityRewrite,
    LoopInvariantCodeMotion,
    NoOpElimination,
    PartialOperandAccess,
    PassPipeline,
    PropertyDispatch,
    TransposeElimination,
    aware_pipeline,
    default_pipeline,
)
from repro.tensor import Tensor

N = 6  # tiny operands: hypothesis runs many examples


@st.composite
def expressions(draw):
    """A random expression builder over inputs (a, b square; x vector).

    Returns a function of three SymbolicTensors/Tensors producing one
    output via a random tree of the supported operations.
    """
    depth = draw(st.integers(min_value=1, max_value=5))

    def build(d, draw_):
        if d == 0:
            return draw_(st.sampled_from(["a", "b", "x_outer"]))
        op = draw_(
            st.sampled_from(
                ["matmul", "add", "sub", "transpose", "scale", "neg", "slice",
                 "loop"]
            )
        )
        if op in ("matmul", "add", "sub"):
            return (op, build(d - 1, draw_), build(d - 1, draw_))
        if op == "scale":
            alpha = draw_(st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0]))
            return (op, alpha, build(d - 1, draw_))
        if op == "slice":
            i = draw_(st.integers(min_value=0, max_value=N - 1))
            return (op, i, build(d - 1, draw_))
        if op == "loop":
            trips = draw_(st.integers(min_value=1, max_value=3))
            return (op, trips, build(d - 1, draw_))
        return (op, build(d - 1, draw_))

    return build(depth, draw)


def _materialize(tree, a, b, x):
    """Evaluate the strategy's op-tree over symbolic/eager operands."""
    if tree == "a":
        return a
    if tree == "b":
        return b
    if tree == "x_outer":
        return x @ x.T  # keep everything n×n so shapes always match
    op = tree[0]
    if op == "matmul":
        return _materialize(tree[1], a, b, x) @ _materialize(tree[2], a, b, x)
    if op == "add":
        return _materialize(tree[1], a, b, x) + _materialize(tree[2], a, b, x)
    if op == "sub":
        return _materialize(tree[1], a, b, x) - _materialize(tree[2], a, b, x)
    if op == "transpose":
        return _materialize(tree[1], a, b, x).T
    if op == "scale":
        return _materialize(tree[2], a, b, x) * tree[1]
    if op == "neg":
        return -_materialize(tree[1], a, b, x)
    if op == "slice":
        full = _materialize(tree[2], a, b, x)
        # keep shapes n×n: slice one row out, then restore via outer
        # product with itself is overkill — take a shape-preserving slice
        # (still exercises the slice op path) plus an element-slice term
        # folded in through scaling by row tree[1]'s [0,0] is fragile under
        # float32; a full-width slice suffices here.
        return full[:, :]
    if op == "loop":
        # A rolled fori_loop: one invariant product LICM can hoist, one
        # carried term it cannot, and a scale every body-recursing pass sees.
        return trace_loop(
            lambda i, acc, p, q: acc * 0.5 + p @ q,
            _materialize(tree[2], a, b, x),
            [a, b],
            trip_count=tree[1],
        )
    raise AssertionError(op)


def _operands():
    rng = np.random.default_rng(99)
    a = Tensor((rng.random((N, N)) - 0.5).astype(np.float32))
    b = Tensor((rng.random((N, N)) - 0.5).astype(np.float32))
    x = Tensor((rng.random((N, 1)) - 0.5).astype(np.float32))
    return a, b, x


ALL_PASSES = [
    ConstantFolding,
    TransposeElimination,
    CommonSubexpressionElimination,
    ArithmeticSimplification,
    NoOpElimination,
    LoopInvariantCodeMotion,
    ChainReordering,
    PropertyDispatch,
    DistributivityRewrite,
    PartialOperandAccess,
]


@pytest.mark.parametrize("pass_cls", ALL_PASSES)
@given(tree=expressions())
@settings(max_examples=25, deadline=None)
def test_single_pass_preserves_semantics(pass_cls, tree):
    a, b, x = _operands()
    fn = lambda p, q, v: _materialize(tree, p, q, v)  # noqa: E731
    g = trace(fn, [a, b, x])
    feeds = [a.data, b.data, x.data]
    before, _ = run_graph(g, feeds)
    p = pass_cls()
    opt = PassPipeline([p]).run(g)
    # Identity contract: nothing rewritten means the very same graph back.
    if p.last_stats.rewrites == 0:
        assert opt is g
    assert g.rewrite(lambda node, new_inputs: None) is g
    after, _ = run_graph(opt, feeds)
    np.testing.assert_allclose(after[0], before[0], rtol=1e-2, atol=1e-3)


@pytest.mark.parametrize("pipeline_factory", [default_pipeline, aware_pipeline])
@given(tree=expressions())
@settings(max_examples=25, deadline=None)
def test_full_pipelines_preserve_semantics(pipeline_factory, tree):
    a, b, x = _operands()
    fn = lambda p, q, v: _materialize(tree, p, q, v)  # noqa: E731
    g = trace(fn, [a, b, x])
    feeds = [a.data, b.data, x.data]
    before, _ = run_graph(g, feeds)
    pipeline = pipeline_factory()
    opt = pipeline.run(g)
    if not any(s.rewrites for s in pipeline.history):
        assert opt is g
    # The pipeline validated incrementally; the full walk must agree.
    validate_graph(opt)
    after, _ = run_graph(opt, feeds)
    np.testing.assert_allclose(after[0], before[0], rtol=1e-2, atol=1e-3)


@given(tree=expressions())
@settings(max_examples=25, deadline=None)
def test_aware_flops_never_exceed_default(tree):
    """The aware pipeline must never produce a more expensive graph."""
    a, b, x = _operands()
    fn = lambda p, q, v: _materialize(tree, p, q, v)  # noqa: E731
    g1 = trace(fn, [a, b, x])
    g2 = trace(fn, [a, b, x])
    feeds = [a.data, b.data, x.data]
    _, rep_default = run_graph(default_pipeline().run(g1), feeds)
    _, rep_aware = run_graph(aware_pipeline().run(g2), feeds)
    assert rep_aware.total_flops <= rep_default.total_flops
