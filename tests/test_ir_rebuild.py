"""``Node.with_inputs``: the rebuild that skips re-inference.

A rebuild over inputs of the same shapes and dtypes reuses the node's
shape and dtype instead of re-running the op's validation and inference;
it must build exactly what the full constructor builds.  Every other
change of inputs, and every direct construction — a plan-store payload
among them — still validates in full.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, ShapeError
from repro.ir import builder, trace
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.passes import default_pipeline
from repro.runtime import PlanStore, compile_plan
from repro.tensor import random_general

dims = st.integers(min_value=1, max_value=6)
dtypes = st.sampled_from(["float32", "float64"])


@st.composite
def nodes(draw):
    """A node of one of the IR's ops over fresh input placeholders, and
    a second set of placeholders of the same shapes and dtypes."""
    m, k, n = draw(dims), draw(dims), draw(dims)
    dtype = draw(dtypes)
    op = draw(st.sampled_from([
        "matmul", "transpose", "add", "sub", "neg", "scale", "dot",
        "slice", "concat", "tridiagonal_matmul",
    ]))
    trans_a, trans_b = draw(st.booleans()), draw(st.booleans())
    shapes = {
        "matmul": [(k, m) if trans_a else (m, k), (n, k) if trans_b else (k, n)],
        "transpose": [(m, k)],
        "add": [(m, k), (m, k)],
        "sub": [(m, k), (m, k)],
        "neg": [(m, k)],
        "scale": [(m, k)],
        "dot": [(m, 1), (1, m)],
        "slice": [(m, k)],
        "concat": [(m, k), (n, k)],
        "tridiagonal_matmul": [(m, m), (m, n)],
    }[op]

    def placeholders():
        return [builder.input_node(s, dtype) for s in shapes]

    ins = placeholders()
    build = {
        "matmul": lambda a, b: builder.matmul(
            a, b, trans_a=trans_a, trans_b=trans_b,
            kernel=draw(st.sampled_from([None, "gemm"])),
        ),
        "transpose": builder.transpose,
        "add": builder.add,
        "sub": builder.sub,
        "neg": builder.neg,
        "scale": lambda a: builder.scale(a, draw(st.floats(-2, 2))),
        "dot": builder.dot,
        "slice": lambda a: builder.slice_(
            a, draw(st.integers(0, m - 1)), (0, draw(st.integers(1, k)))
        ),
        "concat": lambda a, b: builder.concat([a, b], axis=0),
        "tridiagonal_matmul": builder.tridiagonal_matmul,
    }[op]
    return build(*ins), placeholders()


@given(case=nodes())
@settings(max_examples=150, deadline=None)
def test_rebuild_matches_the_full_constructor(case):
    node, new_inputs = case
    rebuilt = node.with_inputs(tuple(new_inputs))
    full = Node(node.op, tuple(new_inputs), dict(node.attrs), name=node.name)
    assert rebuilt.op == full.op
    assert rebuilt.shape == full.shape
    assert rebuilt.dtype == full.dtype
    assert rebuilt.attrs == full.attrs
    assert rebuilt.attrs is not node.attrs  # a copy, like the constructor's
    assert all(a is b for a, b in zip(rebuilt.inputs, new_inputs))
    assert rebuilt.name == node.name
    assert rebuilt.uid != node.uid


def test_a_shape_changing_input_still_raises():
    a = builder.input_node((3, 4))
    b = builder.input_node((4, 5))
    node = builder.matmul(a, b)
    with pytest.raises(ShapeError):
        node.with_inputs((a, builder.input_node((6, 5))))
    # A shape that still fits is inferred afresh, not copied.
    wider = node.with_inputs((a, builder.input_node((4, 7))))
    assert wider.shape == (3, 7)


def test_a_dtype_changing_input_is_inferred_afresh():
    a = builder.input_node((2, 2), "float32")
    node = builder.add(a, a)
    with pytest.raises(GraphError, match="mixed dtypes"):
        node.with_inputs((a, builder.input_node((2, 2), "float64")))
    wide = builder.input_node((2, 2), "float64")
    assert node.with_inputs((wide, wide)).dtype == np.float64


def test_a_changed_arity_or_a_non_node_still_raises():
    a = builder.input_node((2, 2))
    node = builder.neg(a)
    with pytest.raises(GraphError):
        node.with_inputs((a, a))
    with pytest.raises(GraphError, match="expected Node"):
        node.with_inputs((np.zeros((2, 2), np.float32),))


def test_rewrite_rebuilds_consumers_through_the_fast_path():
    """``Graph.rewrite`` rebuilds as-is through ``with_inputs``: the
    consumer of a replaced node gets the shape the constructor infers."""
    a, b = builder.input_node((3, 3)), builder.input_node((3, 3))
    out = builder.scale(builder.add(builder.neg(a), b), 2.0)
    graph = Graph([out])
    rewritten = graph.rewrite(
        lambda node, ins: builder.sub(b, a) if node.op == "neg" else None
    )
    (new_out,) = rewritten.outputs
    assert new_out is not out and new_out.shape == (3, 3)
    assert new_out.inputs[0].inputs[0].op == "sub"


def test_a_mangled_store_payload_still_loads_as_a_miss(tmp_path):
    """``graph_from_payload`` builds through the full constructor: a
    payload whose shapes no longer fit raises inside the load, which
    evicts the artifact and reports a miss."""
    ops = [random_general(8, seed=s) for s in (1, 2)]
    graph = default_pipeline().run(trace(lambda p, q: (p @ q) @ p.T, ops))
    store = PlanStore(tmp_path)
    key = store.put_plan(compile_plan(graph))
    path = tmp_path / "objects" / f"{key}.plan"
    artifact = pickle.loads(path.read_bytes())
    node = next(
        n for n in artifact["payload"]["nodes"] if n["op"] == "input"
    )
    node["attrs"]["shape"] = ("tuple", [("lit", 8), ("lit", 5)])
    path.write_bytes(pickle.dumps(artifact))
    reader = PlanStore(tmp_path)
    assert reader.load_graph(plan_key=key) is None
    assert reader.stats.corrupt_evicted == 1
    assert reader.stats.misses == 1
    assert not path.exists()
