"""Generated differential test of the compiled runtime (ROADMAP item 4b).

A Hypothesis strategy draws DAGs over the ops the compiler supports —
matmul with and without transposes and with the ``diag`` / ``tridiagonal``
/ ``trmm`` / ``symm`` / ``syrk`` kernel hints, GEMV, add/sub/neg/scale,
transpose, slices, the opt-in tridiagonal op and a ``fori_loop`` — a memory
layout per feed (C, F, or a non-contiguous strided view) and ``fusion``
on/off.  For every draw:

* the reference Interpreter, per-call plan execution and preallocated
  (arena) execution agree bit for bit, and their reports field for field
  (fusion off) or in FLOP total and peak/live bytes (fusion on);
* the bytes a warm arena call copies equal the figure *predicted from the
  layout plan alone*: every feed whose layout its slot's order does not
  accept, every relayout instruction, and every result of a kernel that
  has no ``out=`` form (computed, then landed in its slot);
* one persistent binding fed a different layout *and dtype* on every
  pass (float32 / float64) crosses warming, certification, the generated
  serving pass and re-certification, and every one of those passes equals
  the Interpreter and per-call execution on the same feeds, copying
  exactly the predicted bytes;
* the Session-layer hand-off holds: results of successive calls are
  correct, stay unchanged after later calls and share memory with no
  feed, no arena buffer and no other result.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.compiled import Concrete
from repro.ir import Graph, Interpreter, builder
from repro.ir.node import Node
from repro.runtime import PinnedBinding, compile_plan

N = 6  # tiny operands: hypothesis runs many examples
MATS, VECS = 3, 1  # graph inputs: three N×N matrices, one N×1 vector
HINTS = (None, None, "diag_matmul", "tridiagonal_matmul", "trmm",
         "trmm_right", "symm")
LAYOUTS = ("C", "F", "S")


@st.composite
def programs(draw):
    """A straight-line program over a growing pool of matrix and vector
    values: ``(steps, outputs)``."""
    mats, vecs = MATS, VECS
    steps = []
    extra_outputs = []

    def mat():
        # Mostly a recent value, so that the steps chain (dead
        # temporaries are what fusion and slot recycling act on).
        low = draw(st.sampled_from((0, max(0, mats - 2), max(0, mats - 3))))
        return draw(st.integers(low, mats - 1))

    def vec():
        return draw(st.integers(0, vecs - 1))

    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(
            ("mm", "mm", "syrk", "tri", "mv", "add", "sub", "vadd", "neg",
             "scale", "t", "loop", "block", "dotslice", "acc")
        ))
        if kind == "mm":
            steps.append((kind, mat(), mat(), draw(st.booleans()),
                          draw(st.booleans()), draw(st.sampled_from(HINTS)),
                          draw(st.booleans())))
            mats += 1
        elif kind == "syrk":
            steps.append((kind, mat(), draw(st.booleans())))
            mats += 1
        elif kind in ("tri", "add", "sub"):
            steps.append((kind, mat(), mat()))
            mats += 1
        elif kind == "mv":
            steps.append((kind, mat(), vec(), draw(st.booleans())))
            vecs += 1
        elif kind == "vadd":
            steps.append((kind, vec(), vec()))
            vecs += 1
        elif kind in ("neg", "t"):
            steps.append((kind, mat()))
            mats += 1
        elif kind == "scale":
            steps.append((kind, mat(),
                          draw(st.sampled_from((0.5, -1.0, 2.0, 1.5)))))
            mats += 1
        elif kind == "loop":
            steps.append((kind, mat(), mat(), draw(st.integers(0, 4)),
                          draw(st.integers(0, 3))))
            mats += 1
        elif kind == "acc":
            # scaled temporary ± GEMM: the shape the fusion pass folds
            # into the BLAS call's C-accumulate.
            steps.append((kind, mat(), mat(), mat(), draw(st.booleans()),
                          draw(st.booleans()),
                          draw(st.sampled_from(("add", "sub", "rsub")))))
            mats += 1
        elif kind == "block":
            r0, c0 = draw(st.integers(0, N - 2)), draw(st.integers(0, N - 2))
            extra_outputs.append(
                ("block", mat(), (r0, draw(st.integers(r0 + 1, N))),
                 (c0, draw(st.integers(c0 + 1, N))))
            )
        else:  # "dotslice": a[r, :] @ b[:, c], the partial-access shape
            extra_outputs.append(
                ("dotslice", mat(), mat(), draw(st.integers(0, N - 1)),
                 draw(st.integers(0, N - 1)))
            )
    # The last value, plus: an earlier value (an output a later
    # instruction reads, possibly an input itself), a vector, the same
    # value twice.
    outputs = [("mat", mats - 1)]
    if draw(st.booleans()):
        outputs.append(("mat", mat()))
    if draw(st.booleans()):
        outputs.append(("vec", vec()))
    return steps, outputs + extra_outputs


def _loop_node(init: Node, cap: Node, body_kind: int, trips: int) -> Node:
    idx = builder.input_node((1, 1), name="i")
    x = builder.input_node((N, N), name="x")
    c = builder.input_node((N, N), name="cap")
    out = (
        builder.scale(builder.matmul(c, x), 0.5),
        builder.add(x, c),
        x,
        builder.sub(builder.matmul(x, c, trans_b=True), c),
        builder.tridiagonal_matmul(c, x),
    )[body_kind]
    body = Graph([out], inputs=[idx, x, c])
    return builder.loop(body, init, [cap], trip_count=trips)


def build_graph(program) -> Graph:
    steps, outputs = program
    inputs = [builder.input_node((N, N), name=f"m{i}") for i in range(MATS)]
    inputs += [builder.input_node((N, 1), name=f"v{i}") for i in range(VECS)]
    mats, vecs = inputs[:MATS], inputs[MATS:]
    for step in steps:
        kind = step[0]
        if kind == "mm":
            _, i, j, ta, tb, hint, lower = step
            attrs = {"trans_a": ta, "trans_b": tb}
            if hint is not None:
                attrs["kernel"] = hint
                if hint.startswith("trmm"):
                    attrs["kernel_opts"] = (("lower", lower),)
            mats.append(Node("matmul", (mats[i], mats[j]), attrs))
        elif kind == "syrk":
            _, i, trans = step
            mats.append(builder.matmul(mats[i], mats[i], trans_a=trans,
                                       trans_b=not trans, kernel="syrk"))
        elif kind == "tri":
            mats.append(builder.tridiagonal_matmul(mats[step[1]], mats[step[2]]))
        elif kind == "mv":
            _, i, v, ta = step
            vecs.append(builder.matmul(mats[i], vecs[v], trans_a=ta))
        elif kind == "add":
            mats.append(builder.add(mats[step[1]], mats[step[2]]))
        elif kind == "sub":
            mats.append(builder.sub(mats[step[1]], mats[step[2]]))
        elif kind == "vadd":
            vecs.append(builder.add(vecs[step[1]], vecs[step[2]]))
        elif kind == "neg":
            mats.append(builder.neg(mats[step[1]]))
        elif kind == "scale":
            mats.append(builder.scale(mats[step[1]], step[2]))
        elif kind == "t":
            mats.append(builder.transpose(mats[step[1]]))
        elif kind == "acc":
            _, i, j, k, ta, tb, how = step
            addend = builder.scale(mats[k], 0.5)
            prod = builder.matmul(mats[i], mats[j], trans_a=ta, trans_b=tb)
            mats.append({"add": builder.add(prod, addend),
                         "sub": builder.sub(prod, addend),
                         "rsub": builder.sub(addend, prod)}[how])
        else:  # loop
            _, i, j, body_kind, trips = step
            mats.append(_loop_node(mats[i], mats[j], body_kind, trips))
    outs = []
    for out in outputs:
        if out[0] == "mat":
            outs.append(mats[out[1]])
        elif out[0] == "vec":
            outs.append(vecs[out[1]])
        elif out[0] == "block":
            outs.append(builder.slice_(mats[out[1]], out[2], out[3]))
        else:
            _, i, j, r, c = out
            outs.append(builder.matmul(
                builder.slice_(mats[i], r, None), builder.slice_(mats[j], None, c)
            ))
    return Graph(outs, inputs=inputs)


def make_feeds(layouts, seed: int, dtype=np.float32) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    feeds = []
    for k, tag in enumerate(layouts):
        shape = (N, N) if k < MATS else (N, 1)
        values = ((rng.random(shape) * 2 - 1) / math.sqrt(N)).astype(dtype)
        if tag == "F":
            feed = np.asfortranarray(values)
        elif tag == "S":
            wide = np.zeros((2 * shape[0], 2 * shape[1]), dtype=dtype)
            feed = wide[::2, ::2]
            feed[...] = values
            assert not feed.flags.c_contiguous and not feed.flags.f_contiguous
        else:
            feed = values
        feeds.append(feed)
    return feeds


def predicted_copy_bytes(plan, layouts, feeds) -> int:
    """What one warm arena call copies, read off the layout plan — with
    its own acceptance table, not the runtime's."""
    accepts = {"F": {"F"}, "C": {"C"}, "A": {"C", "F"}}
    total = 0
    for spec, tag, feed in zip(plan.inputs, layouts, feeds):
        if 1 in spec.shape:  # a vector is contiguous in both orders
            ok = tag != "S"
        else:
            ok = tag in accepts[plan.slot_orders[spec.slot]]
        if not ok:
            total += feed.nbytes
    for inst in plan.instructions:
        landed = (inst.fn_out is None and inst.fn_loop is None
                  and inst.kind != "const")
        if inst.kind == "relayout" or landed:
            total += math.prod(inst.out_shape) * feeds[0].itemsize
    return total


def assert_same(outs, ref) -> None:
    assert len(outs) == len(ref)
    for got, want in zip(outs, ref):
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def assert_reports(rep, rep_i, fusion: bool) -> None:
    if not fusion:
        assert rep.calls == rep_i.calls
    assert rep.total_flops == rep_i.total_flops
    assert rep.peak_bytes == rep_i.peak_bytes
    assert rep.live_bytes == rep_i.live_bytes


@settings(max_examples=120, deadline=None)
@given(
    program=programs(),
    layouts=st.tuples(*[st.sampled_from(LAYOUTS)] * (MATS + VECS)),
    fusion=st.booleans(),
)
def test_interpreter_percall_preallocated_agree(program, layouts, fusion):
    graph = build_graph(program)
    feeds = make_feeds(layouts, seed=1)
    ref, rep_i = Interpreter(record=True).run(graph, feeds)
    plan = compile_plan(graph, fusion=fusion)

    outs, rep = plan.execute(feeds)
    assert_same(outs, ref)
    assert_reports(rep, rep_i, fusion)

    arena = plan.new_arena()
    outs, rep = plan.execute(feeds, arena=arena)
    assert_same(outs, ref)
    assert_reports(rep, rep_i, fusion)
    for _ in range(2):
        before = arena.bytes_copied
        outs, _ = plan.execute(feeds, record=False, arena=arena)
        assert_same(outs, ref)
        assert arena.bytes_copied - before == predicted_copy_bytes(
            plan, layouts, feeds
        )


@settings(max_examples=100, deadline=None)
@given(
    program=programs(),
    rounds=st.tuples(*[st.tuples(
        st.tuples(*[st.sampled_from(LAYOUTS)] * (MATS + VECS)),
        st.sampled_from((np.float32, np.float64)),
    )] * 3),
    fusion=st.booleans(),
)
def test_one_binding_across_layout_and_dtype_changes(program, rounds, fusion):
    """Each round redraws layouts and dtype and runs two passes through
    the same binding: the first warms (or re-warms) and certifies, the
    second is the generated serving pass."""
    graph = build_graph(program)
    plan = compile_plan(graph, fusion=fusion)
    binding = PinnedBinding(plan, plan.new_arena())
    arena = binding.arena
    for seed, (layouts, dtype) in enumerate(rounds):
        feeds = make_feeds(layouts, seed, dtype)
        ref, _ = Interpreter(record=False).run(graph, feeds)
        assert_same(plan.execute(feeds, record=False)[0], ref)
        for _ in range(2):
            before = arena.bytes_copied
            binding.rebind(feeds)
            assert_same(binding.execute(), ref)
            assert arena.bytes_copied - before == predicted_copy_bytes(
                plan, layouts, feeds
            )
        assert plan.generated_source is not None


@settings(max_examples=60, deadline=None)
@given(
    program=programs(),
    layouts=st.tuples(*[st.sampled_from(LAYOUTS)] * (MATS + VECS)),
    fusion=st.booleans(),
)
def test_hand_off_results_are_the_callers(program, layouts, fusion):
    graph = build_graph(program)
    plan = compile_plan(graph, fusion=fusion)
    concrete = Concrete(
        graph=graph, optimized=graph, plan=plan, trace_seconds=0.0,
        pipeline_log="", binding=PinnedBinding(plan, plan.new_arena()),
    )
    kept = []
    for seed in (1, 2, 3, 1):
        feeds = make_feeds(layouts, seed=seed)
        ref, rep_i = Interpreter(record=True).run(graph, feeds)
        outs, rep = concrete.execute(feeds)
        assert_same(outs, ref)
        assert_reports(rep, rep_i, fusion)
        owned = [b for b in concrete.binding.arena.buffers if b is not None]
        for k, out in enumerate(outs):
            others = feeds + owned + outs[:k] + [o for os, _ in kept for o in os]
            assert not any(np.shares_memory(out, other) for other in others)
        kept.append((outs, ref))
    for outs, ref in kept:  # nothing a later call did reached back
        assert_same(outs, ref)
