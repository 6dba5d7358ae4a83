"""Parity and behaviour of the compiled runtime (repro.runtime).

The acceptance contract: ``Plan.execute`` must produce **bit-identical**
outputs to the reference ``Interpreter`` through an arena and arena-less
— on raw traced graphs, default-optimized graphs and aware-optimized
graphs alike, across the expression shapes the existing experiment
workloads use — and a report equal field-for-field (kernel call list,
FLOPs, peak bytes).

The ``fused`` modes reach the plan through the ``fusion=True`` keyword
the frozen e2e benchmark still passes to ``compile_plan`` and
``PlanCache.get``.  Kernel fusion is deleted and the keyword is inert:
it must hand back the very plan a bare call does.

The Session has one executor (each ``Concrete``'s arena binding); its
suite checks it against the Interpreter and against the same plan run at
plan level in each of the four modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.frameworks import tfsim
from repro.ir import Interpreter, trace
from repro.passes import aware_pipeline, default_pipeline
from repro.runtime import compile_plan
from repro.tensor import random_general

# -- the workload suite -------------------------------------------------------
# Keys refer to the conftest ``operands`` bundle; expressions mirror the
# paper experiments (CSE table, chains, Table IV structured operands,
# algebraic blocks, partial access).

CASES = {
    "gram_paren": (lambda a, b: (a.T @ b).T @ (a.T @ b), ["A", "B"]),
    "gram_noparen": (lambda a, b: (a.T @ b).T @ a.T @ b, ["A", "B"]),
    "s_plus_s": (lambda a, b: a.T @ b + a.T @ b, ["A", "B"]),
    "chain_hhx": (lambda h, x: h.T @ h @ x, ["H", "x"]),
    "chain4": (lambda h, x, y: h.T @ y @ x.T @ h, ["H", "x", "y"]),
    "syrk_gram": (lambda a: a @ a.T, ["A"]),
    "trmm": (lambda l, b: l @ b, ["L", "B"]),
    "diag": (lambda d, b: d @ b, ["D", "B"]),
    "tridiag_prop": (lambda t, b: t @ b, ["T", "B"]),
    "tridiag_op": (
        lambda t, b: tfsim.linalg.tridiagonal_matmul(t, b), ["T", "B"]
    ),
    "symm": (lambda s, b: s @ b, ["S", "B"]),
    "ortho": (lambda q, x: q.T @ q @ x, ["Q", "x"]),
    "elementwise": (lambda a, b, c: 2.0 * a + b - (-c) * 0.5, ["A", "B", "C"]),
    "dot": (lambda x, y: x.T @ y, ["x", "y"]),
    "gemv": (lambda a, x: a @ x, ["A", "x"]),
    "row_gemv": (lambda a, x: x.T @ a, ["A", "x"]),
    "slice_sum": (lambda a, b: (a + b)[2, 2], ["A", "B"]),
    "slice_prod": (lambda a, b: a[2, :] @ b[:, 2], ["A", "B"]),
    "slice_block": (lambda a: a[2:10, 4:20], ["A"]),
    "concat": (lambda a, b: tfsim.concat([a, b], axis=1) @ tfsim.concat(
        [a, b], axis=0), ["A", "B"]),
    "multi_output": (lambda a, b: (a @ b, a + b, a.T @ b), ["A", "B"]),
    "unused_input": (lambda a, b: a @ a, ["A", "B"]),
}

PIPELINES = {
    "raw": None,
    "default": default_pipeline,
    "aware": aware_pipeline,
}


def _graphs(case, operands):
    fn, keys = CASES[case]
    args = [operands[k] for k in keys]
    graph = trace(fn, args)
    feeds = [a.data for a in args]
    return graph, feeds


#: The four plan-level execution modes of the acceptance contract:
#: (reached through the inert ``fusion=True`` keyword, through an arena)
#: — arena-less is the per-call reference.
MODES = {
    "plain": (False, False),
    "fused": (True, False),
    "arena": (False, True),
    "fused+arena": (True, True),
}


def assert_parity(graph, feeds, *, fusion=False, use_arena=False):
    """Interpreter vs compiled plan: bit-identical outputs, and reports
    equal field for field.  With ``fusion`` the plan is compiled through
    the inert keyword and must describe exactly the bare call's plan."""
    outs_i, rep_i = Interpreter(record=True).run(graph, feeds)
    plan = compile_plan(graph, fusion=fusion)
    if fusion:
        assert plan.describe() == compile_plan(graph).describe()
    arena = plan.new_arena() if use_arena else None
    outs_p, rep_p = plan.execute(feeds, arena=arena)
    assert len(outs_i) == len(outs_p)
    for oi, op_ in zip(outs_i, outs_p):
        assert oi.shape == op_.shape
        assert oi.dtype == op_.dtype
        assert oi.tobytes() == op_.tobytes()
    assert rep_p == rep_i
    # record=False must not change the numerics; a reused arena must not
    # change them either (buffers are fully rewritten).
    outs_q, rep_q = plan.execute(feeds, record=False, arena=arena)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(outs_i, outs_q))
    assert rep_q.calls == [] and rep_q.peak_bytes == 0
    return plan


@pytest.mark.parametrize("mode", MODES, ids=list(MODES))
@pytest.mark.parametrize("pipe", PIPELINES, ids=list(PIPELINES))
@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_plan_matches_interpreter(case, pipe, mode, operands):
    graph, feeds = _graphs(case, operands)
    factory = PIPELINES[pipe]
    if factory is not None:
        graph = factory().run(graph)
    fusion, use_arena = MODES[mode]
    assert_parity(graph, feeds, fusion=fusion, use_arena=use_arena)


@pytest.mark.parametrize("mode", MODES, ids=list(MODES))
def test_loop_parity(mode, operands):
    """fori_loop compiles into a nested sub-plan with identical accounting."""
    a, b = operands["A"], operands["B"]

    def body(i, acc, aa, bb):
        return acc + aa @ bb

    def fn(p, q):
        return tfsim.fori_loop(3, body, tfsim.zeros(*p.shape), [p, q])

    graph = trace(fn, [a, b])
    feeds = [a.data, b.data]
    fusion, use_arena = MODES[mode]
    for factory in (None, default_pipeline, aware_pipeline):
        g = graph if factory is None else factory().run(graph)
        assert_parity(g, feeds, fusion=fusion, use_arena=use_arena)


# -- plan structure -----------------------------------------------------------


def test_slot_reuse_bounds_arena(operands):
    """A long dependent chain needs O(1) temp slots, not one per node."""
    def fn(a, b):
        out = a
        for _ in range(8):
            out = out @ b
        return out

    graph = trace(fn, [operands["A"], operands["B"]])
    plan = compile_plan(graph)
    # 2 input slots + result + at most one live temp at a time.
    assert plan.num_slots <= 4
    assert len(plan.instructions) == 8


def test_outputs_and_inputs_keep_their_slots(operands):
    """Graph outputs and inputs must never be freed into the reuse pool."""
    def fn(a, b):
        t = a @ b
        return t, t @ b, a

    graph = trace(fn, [operands["A"], operands["B"]])
    plan = compile_plan(graph)
    out_slots = set(plan.output_slots)
    input_slots = {p.slot for p in plan.inputs}
    for inst in plan.instructions:
        assert not (set(inst.free_slots) & out_slots)
        assert not (set(inst.free_slots) & input_slots)


def test_plan_flops_match_report(operands):
    graph, feeds = _graphs("gram_paren", operands)
    plan = assert_parity(graph, feeds)
    _, report = plan.execute(feeds)
    assert plan.flops == report.total_flops


def test_describe_lists_instructions(operands):
    graph, _ = _graphs("chain_hhx", operands)
    plan = compile_plan(graph)
    text = plan.describe()
    assert "instructions" in text
    assert "matmul" in text


def test_repeated_execution_is_stable(operands):
    """Executing one plan many times gives identical bytes every time."""
    graph, feeds = _graphs("gram_paren", operands)
    plan = compile_plan(default_pipeline().run(graph))
    first, _ = plan.execute(feeds)
    for _ in range(3):
        outs, _ = plan.execute(feeds)
        assert outs[0].tobytes() == first[0].tobytes()


def test_feed_binding_by_name_and_position(operands):
    a, b = operands["A"], operands["B"]
    graph = trace(lambda p, q: p @ q, [a, b])
    plan = compile_plan(graph)
    by_pos, _ = plan.execute([a.data, b.data])
    named = {p.name: arr for p, arr in zip(plan.inputs, [a.data, b.data])}
    by_name, _ = plan.execute(named)
    assert by_pos[0].tobytes() == by_name[0].tobytes()


def test_feed_errors(operands):
    from repro.errors import GraphError

    a, b = operands["A"], operands["B"]
    graph = trace(lambda p, q: p @ q, [a, b])
    plan = compile_plan(graph)
    with pytest.raises(GraphError):
        plan.execute([a.data])  # arity
    with pytest.raises(GraphError):
        plan.execute({"nope": a.data, plan.inputs[1].name: b.data})
    with pytest.raises(GraphError):
        plan.execute([a.data, random_general(5, seed=3).data])  # shape


def test_mixed_operand_dtypes_raise():
    """A GEMM never silently downcasts a mismatched operand: a float64
    constant against float32 feeds raises ``DTypeError``, arena-less and
    through an arena, like the kernel layer."""
    from repro.errors import DTypeError
    from repro.tensor import Tensor

    ab = [random_general(12, seed=1), random_general(12, seed=2)]
    k64 = np.ones((12, 12), dtype=np.float64)
    # Traced uniformly in float64 (tracing rejects mixed dtypes), then
    # fed float32: the float64 const makes ``a @ K`` mixed at execution.
    graph = trace(lambda a, b: b @ a + a @ tfsim.constant(k64),
                  [Tensor(t.data.astype(np.float64)) for t in ab])
    plan = compile_plan(graph)
    feeds32 = [t.data for t in ab]
    for arena in (None, plan.new_arena()):
        with pytest.raises(DTypeError):
            plan.execute(feeds32, record=False, arena=arena)


def test_fold_constants_precomputes_const_subdags():
    # Built via the IR builder: tracing would eagerly evaluate a
    # Tensor-Tensor product before it ever reached the graph.
    from repro.ir import Graph, builder

    c1 = random_general(6, seed=21)
    c2 = random_general(6, seed=22)
    x = random_general(6, seed=23)
    x_in = builder.input_node((6, 6), x.dtype, name="x")
    const_prod = builder.matmul(builder.const(c1.data), builder.const(c2.data))
    graph = Graph([builder.matmul(x_in, const_prod)], inputs=[x_in])
    eager = compile_plan(graph)
    folded = compile_plan(graph, fold_constants=True)
    # Folding removes the const GEMM from the executed program...
    assert len(folded.instructions) < len(eager.instructions)
    outs_e, rep_e = eager.execute([x.data])
    outs_f, rep_f = folded.execute([x.data])
    # ...keeps the numerics, and drops the folded kernel from accounting.
    np.testing.assert_allclose(outs_f[0], outs_e[0], rtol=1e-5)
    assert len(rep_f.calls) < len(rep_e.calls)


# -- decorator-level parity ---------------------------------------------------


def test_compiled_function_call_matches_interpret(operands):
    @tfsim.function(aware=True)
    def f(h, x):
        return tfsim.transpose(h) @ h @ x

    h, x = operands["H"], operands["x"]
    via_plan = f(h, x)
    report_plan = f.last_report
    via_interp = f.interpret(h, x)
    report_interp = f.last_report
    assert via_plan.numpy().tobytes() == via_interp.numpy().tobytes()
    assert report_plan.calls == report_interp.calls
    assert report_plan.peak_bytes == report_interp.peak_bytes


# -- the Session call path over the same suite ---------------------------------


def _as_bytes(result) -> list[bytes]:
    tensors = result if isinstance(result, tuple) else (result,)
    return [t.numpy().tobytes() for t in tensors]


def _plan_level(session, f, args, mode):
    """The plan ``f`` runs on ``args``, run at plan level in ``mode``:
    through a fresh arena or arena-less.  The ``fused`` modes fetch it
    from the session's cache as the e2e benchmark does, through the inert
    ``fusion=True`` keyword, and it must be the ``Concrete``'s own plan."""
    fusion, use_arena = MODES[mode]
    plan = f.get_concrete(*args).plan
    if fusion:
        graph = f.optimized_graph(*args)
        assert session.plan_cache.get(graph, fusion=True) is plan
    arena = plan.new_arena() if use_arena else None
    return plan.execute([a.data for a in args], arena=arena)


@pytest.mark.parametrize("mode", MODES, ids=list(MODES))
@pytest.mark.parametrize("pipe", ["default", "aware"])
@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_session_call_path_matches_interpreter(case, pipe, mode, operands):
    """A ``Concrete`` has one way to run: every call (and ``run_batch``)
    serves and hands the plan's report back — bit- and
    report-identical to the interpreter on every workload shape, and to
    its plan run at plan level in ``mode``."""
    fn, keys = CASES[case]
    args = [operands[k] for k in keys]
    with api.Session(pipeline=pipe) as session:
        f = session.compile(fn)
        want = _as_bytes(f.interpret(*args))
        rep_i = f.last_report
        for _ in range(3):  # the warming pass, then two serving passes
            assert _as_bytes(f(*args)) == want
        rep = f.last_report
        batch = session.run_batch(f, [args] * 2)
        plan_outs, plan_rep = _plan_level(session, f, args, mode)
    for outs in batch.outputs + [plan_outs]:
        assert [np.ascontiguousarray(o).tobytes() for o in outs] == want
    assert all(r is rep for r in batch.reports)
    assert rep == plan_rep == rep_i


@pytest.mark.parametrize("mode", MODES, ids=list(MODES))
def test_session_loop_parity(mode, operands):
    """Loop bodies ride the same rule (carried values alias the other
    child arena) under the cached-report call path, matching the plan
    run at plan level in ``mode``."""
    a, b = operands["A"], operands["B"]

    def body(i, acc, aa, bb):
        return acc + aa @ bb

    def fn(p, q):
        return tfsim.fori_loop(3, body, tfsim.zeros(*p.shape), [p, q])

    with api.Session() as session:
        f = session.compile(fn)
        want = _as_bytes(f.interpret(a, b))
        rep_i = f.last_report
        for _ in range(4):
            assert _as_bytes(f(a, b)) == want
        assert f.last_report == rep_i
        plan_outs, plan_rep = _plan_level(session, f, [a, b], mode)
    assert [o.tobytes() for o in plan_outs] == want
    assert f.last_report == plan_rep
