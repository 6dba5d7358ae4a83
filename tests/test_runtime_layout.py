"""The layout plan and the result hand-off, pinned structurally.

No timing here (``BENCHMARK.json`` owns that); what makes the timing is
asserted as counts that repeat exactly:

* per call, the ten LAAB expressions stage exactly the operands a BLAS
  routine reads as a matrix, plus one relayout where a C-computed value
  meets an F-demanding consumer — nothing for slices, diagonal/band
  extraction and vectors;
* the layout plan moves copies, never BLAS calls: every routine runs with
  the flags, alpha/beta and operand values the Interpreter issues (and
  the table recorded at the parent commit);
* results handed to a Session caller are the caller's: correct, unchanged
  by later calls, sharing memory with nothing else, in their producer's
  layout;
* a feed in the wrong layout for a C slot is copied, not mis-aliased.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import api
from repro.frameworks import tfsim
from repro.ir import Interpreter, trace
from repro.kernels import blas2, blas3
from repro.passes import aware_pipeline, default_pipeline
from repro.runtime import PlanCache, compile_plan
from repro.runtime import compiler as compiler_module
from repro.tensor import (
    random_diagonal,
    random_general,
    random_lower_triangular,
    random_tridiagonal,
    random_vector,
)

N = 64
MAT = N * N * 4  # one float32 operand


def _suite():
    """The ``paper_dense`` expressions (Tables II-VI), at n=64."""
    a, b, c, h = (random_general(N, seed=s) for s in (1, 2, 3, 4))
    x, y = random_vector(N, seed=11), random_vector(N, seed=12)
    return {
        "cse_sum": (lambda p, q: p.T @ q + p.T @ q, [a, b]),
        "cse_gram": (lambda p, q: (p.T @ q).T @ (p.T @ q), [a, b]),
        "chain_rl": (lambda m, v: m.T @ m @ v, [h, x]),
        "chain_mixed": (lambda m, u, v: m.T @ u @ v.T @ m, [h, y, x]),
        "dist": (lambda p, q, r: p @ q + p @ r, [a, b, c]),
        "eq10": (lambda p, m, v: (p - m.T @ m) @ v, [a, h, x]),
        "trmm": (lambda l, q: l @ q, [random_lower_triangular(N, seed=5), b]),
        "tridiag": (lambda t, q: t @ q, [random_tridiagonal(N, seed=9), b]),
        "diag": (lambda d, q: d @ q, [random_diagonal(N, seed=10), b]),
        "partial": (lambda p, q: (p @ q)[2, 2], [a, b]),
    }


SUITE = _suite()

#: Bytes one warm arena call copies for C-ordered feeds, in operands:
#: the matrices BLAS reads (``dist``: A, plus the one relayout of B+C;
#: ``trmm``: the triangle — B is copied into the destination by the
#: kernel itself either way).
STAGED_OPERANDS = {
    "cse_sum": 2, "cse_gram": 2, "chain_rl": 1, "chain_mixed": 1, "dist": 2,
    "eq10": 2, "trmm": 1, "tridiag": 0, "diag": 0, "partial": 0,
}

#: Input-slot orders: F where BLAS reads a matrix, C where an elementwise
#: kernel computes in the feeds' order, A where no kernel cares.
INPUT_ORDERS = {
    "cse_sum": "FF", "cse_gram": "FF", "chain_rl": "FA", "chain_mixed": "FAA",
    "dist": "FCC", "eq10": "FFA", "trmm": "FA", "tridiag": "AA", "diag": "AC",
    "partial": "AA",
}

#: The BLAS calls of the fused aware plans — (routine, nonzero flags,
#: alpha, beta) — recorded at the parent commit (04d6c36) with the same spy.
PARENT_BLAS_CALLS = {
    "cse_sum": [("gemm", (("trans_a", 1),), 2.0, 0.0)],
    "cse_gram": [("gemm", (("trans_a", 1),), 1.0, 0.0),
                 ("syrk", (("trans", 1), ("lower", 1)), 1.0, 0.0)],
    "chain_rl": [("gemv", (), 1.0, 0.0), ("gemv", (("trans", 1),), 1.0, 0.0)],
    "chain_mixed": [("gemv", (("trans", 1),), 1.0, 0.0),
                    ("gemv", (("trans", 1),), 1.0, 0.0),
                    ("gemm", (), 1.0, 0.0)],
    "dist": [("gemm", (), 1.0, 0.0)],
    "eq10": [("gemv", (), 1.0, 0.0), ("gemv", (), 1.0, 0.0),
             ("gemv", (("trans", 1),), 1.0, 0.0)],
    "trmm": [("trmm", (("lower", 1),), 1.0, 0.0)],
    "tridiag": [], "diag": [], "partial": [],
}


def _aware(name):
    fn, args = SUITE[name]
    return aware_pipeline().run(trace(fn, args)), [t.data for t in args]


# -- what is staged -----------------------------------------------------------


@pytest.mark.parametrize("fusion", [False, True], ids=["plain", "fused"])
@pytest.mark.parametrize("name", SUITE)
def test_staged_bytes_per_call(name, fusion):
    graph, feeds = _aware(name)
    plan = compile_plan(graph, fusion=fusion)
    assert "".join(plan.slot_orders[s.slot] for s in plan.inputs) \
        == INPUT_ORDERS[name]
    arena = plan.new_arena()
    ref, _ = Interpreter(record=False).run(graph, feeds)
    plan.execute(feeds, record=False, arena=arena)
    for _ in range(2):
        before = arena.bytes_copied
        outs, _ = plan.execute(feeds, record=False, arena=arena)
        assert arena.bytes_copied - before == STAGED_OPERANDS[name] * MAT
        assert outs[0].tobytes() == ref[0].tobytes()
    relayouts = [i for i in plan.instructions if i.kind == "relayout"]
    assert len(relayouts) == (1 if name == "dist" else 0)
    # The same feeds F-ordered: only the C slots (elementwise-in-C) copy.
    feeds_f = [np.asfortranarray(f) for f in feeds]
    before = arena.bytes_copied
    outs, _ = plan.execute(feeds_f, record=False, arena=arena)
    assert outs[0].tobytes() == ref[0].tobytes()
    c_slots = INPUT_ORDERS[name].count("C")
    assert arena.bytes_copied - before == (c_slots + len(relayouts)) * MAT


def test_dispatch_chain_inputs_all_demand_f():
    """``c`` only feeds an ``add`` — but its peer is a GEMM result, so the
    add computes in F and demands F of ``c``: one staging copy, not a
    relayout per use."""
    ops = [random_general(16, seed=s) for s in (1, 2, 3)]

    def fn(a, b, c):
        acc = a
        for _ in range(12):
            acc = (acc @ b + c - a) @ a.T
        return acc + acc.T

    graph = default_pipeline().run(trace(fn, ops))
    plan = compile_plan(graph, fusion=True)
    assert set(plan.slot_orders) == {"F"}
    assert not [i for i in plan.instructions if i.kind == "relayout"]
    arena = plan.new_arena()
    feeds = [t.data for t in ops]
    plan.execute(feeds, record=False, arena=arena)
    before = arena.bytes_copied
    plan.execute(feeds, record=False, arena=arena)
    assert arena.bytes_copied - before == 3 * 16 * 16 * 4


def test_c_slot_feed_given_f_ordered_is_copied_not_misaliased():
    """``B + C`` computes in C: an F-ordered feed there must be staged
    into the C buffer (aliasing it would put the add on numpy's
    mixed-layout path and hand the relayout a non-C source)."""
    graph, feeds = _aware("dist")
    plan = compile_plan(graph)
    _, b_spec, _ = plan.inputs
    assert plan.slot_orders[b_spec.slot] == "C"
    arena = plan.new_arena()
    ref, _ = Interpreter(record=False).run(graph, feeds)
    mixed = [feeds[0], np.asfortranarray(feeds[1]), feeds[2]]
    outs, _ = plan.execute(mixed, record=False, arena=arena)
    assert outs[0].tobytes() == ref[0].tobytes()
    staged = arena.buffers[b_spec.slot]
    assert staged is not None and staged.flags.c_contiguous
    assert not np.shares_memory(staged, mixed[1])
    assert arena.bytes_copied == 3 * MAT  # A staged, B converted, one relayout
    # bind_pinned never copies, so it refuses the same feed.
    all_f = [np.asfortranarray(f) for f in feeds]
    with pytest.raises(ValueError, match="order 'C'"):
        plan.bind_pinned(all_f, plan.new_arena())


def test_elementwise_result_is_relaid_once_for_all_consumers():
    """Two GEMMs read ``B + C``: still one relayout, placed right behind
    the add; a slice of the same value just reads the F copy."""
    a, b, c = (random_general(N, seed=s) for s in (1, 2, 3))

    def fn(p, q, r):
        s = q + r
        return p @ s, s @ p, s[0:4, 0:4]

    graph = trace(fn, [a, b, c])
    plan = compile_plan(graph)
    ops = [i.op for i in plan.instructions]
    assert ops.count("relayout") == 1
    assert ops[ops.index("add") + 1] == "relayout"
    feeds = [t.data for t in (a, b, c)]
    outs_i, rep_i = Interpreter(record=True).run(graph, feeds)
    outs, rep = plan.execute(feeds, arena=plan.new_arena())
    for got, want in zip(outs, outs_i):
        assert got.tobytes() == want.tobytes()
    # The relayout models nothing: the report is the Interpreter's.
    assert rep.calls == rep_i.calls
    assert rep.peak_bytes == rep_i.peak_bytes
    assert rep.live_bytes == rep_i.live_bytes


def test_constant_never_lands_in_a_recycled_slot():
    """A constant is staged once; a temporary sharing its slot would
    overwrite the staged payload on every later call."""
    a, b = random_general(8, seed=1), random_general(8, seed=2)
    graph = trace(lambda p, q: (p @ q) @ q + tfsim.ones(8, 8), [a, b])
    plan = compile_plan(graph)
    const = next(i for i in plan.instructions if i.kind == "const")
    writers = [i for i in plan.instructions if i.out_slot == const.out_slot]
    assert writers == [const]
    feeds = [a.data, b.data]
    ref, _ = Interpreter(record=False).run(graph, feeds)
    arena = plan.new_arena()
    for _ in range(3):
        outs, _ = plan.execute(feeds, record=False, arena=arena)
        assert outs[0].tobytes() == ref[0].tobytes()


# -- BLAS calls are untouched -------------------------------------------------

_TABLES = {"gemm": blas3._GEMM, "gemv": blas2._GEMV, "trmm": blas3._TRMM,
           "syrk": blas3._SYRK, "symm": blas3._SYMM}
_FLAGS = ("trans_a", "trans_b", "trans", "side", "lower", "diag")


@pytest.fixture
def blas_log(monkeypatch):
    """Every BLAS-2/3 call made while the fixture is live: routine,
    nonzero flags, alpha, beta, and a digest of each operand's values in
    positional order."""
    log = []

    def spy(name, routine):
        def wrapped(alpha, *operands, **kw):
            log.append((
                name,
                tuple((k, int(kw[k])) for k in _FLAGS if kw.get(k)),
                float(alpha),
                float(kw.get("beta", 0.0)),
                tuple(hashlib.sha1(o.tobytes()).hexdigest() for o in operands),
            ))
            return routine(alpha, *operands, **kw)
        return wrapped

    for name, table in _TABLES.items():
        for dtype, routine in list(table.items()):
            monkeypatch.setitem(table, dtype, spy(name, routine))
    return log


@pytest.mark.parametrize("name", SUITE)
def test_blas_calls_equal_the_interpreters(name, blas_log):
    graph, feeds = _aware(name)
    Interpreter(record=False).run(graph, feeds)
    reference = list(blas_log)
    plan = compile_plan(graph)
    arena = plan.new_arena()
    for run in (
        lambda: plan.execute(feeds, record=False),
        lambda: plan.execute(feeds, arena=arena),
        lambda: plan.execute(feeds, record=False, arena=arena),
        lambda: plan.execute([np.asfortranarray(f) for f in feeds],
                             record=False, arena=arena),
    ):
        del blas_log[:]
        run()
        # Routine, TRANS/side/uplo flags, alpha, beta, operand order and
        # operand values — all as the Interpreter issues them.
        assert blas_log == reference
    fused = compile_plan(graph, fusion=True)
    arena = fused.new_arena()
    fused.execute(feeds, record=False, arena=arena)
    del blas_log[:]
    fused.execute(feeds, record=False, arena=arena)
    assert [call[:4] for call in blas_log] == PARENT_BLAS_CALLS[name]
    # Folding moves alpha/beta into the call; flags and operands stay.
    assert [(c[0], c[1], c[4][:2]) for c in blas_log] \
        == [(c[0], c[1], c[4][:2]) for c in reference]


# -- the hand-off -------------------------------------------------------------


def _arena_buffers(compiled, *args):
    arena = compiled.get_concrete(*args).binding.arena
    return [b for b in arena.buffers if b is not None]


class TestHandOff:
    @pytest.mark.parametrize("fusion", [False, True], ids=["plain", "fused"])
    def test_results_are_the_callers(self, fusion):
        """Call k's results survive call k+1 and share memory with no
        arena buffer, no feed and no earlier result — including an output
        that is also an input, one a later instruction reads, and one
        listed twice."""
        def fn(p, q):
            g = p @ q
            return g, g + p, p, g

        a, b = random_general(32, seed=1), random_general(32, seed=2)
        c, d = random_general(32, seed=3), random_general(32, seed=4)
        with api.Session() as plain:
            reference = plain.compile(fn)
            want_ab = [t.data.copy() for t in reference(a, b)]
            want_cd = [t.data.copy() for t in reference(c, d)]
        with api.Session(fusion=fusion, arena="preallocated") as s:
            f = s.compile(fn)
            kept = []
            for args, want in ((a, b), want_ab), ((c, d), want_cd), \
                    ((a, b), want_ab), ((a, b), want_ab):
                outs = [t.data for t in f(*args)]
                for got, ref in zip(outs, want):
                    assert got.tobytes() == ref.tobytes()
                others = [t.data for t in args] + _arena_buffers(f, *args) \
                    + [o for outs_k, _ in kept for o in outs_k]
                for k, got in enumerate(outs):
                    for other in others + outs[:k]:
                        assert not np.shares_memory(got, other)
                kept.append((outs, want))
            for outs, want in kept:
                for got, ref in zip(outs, want):
                    assert got.tobytes() == ref.tobytes()

    def test_results_keep_their_producers_layout(self):
        """BLAS writes F, the C-computing kernels C; nothing is
        transposed on the way out, in either arena mode — and a result
        chained into the next compiled call aliases at zero bytes."""
        a, b = random_general(32, seed=1), random_general(32, seed=2)
        for arena in ("per-call", "preallocated"):
            with api.Session(fusion=True, arena=arena) as s:
                gemm = s.compile(lambda p, q: p @ q)
                add = s.compile(lambda p, q: p + q)
                g = gemm(a, b)
                assert g.data.flags.f_contiguous
                assert add(a, b).data.flags.c_contiguous
                chained = gemm(g, g)
                assert np.array_equal(
                    chained.data, blas3.gemm(g.data, g.data)
                )
                if arena == "preallocated":
                    staged = gemm.get_concrete(g, g).binding.arena.bytes_copied
                    assert staged == a.data.nbytes + b.data.nbytes
                # C where C is required is one call away.
                assert np.ascontiguousarray(g.data).flags.c_contiguous

    def test_hand_off_allocates_no_copy_for_written_results(self):
        """The array a caller gets *is* the buffer the final kernel wrote
        (no detach copy), and the slot continues with a fresh one."""
        a, b = random_general(32, seed=1), random_general(32, seed=2)
        with api.Session(arena="preallocated") as s:
            f = s.compile(lambda p, q: p @ q)
            f(a, b)
            binding = f.get_concrete(a, b).binding
            (slot,) = binding.plan.output_slots
            destination = binding.arena.buffers[slot]
            result = f(a, b).data
            assert result is destination
            assert binding.arena.buffers[slot] is not destination
            assert binding.slots[slot] is None  # the caller's alone

    def test_raw_plan_execution_keeps_arena_destinations(self):
        graph, feeds = _aware("cse_sum")
        plan = compile_plan(graph, fusion=True)
        arena = plan.new_arena()
        first, _ = plan.execute(feeds, record=False, arena=arena)
        second, _ = plan.execute(feeds, record=False, arena=arena)
        assert second[0] is first[0]
        assert first[0] is arena.buffers[plan.output_slots[0]]


# -- compile side -------------------------------------------------------------


def test_plan_cache_computes_the_signature_once_per_build(monkeypatch):
    """``PlanCache`` keys on ``graph_signature``; the compile it triggers
    is handed that signature instead of recomputing it."""
    def recomputed(graph):
        raise AssertionError("compile_plan recomputed the signature")

    graph, _ = _aware("chain_rl")
    monkeypatch.setattr(compiler_module, "graph_signature", recomputed)
    plan = PlanCache().get(graph, fusion=True)
    monkeypatch.undo()
    assert compile_plan(graph).signature == plan.signature  # called bare


def test_loop_body_feeds_alias_every_trip():
    """Loop bodies are compiled against F-laid feeds, and the loop
    demands F of the captures the body cares about: the outer plan stages
    once per call, no trip copies."""
    a = random_general(N, seed=1)
    m = random_general(N, seed=2)

    def fn(p, q):
        return tfsim.fori_loop(6, lambda i, x, pp: 0.5 * (pp @ x) + pp, q, [p])

    graph = default_pipeline().run(trace(fn, [a, m]))
    plan = compile_plan(graph, fusion=True)
    assert [plan.slot_orders[s.slot] for s in plan.inputs] == ["F", "F"]
    arena = plan.new_arena()
    feeds = [a.data, m.data]
    ref, _ = Interpreter(record=False).run(graph, feeds)
    for _ in range(3):
        outs, _ = plan.execute(feeds, record=False, arena=arena)
        assert outs[0].tobytes() == ref[0].tobytes()
    (state,) = arena.loops.values()
    copied = [child.bytes_copied for child in state.arenas]
    before = arena.bytes_copied
    plan.execute(feeds, record=False, arena=arena)
    assert [child.bytes_copied for child in state.arenas] == copied
    assert arena.bytes_copied - before == 2 * MAT
