"""Slot layouts and the result hand-off, pinned structurally.

No timing here (``BENCHMARK.json`` owns that); what makes the timing is
asserted as counts that repeat exactly:

* per call, the ten LAAB expressions stage nothing for C-ordered feeds —
  BLAS reads every C buffer in place through its Fortran view (the
  kernel layer's row-major calls) — and, for F-ordered feeds, exactly
  the operands of a "C" input slot: the matrices BLAS reads and the
  elementwise operands; nothing for slices, diagonal/band extraction and
  vectors;
* plans issue the BLAS calls the Interpreter issues: every routine runs
  with the flags, alpha/beta and operand values the Interpreter's
  kernel layer uses, whatever the feeds' layout (and the table recorded
  with the row-major calls);
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
from repro.runtime import signature as signature_module
from repro.tensor import (
    random_diagonal,
    random_general,
    random_lower_triangular,
    random_orthogonal,
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

#: Operands one warm arena call copies for F-ordered feeds: one per "C"
#: input slot (``dist``: A for the GEMM, B and C for the add; ``trmm``:
#: the triangle — B is copied into the destination by the kernel itself
#: either way).  C-ordered feeds stage nothing anywhere.
STAGED_OPERANDS = {
    "cse_sum": 2, "cse_gram": 2, "chain_rl": 1, "chain_mixed": 1, "dist": 3,
    "eq10": 2, "trmm": 1, "tridiag": 0, "diag": 1, "partial": 0,
}

#: Input-slot orders: C where BLAS reads a matrix (through its Fortran
#: view) or an elementwise kernel computes, A where no kernel cares.
INPUT_ORDERS = {
    "cse_sum": "CC", "cse_gram": "CC", "chain_rl": "CA", "chain_mixed": "CAA",
    "dist": "CCC", "eq10": "CCA", "trmm": "CA", "tridiag": "AA", "diag": "AC",
    "partial": "AA",
}

#: The BLAS calls of the aware plans — (routine, nonzero flags, alpha,
#: beta) — recorded with the same spy: the row-major calls, so e.g.
#: ``Aᵀ B`` issues GEMM with ``trans_b`` and ``L B`` TRMM side right on the
#: upper triangle of ``L``'s Fortran view.
PARENT_BLAS_CALLS = {
    "cse_sum": [("gemm", (("trans_b", 1),), 1.0, 0.0)],
    "cse_gram": [("gemm", (("trans_b", 1),), 1.0, 0.0),
                 ("syrk", (), 1.0, 0.0)],
    "chain_rl": [("gemv", (("trans", 1),), 1.0, 0.0), ("gemv", (), 1.0, 0.0)],
    "chain_mixed": [("gemv", (), 1.0, 0.0),
                    ("gemv", (), 1.0, 0.0),
                    ("gemm", (), 1.0, 0.0)],
    "dist": [("gemm", (), 1.0, 0.0)],
    "eq10": [("gemv", (("trans", 1),), 1.0, 0.0),
             ("gemv", (("trans", 1),), 1.0, 0.0),
             ("gemv", (), 1.0, 0.0)],
    "trmm": [("trmm", (("side", 1),), 1.0, 0.0)],
    "tridiag": [], "diag": [], "partial": [],
}


def _aware(name):
    fn, args = SUITE[name]
    return aware_pipeline().run(trace(fn, args)), [t.data for t in args]


#: ``fused`` compiles through the ``fusion=True`` keyword the frozen e2e
#: benchmark still passes; kernel fusion is deleted, so that plan must
#: stage exactly what the bare call's does.
VIA_KEYWORD = pytest.mark.parametrize("fusion", [False, True],
                                      ids=["plain", "fused"])


# -- what is staged -----------------------------------------------------------


@VIA_KEYWORD
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
        assert arena.bytes_copied - before == 0
        assert outs[0].tobytes() == ref[0].tobytes()
    # Every value is C: no instruction writes another layout.
    assert {plan.slot_orders[i.out_slot] for i in plan.instructions} <= {"C"}
    # The same feeds F-ordered: exactly the C slots copy.
    feeds_f = [np.asfortranarray(f) for f in feeds]
    for _ in range(2):
        before = arena.bytes_copied
        outs, _ = plan.execute(feeds_f, record=False, arena=arena)
        assert outs[0].tobytes() == ref[0].tobytes()
        assert arena.bytes_copied - before == STAGED_OPERANDS[name] * MAT
    assert STAGED_OPERANDS[name] == INPUT_ORDERS[name].count("C")


def test_dispatch_chain_inputs_all_demand_c():
    """``a`` and ``b`` are GEMM operands, ``c`` only feeds an ``add`` with
    a GEMM result: every slot is C, C-ordered tensors alias, and an
    F-ordered feed costs one staging copy per input, not one per use."""
    ops = [random_general(16, seed=s) for s in (1, 2, 3)]

    def fn(a, b, c):
        acc = a
        for _ in range(12):
            acc = (acc @ b + c - a) @ a.T
        return acc + acc.T

    graph = default_pipeline().run(trace(fn, ops))
    plan = compile_plan(graph)
    assert set(plan.slot_orders) == {"C"}
    arena = plan.new_arena()
    feeds = [t.data for t in ops]
    plan.execute(feeds, record=False, arena=arena)
    before = arena.bytes_copied
    plan.execute(feeds, record=False, arena=arena)
    assert arena.bytes_copied - before == 0
    before = arena.bytes_copied
    plan.execute([np.asfortranarray(f) for f in feeds], record=False,
                 arena=arena)
    assert arena.bytes_copied - before == 3 * 16 * 16 * 4


def test_c_slot_feed_given_f_ordered_is_copied_not_misaliased():
    """``B + C`` computes in C: an F-ordered feed there must be staged
    into the C buffer (aliasing it would put the add on numpy's
    mixed-layout path)."""
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
    assert arena.bytes_copied == MAT  # A and C alias, B converted
    # bind_pinned never copies, so it refuses the same feed.
    all_f = [np.asfortranarray(f) for f in feeds]
    with pytest.raises(ValueError, match="order 'C'"):
        plan.bind_pinned(all_f, plan.new_arena())


def test_elementwise_result_feeds_blas_without_relayout():
    """Two GEMMs and a slice read ``B + C``: every consumer reads the
    add's one C buffer — the GEMMs through its Fortran view — and a warm
    call copies nothing."""
    a, b, c = (random_general(N, seed=s) for s in (1, 2, 3))

    def fn(p, q, r):
        s = q + r
        return p @ s, s @ p, s[0:4, 0:4]

    graph = trace(fn, [a, b, c])
    plan = compile_plan(graph)
    assert [i.op for i in plan.instructions] \
        == ["add", "matmul", "matmul", "slice"]
    add = plan.instructions[0].out_slot
    for gemm in plan.instructions[1:3]:
        assert add in gemm.arg_slots and gemm.views == (0, 1)
    feeds = [t.data for t in (a, b, c)]
    outs_i, rep_i = Interpreter(record=True).run(graph, feeds)
    arena = plan.new_arena()
    plan.execute(feeds, arena=arena)
    before = arena.bytes_copied
    outs, rep = plan.execute(feeds, arena=arena)
    assert arena.bytes_copied == before
    for got, want in zip(outs, outs_i):
        assert got.tobytes() == want.tobytes()
    assert rep.calls == rep_i.calls
    assert rep.peak_bytes == rep_i.peak_bytes
    assert rep.live_bytes == rep_i.live_bytes


@VIA_KEYWORD
def test_identity_kernel_keeps_its_operands_order(fusion):
    """Aware ``QᵀQ·A`` with orthogonal ``Q`` is ``const I`` then an
    ``identity``-hinted matmul: a copy of ``A``.  The untransposed copy
    is elementwise, so it writes ``A``'s C order — no transposing copy
    into an F destination, and nothing staged on a warm call."""
    q, a = random_orthogonal(N, seed=3), random_general(N, seed=4)
    graph = aware_pipeline().run(trace(lambda p, m: p.T @ p @ m, [q, a]))
    plan = compile_plan(graph, fusion=fusion)
    (kernel,) = [c.kernel for i in plan.instructions for c in i.calls]
    assert kernel == "identity"
    (out,) = plan.output_slots
    assert plan.slot_orders[out] == "C"
    feeds = [q.data, a.data]
    assert feeds[1].flags.c_contiguous
    ref, _ = Interpreter(record=False).run(graph, feeds)
    arena = plan.new_arena()
    plan.execute(feeds, arena=arena)
    before = arena.bytes_copied
    outs, _ = plan.execute(feeds, record=False, arena=arena)
    assert arena.bytes_copied - before == 0
    assert outs[0].tobytes() == ref[0].tobytes()
    assert outs[0].flags.c_contiguous


def test_constant_never_lands_in_a_recycled_slot():
    """A constant is staged once; a temporary sharing its slot would
    overwrite the staged payload on every later call."""
    a, b = random_general(8, seed=1), random_general(8, seed=2)
    graph = trace(lambda p, q: (p @ q) @ q + tfsim.ones(8, 8), [a, b])
    plan = compile_plan(graph)
    const = next(i for i in plan.instructions if i.op == "const")
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
    assert [call[:4] for call in reference] == PARENT_BLAS_CALLS[name]


# -- the hand-off -------------------------------------------------------------


def _arena_buffers(compiled, *args):
    arena = compiled.get_concrete(*args).binding.arena
    return [b for b in arena.buffers if b is not None]


class TestHandOff:
    def test_results_are_the_callers(self):
        """Call k's results survive call k+1 and share memory with no
        arena buffer, no feed and no earlier result — including an output
        that is also an input, one a later instruction reads, and one
        listed twice."""
        def fn(p, q):
            g = p @ q
            return g, g + p, p, g

        a, b = random_general(32, seed=1), random_general(32, seed=2)
        c, d = random_general(32, seed=3), random_general(32, seed=4)
        # A bare default session: no option selects the arena.
        with api.Session() as s:
            f = s.compile(fn)
            want_ab = [t.data.copy() for t in f.interpret(a, b)]
            want_cd = [t.data.copy() for t in f.interpret(c, d)]
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
        """BLAS writes C through the Fortran view of its destination, and
        so does every other kernel; nothing is transposed on the way out
        — and a result chained into the next compiled call aliases at
        zero bytes."""
        a, b = random_general(32, seed=1), random_general(32, seed=2)
        with api.Session() as s:
            gemm = s.compile(lambda p, q: p @ q)
            add = s.compile(lambda p, q: p + q)
            g = gemm(a, b)
            assert g.data.flags.c_contiguous
            assert add(a, b).data.flags.c_contiguous
            chained = gemm(g, g)
            assert np.array_equal(chained.data, blas3.gemm(g.data, g.data))
            staged = gemm.get_concrete(g, g).binding.arena.bytes_copied
            assert staged == 0

    def test_hand_off_allocates_no_copy_for_written_results(self):
        """The array a caller gets *is* the buffer the final kernel wrote
        (no detach copy), and the slot continues with a fresh one."""
        a, b = random_general(32, seed=1), random_general(32, seed=2)
        with api.Session() as s:
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
        plan = compile_plan(graph)
        arena = plan.new_arena()
        first, _ = plan.execute(feeds, record=False, arena=arena)
        second, _ = plan.execute(feeds, record=False, arena=arena)
        assert second[0] is first[0]
        assert first[0] is arena.buffers[plan.output_slots[0]]


# -- compile side -------------------------------------------------------------


def test_plan_cache_computes_the_signature_once_per_build(monkeypatch):
    """``PlanCache`` keys on ``graph_signature``; the compile it triggers
    reuses that signature (it is kept on the graph) instead of
    recomputing it, and so does a later bare ``compile_plan``."""
    keyed = []
    real_node_key = signature_module._node_key

    def counted(node, index_of):
        keyed.append(id(node))
        return real_node_key(node, index_of)

    graph, _ = _aware("chain_rl")
    monkeypatch.setattr(signature_module, "_node_key", counted)
    plan = PlanCache().get(graph)
    assert len(keyed) == len(graph)  # one walk, for the cache key
    assert compile_plan(graph).signature == plan.signature  # called bare
    assert len(keyed) == len(graph)


def test_loop_body_feeds_alias_every_trip():
    """Loop bodies take C-laid feeds like every plan, and the loop wants
    C of the captures the body cares about: C feeds alias in the outer
    plan, and no trip copies."""
    a = random_general(N, seed=1)
    m = random_general(N, seed=2)

    def fn(p, q):
        return tfsim.fori_loop(6, lambda i, x, pp: 0.5 * (pp @ x) + pp, q, [p])

    graph = default_pipeline().run(trace(fn, [a, m]))
    plan = compile_plan(graph)
    assert [plan.slot_orders[s.slot] for s in plan.inputs] == ["C", "C"]
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
    assert arena.bytes_copied - before == 0
