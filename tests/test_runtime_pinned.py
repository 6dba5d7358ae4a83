"""Pinned storage: PinnedBinding, Plan.pin_slot/arena.install, per-slot
layout orders, and Session.pin tensors through the arena binding.

Contracts under test:

* ``Plan.bind_pinned`` validates feed count/shape/layout once and the
  binding then executes bit-identically to ``plan.execute`` — with the
  bound arrays' *contents* re-read every call (rewrite in place, call
  again, get new results).
* ``Plan.pin_slot`` backs an arena slot with caller-owned storage;
  instructions write the slot's value straight into it, and a pinned
  slot refuses to be silently reallocated away.
* The compiler's per-slot memory orders: every computed value, and every
  input a kernel wants C-contiguous (a matrix BLAS reads through its
  Fortran view, an elementwise operand), is "C"; inputs no kernel's
  layout depends on are "A" (any contiguous array binds), and the
  binding rule checks feeds against the slot's declared order
  (``tests/test_runtime_layout.py`` pins the plan itself).
* The certified serving pass is one generated straight-line function per
  plan — a call line per instruction, no loop or branch — built on the
  first certified pass (never by a plan executed once), readable as
  ``Plan.generated_source``, and a kernel failing inside it raises what
  the instruction loop would, from a line that names the instruction.
* ``Session.pin``: pinned tensors already have their slot's layout, so
  every call aliases them (``bytes_copied`` never grows) and in-place
  rewrites flow into the next call; results always match a per-call
  session.
"""

from __future__ import annotations

import traceback

import numpy as np
import pytest

from repro import api
from repro.errors import ConfigError, GraphError, KernelError
from repro.ir import Interpreter, trace
from repro.passes import aware_pipeline, default_pipeline
from repro.runtime import PinnedBinding, Plan, compile_plan
from repro.runtime.plan import Instruction, PlanInput
from repro.tensor import (
    Tensor,
    random_general,
    random_lower_triangular,
    random_tridiagonal,
)


def _dispatch_workload(loops: int = 4):
    ops = [random_general(16, seed=s) for s in (1, 2, 3)]

    def fn(a, b, c):
        acc = a
        for _ in range(loops):
            acc = (acc @ b + c - a) @ a.T
        return acc + acc.T

    graph = default_pipeline().run(trace(fn, ops))
    return graph, [t.data for t in ops]


def _structured_workload():
    l_mat = random_lower_triangular(24, seed=5)
    t = random_tridiagonal(24, seed=9)
    b = random_general(24, seed=2)
    graph = aware_pipeline().run(
        trace(lambda l, tt, p: l @ (tt @ p), [l_mat, t, b])
    )
    return graph, [l_mat.data, t.data, b.data]


def _ordered_feeds(plan, feeds):
    """Feeds laid out as every slot accepts: C-contiguous."""
    return [np.ascontiguousarray(f) for f in feeds]


class TestPinnedBinding:
    def test_binding_matches_execute_bit_for_bit(self):
        graph, feeds = _dispatch_workload()
        plan = compile_plan(graph)
        ref, _ = plan.execute(feeds)
        binding = plan.bind_pinned(
            _ordered_feeds(plan, feeds), plan.new_arena()
        )
        for _ in range(3):  # warming pass + generated passes
            outs = binding.execute()
            for a, b in zip(outs, ref):
                assert np.array_equal(a, b)

    def test_contents_reread_each_call(self):
        graph, feeds = _dispatch_workload()
        plan = compile_plan(graph)
        bound = _ordered_feeds(plan, feeds)
        binding = plan.bind_pinned(bound, plan.new_arena())
        binding.execute()
        new_feeds = [np.asfortranarray(f * 2.0) for f in feeds]
        for dst, src in zip(bound, new_feeds):
            np.copyto(dst, src)
        ref, _ = plan.execute(new_feeds)
        outs = binding.execute()
        assert np.array_equal(outs[0], ref[0])

    def test_structured_binding_parity(self):
        graph, feeds = _structured_workload()
        plan = compile_plan(graph)
        interp_out, _ = Interpreter(record=False).run(graph, feeds)
        binding = plan.bind_pinned(
            _ordered_feeds(plan, feeds), plan.new_arena()
        )
        binding.execute()
        assert np.array_equal(binding.execute()[0], interp_out[0])

    def test_validation(self):
        graph, feeds = _dispatch_workload()
        plan = compile_plan(graph)
        arena = plan.new_arena()
        with pytest.raises(GraphError, match="inputs"):
            plan.bind_pinned(feeds[:2], arena)
        bad_shape = [np.ones((3, 3), dtype=np.float32), *feeds[1:]]
        with pytest.raises(GraphError, match="shape"):
            plan.bind_pinned(bad_shape, arena)
        # Dispatch inputs are all C slots; F-only arrays fail the layout
        # check by name.
        f_ordered = [np.asfortranarray(f) for f in feeds]
        with pytest.raises(ValueError, match="contiguous"):
            plan.bind_pinned(f_ordered, arena)


class TestGeneratedServingPass:
    def test_chain_source_is_one_call_line_per_instruction(self):
        """The benchmark's 53-node chain (12 rounds, n=16)."""
        graph, feeds = _dispatch_workload(loops=12)
        plan = compile_plan(graph)
        binding = PinnedBinding(plan, plan.new_arena())
        binding.rebind(feeds)
        warm = [o.copy() for o in binding.execute()]
        assert plan.generated_source is None  # a warming pass is a loop
        served = binding.execute()
        assert np.array_equal(served[0], warm[0])
        lines = plan.generated_source.splitlines()
        calls = [ln for ln in lines if "(" in ln.split("#")[0]][1:]  # - def
        assert len(calls) == len(plan.instructions) == 50
        for line, inst in zip(calls, plan.instructions):
            assert line.endswith(f"# {inst.op} {inst.label}")
        words = {w for ln in lines for w in ln.split("#")[0].split()}
        assert not words & {"for", "while", "if"}

    def test_source_is_shared_by_every_binding_of_the_plan(self):
        graph, feeds = _dispatch_workload()
        plan = compile_plan(graph)
        for _ in range(2):
            plan.execute(feeds, record=False, arena=plan.new_arena())
        assert plan.generated_source is None  # two bindings, one pass each
        arena = plan.new_arena()
        for _ in range(2):
            plan.execute(feeds, record=False, arena=arena)
        source = plan.generated_source
        assert source is not None
        other = PinnedBinding(plan, plan.new_arena())
        other.rebind(feeds)
        other.execute(), other.execute()
        assert plan.generated_source is source

    def test_nothing_is_generated_by_a_single_session_call(self):
        a, b = random_general(8, seed=1), random_general(8, seed=2)
        with api.Session() as session:
            f = session.compile(lambda p, q: (p @ q + p) @ q)
            first = f(a, b)
            plan = f.get_concrete(a, b).plan
            assert plan.generated_source is None
            assert np.array_equal(f(a, b).data, first.data)
            assert plan.generated_source is not None

    def test_kernel_error_surfaces_unchanged_and_names_the_instruction(self):
        """A hand-built plan whose second kernel can be made to fail:
        the generated pass raises what a warming loop raises, and the
        traceback shows the generated line with its instruction note."""
        broken = []

        def add_out(args, out):
            return np.add(args[0], args[1], out=out)

        def neg_out(args, out):
            if broken:
                raise KernelError("no kernel for this operand")
            return np.negative(args[0], out=out)

        def unused(args):  # arena-less executor: not run here
            raise AssertionError

        plan = Plan(
            instructions=(
                Instruction(2, (0, 1), unused, (), (), "add", "add_0",
                            out_shape=(2, 2), fn_out=add_out),
                Instruction(3, (2,), unused, (), (2,), "neg", "neg_1",
                            out_shape=(2, 2), fn_out=neg_out),
            ),
            inputs=(PlanInput("p", (2, 2), 0), PlanInput("q", (2, 2), 1)),
            output_slots=(3,),
            num_slots=4,
            signature=(),
        )
        feeds = [np.eye(2, dtype=np.float32)] * 2
        binding = plan.bind_pinned(feeds, plan.new_arena())
        binding.execute()
        assert np.array_equal(binding.execute()[0], -2 * np.eye(2))
        broken.append(True)
        with pytest.raises(KernelError) as served:
            binding.execute()
        with pytest.raises(KernelError) as warming:
            plan.bind_pinned(feeds, plan.new_arena()).execute()
        assert str(served.value) == str(warming.value)
        text = "".join(traceback.format_exception(served.value))
        assert "<repro plan" in text
        assert "# neg neg_1" in text
        # The binding survives: the next pass serves again.
        broken.clear()
        assert np.array_equal(binding.execute()[0], -2 * np.eye(2))


class TestSlotOrdersAndPinning:
    def test_structured_plan_orders(self):
        graph, _ = _structured_workload()
        plan = compile_plan(graph)
        by_slot = dict(enumerate(plan.slot_orders))
        # TRMM reads its triangle as a matrix, through the Fortran view
        # of a C buffer: C.  The tridiagonal matrix is read through its
        # bands and the RHS row by row — neither kernel's layout depends
        # on them, so they bind as they come — and the tridiagonal
        # result + scratch are C-ordered destinations like every other.
        l_slot, t_slot, b_slot = (spec.slot for spec in plan.inputs)
        assert by_slot[l_slot] == "C"
        assert by_slot[t_slot] == "A"
        assert by_slot[b_slot] == "A"
        tri = next(i for i in plan.instructions if "tridiag" in
                   i.calls[0].kernel)
        assert plan.slot_orders[tri.out_slot] == "C"
        assert plan.slot_orders[tri.scratch] == "C"

    def test_dispatch_plan_is_c_ordered(self):
        graph, _ = _dispatch_workload()
        plan = compile_plan(graph)
        assert set(plan.slot_orders) == {"C"}

    def test_binding_rule_respects_slot_order(self):
        graph, feeds = _structured_workload()
        plan = compile_plan(graph)
        arena = plan.new_arena()
        ordered = _ordered_feeds(plan, feeds)
        out_ref, _ = plan.execute(feeds, record=False)
        for _ in range(2):
            outs, _ = plan.execute(ordered, record=False, arena=arena)
            assert np.array_equal(outs[0], out_ref[0])
        assert arena.bytes_copied == 0
        # The tridiagonal RHS slot takes any contiguous layout; TRMM's
        # triangle is a C slot: an F-only array there is the one that
        # gets staged.
        wrong = list(ordered)
        wrong[0] = np.asfortranarray(feeds[0])
        wrong[2] = np.asfortranarray(feeds[2])
        outs, _ = plan.execute(wrong, record=False, arena=arena)
        assert np.array_equal(outs[0], out_ref[0])
        assert arena.bytes_copied == feeds[0].nbytes

    def test_unordered_slot_aliases_default_tensor(self):
        """A tridiagonal input's slot demands no order, so the
        C-contiguous array a ``Tensor`` carries by default is aliased,
        not staged — and so is the same tensor against TRMM's C slot:
        nothing is copied."""
        graph, feeds = _structured_workload()
        plan = compile_plan(graph)
        tensors = [Tensor(f) for f in feeds]
        assert all(t.data.flags.c_contiguous for t in tensors)
        arena = plan.new_arena()
        plan.execute(tensors, record=False, arena=arena)
        l_spec, t_spec, b_spec = plan.inputs
        assert arena.buffers[t_spec.slot] is None
        assert arena.buffers[b_spec.slot] is None
        assert arena.buffers[l_spec.slot] is None
        assert arena.bytes_copied == 0

    def test_pin_slot_writes_through_external_buffer(self):
        graph, feeds = _dispatch_workload()
        plan = compile_plan(graph)
        arena = plan.new_arena()
        out_slot = plan.output_slots[0]
        external = np.empty(plan.slot_shape(out_slot), dtype=np.float32)
        plan.pin_slot(arena, out_slot, external)
        outs, _ = plan.execute(feeds, record=False, arena=arena)
        assert outs[0] is external

    def test_pin_slot_validates(self):
        graph, _ = _dispatch_workload()
        plan = compile_plan(graph)
        arena = plan.new_arena()
        out_slot = plan.output_slots[0]
        with pytest.raises(ValueError, match="shape"):
            plan.pin_slot(arena, out_slot,
                          np.empty((2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="contiguous"):
            plan.pin_slot(
                arena, out_slot,
                np.empty((32, 32), dtype=np.float32)[::2, ::2],
            )

    def test_pinned_slot_refuses_silent_reallocation(self):
        graph, feeds = _dispatch_workload()
        plan = compile_plan(graph)
        arena = plan.new_arena()
        out_slot = plan.output_slots[0]
        external = np.empty(plan.slot_shape(out_slot), dtype=np.float64)
        plan.pin_slot(arena, out_slot, external)
        # float32 execution needs a float32 buffer; the pin makes the
        # mismatch loud instead of silently dropping the external buffer.
        with pytest.raises(ValueError, match="pinned"):
            plan.execute(feeds, record=False, arena=arena)

    def test_buffer_descriptors(self):
        graph, _ = _structured_workload()
        plan = compile_plan(graph)
        descs = plan.buffer_descriptors(np.float32)
        inputs = [d for d in descs if d.role == "input"]
        outputs = [d for d in descs if d.role == "output"]
        assert [d.name for d in inputs] == [p.name for p in plan.inputs]
        assert len(outputs) == len(plan.output_slots)
        for d in descs:
            # Every slot is laid out in C, an "A" slot included.
            assert d.order == "C"
            assert d.nbytes == int(np.prod(d.shape)) * 4


class TestSessionPin:
    def test_pin_registry(self):
        with api.Session() as s:
            t1 = s.pin("x", (8, 8))
            t2 = s.pin("x", (8, 8))
            assert t1 is t2
            assert t1.data.flags.c_contiguous
            assert not t1.data.any()
            with pytest.raises(ConfigError, match="already exists"):
                s.pin("x", (4, 4))

    def test_pinned_calls_alias_and_match_per_call_session(self):
        A, B, C = (random_general(16, seed=s) for s in (1, 2, 3))

        def fn(a, b, c):
            return (a @ b + c) @ a.T

        with api.Session() as plain:
            g = plain.compile(fn)
            ref, ref2 = g(A, B, C), g(C, B, C)

        with api.Session() as s:
            f = s.compile(fn)
            a = s.pin("a", (16, 16))
            b = s.pin("b", (16, 16))
            c = s.pin("c", (16, 16))
            np.copyto(a.data, A.data)
            np.copyto(b.data, B.data)
            np.copyto(c.data, C.data)
            concrete = f.get_concrete(a, b, c)
            binding = concrete.binding
            for _ in range(3):
                assert np.array_equal(f(a, b, c).data, ref.data)
            # In-place rewrite flows into the next call.
            np.copyto(a.data, C.data)
            assert np.array_equal(f(a, b, c).data, ref2.data)
            # One persistent slot table, and pins never staged a byte.
            assert concrete.binding is binding
            assert binding.arena.bytes_copied == 0
            assert binding.slots[concrete.plan.inputs[0].slot] is a.data

    def test_strided_feed_is_copied_and_correct(self):
        A, B = random_general(8, seed=1), random_general(8, seed=2)
        wide = np.zeros((8, 16), dtype=A.dtype)
        wide[:, ::2] = A.data

        def fn(a, b):
            return a @ b + a

        with api.Session() as s:
            f = s.compile(fn)
            strided = Tensor(wide[:, ::2])
            assert not strided.data.flags.c_contiguous
            for _ in range(2):
                r = f(strided, B)
                assert np.array_equal(r.data, (A @ B + A).data)
