"""Graph → Plan compilation.

The compiler performs, once, everything ``Interpreter.run`` redoes per
call:

* **Schedule** — the topological order is frozen into a flat instruction
  list (loop bodies compile into nested sub-plans).
* **Kernel selection** — the shape/flag/hint dispatch of the interpreter's
  ``matmul`` handler (DOT/GEMV/GEMM, and the property-dispatch hints
  TRMM/SYRK/SYMM/diag/tridiag/zero/identity) is resolved here; each
  instruction carries a closure that calls the chosen BLAS kernel
  directly, plus the pre-built :class:`KernelCall` records (dims and
  FLOPs are static: the plan derives its report from them at build, and
  nothing accounts at execution time).  Ops with a destination-aware
  kernel variant additionally carry an ``fn_out`` closure writing into a
  caller-provided buffer — the hook :class:`~repro.runtime.plan.PlanArena`
  execution uses to stay allocation-free.
* **Layout** — every value is C-ordered, the order tensors carry.  BLAS
  kernels issue the kernel layer's row-major calls (the Fortran view
  ``X.T`` of each C buffer, flags flipped — :mod:`repro.kernels.blas3`):
  same routine, same flags, so the bits are the Interpreter's by
  construction, and nothing is staged into Fortran order.  A BLAS
  closure reads those views as the plan's arena keeps them, built with
  its slot buffers and at feed binding (``Instruction.views``), never
  per instruction.  Each ``_compile_*`` declares which operands its
  kernel wants C-contiguous (BLAS matrices, elementwise operands); an
  input slot is "C" when some consumer does, else "A" (any contiguous
  feed aliases).
* **Buffer table** — liveness analysis assigns every value a slot; slots
  of dead temporaries are recycled *shape-aware* (a slot only ever holds
  values of one shape — what lets an arena back each slot with a single
  preallocated buffer; inputs, constants and graph outputs stay live for
  the whole run, matching the interpreter's memory model).
* **Constant preloading** — ``const`` payloads are captured into the
  instruction at compile time; with ``fold_constants=True`` the
  :class:`~repro.passes.constant_folding.ConstantFolding` pass
  pre-evaluates const-only sub-DAGs before compilation (note: the plan
  then mirrors the *folded* program, so report parity is with the
  Interpreter on the folded graph).

The executor closures below must stay in lock-step with the corresponding
``Interpreter._op_*`` handlers: the parity suite executes both on every
workload and compares outputs bit-for-bit and reports field-for-field.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from ..errors import GraphError, KernelError
from ..ir.graph import Graph
from ..ir.interpreter import KernelCall
from ..ir.node import Node
from ..kernels import blas1, blas2, blas3, special
from ..kernels.flops import kernel_flops
from .plan import ExecFn, Instruction, LoopFn, OutFn, Plan, PlanInput
from .signature import graph_signature


def _call(kernel: str, dims: tuple[int, ...], node_op: str) -> KernelCall:
    return KernelCall(kernel, dims, kernel_flops(kernel, *dims), node_op)


def _call_free(kernel: str, node_op: str) -> KernelCall:
    return KernelCall(kernel, (), 0, node_op)


class _Op(NamedTuple):
    """What one ``_compile_*`` hands back to the scheduling loop."""

    fn: ExecFn
    calls: tuple[KernelCall, ...]
    fn_out: OutFn | None = None
    #: Arena-aware loop executor, its compiled body and its trip count
    #: (``loop`` ops only).
    fn_loop: "LoopFn | None" = None
    sub_plan: "Plan | None" = None
    trip_count: int = 0
    #: The destination-aware kernel needs a result-shaped workspace; the
    #: scheduler assigns a shared per-shape scratch slot.
    needs_scratch: bool = False
    #: Operand positions ``fn_out`` reads through their Fortran views —
    #: the matrices a BLAS routine reads (see ``Instruction.views``).
    views: tuple[int, ...] = ()
    #: Further operand positions the kernel wants C-contiguous: elementwise
    #: operands (numpy's mixed-layout path is several times slower than
    #: a pure one).  Slices, diagonal/band extraction, vectors and
    #: operands the kernel copies anyway abstain; an input that neither
    #: this nor :attr:`views` names gets an "A" slot.
    c_args: tuple[int, ...] = ()


# -- per-op compilation -------------------------------------------------------
#
# Each _compile_* returns an _Op: the executor closure(s) and the static
# kernel-call records the plan's report is derived from.


def _compile_const(node: Node) -> _Op:
    value = node.attrs["value"]

    def run(args):
        return value

    return _Op(run, ())


def _compile_transpose(node: Node) -> _Op:
    def run(args):
        return np.ascontiguousarray(args[0].T)

    def run_out(args, out):
        np.copyto(out, args[0].T)
        return out

    return _Op(run, (_call("transpose", node.inputs[0].shape, node.op),), run_out)


def _compile_add(node: Node) -> _Op:
    def run(args):
        return args[0] + args[1]

    def run_out(args, out):
        return blas1.add(args[0], args[1], out=out)

    return _Op(
        run,
        (_call("add", node.inputs[0].shape, node.op),),
        run_out,
        c_args=(0, 1),
    )


def _compile_sub(node: Node) -> _Op:
    def run(args):
        return args[0] - args[1]

    def run_out(args, out):
        return blas1.sub(args[0], args[1], out=out)

    return _Op(
        run,
        (_call("sub", node.inputs[0].shape, node.op),),
        run_out,
        c_args=(0, 1),
    )


def _compile_neg(node: Node) -> _Op:
    def run(args):
        return -args[0]

    def run_out(args, out):
        return blas1.neg(args[0], out=out)

    return _Op(
        run,
        (_call("scale", node.inputs[0].shape, node.op),),
        run_out,
        c_args=(0,),
    )


def _compile_scale(node: Node) -> _Op:
    alpha = node.attrs["alpha"]

    def run(args):
        a = args[0]
        return a * a.dtype.type(alpha)

    def run_out(args, out):
        return blas1.scal(alpha, args[0], out=out)

    return _Op(
        run,
        (_call("scale", node.inputs[0].shape, node.op),),
        run_out,
        c_args=(0,),
    )


def _dot_fns(length_hint: int) -> tuple[ExecFn, OutFn]:
    def run(args):
        a, b = args
        av = np.ascontiguousarray(a).ravel()
        bv = np.ascontiguousarray(b).ravel()
        return np.array([[blas1.dot(av, bv)]], dtype=a.dtype)

    def run_out(args, out):
        a, b = args
        av = np.ascontiguousarray(a).ravel()
        bv = np.ascontiguousarray(b).ravel()
        out[0, 0] = blas1.dot(av, bv)
        return out

    return run, run_out


def _compile_dot(node: Node) -> _Op:
    a_shape = node.inputs[0].shape
    length = a_shape[0] * a_shape[1]
    run, run_out = _dot_fns(length)
    return _Op(run, (_call("dot", (length,), node.op),), run_out)


def _compile_slice(node: Node) -> _Op:
    sel = []
    for key in ("rows", "cols"):
        s = node.attrs.get(key)
        if s is None:
            sel.append(slice(None))
        elif isinstance(s, int):
            sel.append(slice(s, s + 1) if s != -1 else slice(s, None))
        else:
            sel.append(slice(s[0], s[1]))
    sel = tuple(sel)

    def run(args):
        return np.ascontiguousarray(args[0][sel])

    def run_out(args, out):
        np.copyto(out, args[0][sel])
        return out

    return _Op(run, (_call_free("slice", node.op),), run_out)


def _compile_concat(node: Node) -> _Op:
    axis = node.attrs.get("axis", 0)

    def run(args):
        return np.concatenate(args, axis=axis)

    def run_out(args, out):
        np.concatenate(args, axis=axis, out=out)
        return out

    return _Op(run, (_call_free("concat", node.op),), run_out)


def _compile_tridiagonal_matmul(node: Node) -> _Op:
    t, b = node.inputs

    def run(args):
        return special.tridiagonal_matmul(args[0], args[1])

    def run_out(args, out, scratch):
        return special.tridiagonal_matmul(
            args[0], args[1], out=out, scratch=scratch
        )

    return _Op(
        run,
        (_call("tridiagonal_matmul", (t.shape[0], b.shape[1]), node.op),),
        run_out,
        needs_scratch=True,
    )


def _compile_loop(node: Node) -> _Op:
    body: Graph = node.attrs["body"]
    trip: int = node.attrs["trip_count"]
    # The body's feeds are outer-arena values handed over trip after
    # trip, all C-ordered: the loop wants C of exactly the operands whose
    # body slot does, so every trip aliases.
    sub_plan = compile_plan(body)
    c_args = tuple(
        pos for pos, spec in enumerate(sub_plan.inputs[1:])
        if sub_plan.slot_orders[spec.slot] == "C"
    )

    def run(args):
        carried = args[0]
        captured = args[1:]
        for i in range(trip):
            idx = np.array([[float(i)]], dtype=carried.dtype)
            outs, _ = sub_plan.execute([idx, carried, *captured], record=False)
            carried = outs[0]
        return carried

    def run_loop(args, out, state):
        # Arena mode: iterations ping-pong between the LoopState's two
        # child arenas, so the carried value (living in the *other*
        # arena's buffers, or the outer arena's for iteration 0) and the
        # loop-invariant captures (outer-arena buffers, in the order the
        # body's slots declare) are aliased, never copied, into each
        # iteration's feeds; the binding rule copies odd layouts (e.g. a
        # promoted-dtype carried value from the general path).  After
        # both child arenas warm, a trip is allocation- and copy-free.
        carried = args[0]
        captured = args[1:]
        arenas = state.arenas
        for i in range(trip):
            # Re-resolved per iteration: arena-less execution builds idx with
            # the *current* carried dtype, so a mid-loop promotion must be
            # mirrored here to keep body-side promotion bit-identical.
            idx = state.idx(carried.dtype)
            idx[0, 0] = i
            outs, _ = sub_plan.execute(
                [idx, carried, *captured], record=False, arena=arenas[i & 1]
            )
            carried = outs[0]
            if carried is idx:
                # Degenerate body (returns the index input): detach before
                # the next iteration overwrites the shared idx buffer.
                np.copyto(out, idx)
                carried = out
        if carried.dtype != out.dtype:
            # The body promoted the carried dtype (e.g. a float64 const
            # against float32 feeds): hand the promoted value through
            # as-is instead of silently casting it into the buffer.
            return carried
        if carried is not out:
            np.copyto(out, carried)
        return out

    return _Op(
        run, (), fn_loop=run_loop, sub_plan=sub_plan, trip_count=trip,
        c_args=c_args,
    )


def _gemm_fns(trans_a: bool, trans_b: bool) -> tuple[ExecFn, OutFn]:
    """Executor pair for a dense GEMM.

    The destination-aware closure gets the Fortran views of both operands
    and of the destination (``Instruction.views``) and issues the kernel
    layer's row-major call, ``Cᵀ = op(B)ᵀ op(A)ᵀ``, on the
    dtype-dispatched f2py routine directly: shapes and flags were
    validated at compile time, and the per-call wrapper checks are
    exactly the dispatch overhead a compiled plan exists to remove.
    Same routine, same flags, same bits as
    :func:`repro.kernels.blas3.gemm`.
    """
    # The operands swap, and their flags with them.
    ta = 1 if trans_b else 0
    tb = 1 if trans_a else 0
    routines = blas3._GEMM

    def run(args):
        return blas3.gemm(args[0], args[1], trans_a=trans_a, trans_b=trans_b)

    def run_out(args, out, out_t):
        a_t, b_t = args
        routine = routines.get(a_t.dtype)
        if routine is None:
            # Non-BLAS dtype (e.g. integer feeds): take the validating
            # wrapper on the logical operands, which coerces or raises
            # exactly like arena-less execution.  The result bypasses
            # the (wrong-dtype) arena buffer — the executor stores
            # whatever fn_out returns.
            return run([a_t.T, b_t.T])
        routine(
            1.0, b_t, a_t, beta=0.0, c=out_t, overwrite_c=1,
            trans_a=ta, trans_b=tb,
        )
        return out

    return run, run_out


def _gemv_fns(mat: int, vec: int, trans: bool) -> tuple[ExecFn, OutFn]:
    """Executor pair for a matrix-vector product (``args[mat] @ args[vec]``
    modulo ``trans``).  The destination-aware closure reads the matrix
    through its Fortran view and calls the dtype-dispatched f2py routine
    with the kernel layer's flipped TRANS flag — shapes and flags were
    validated at compile time, exactly like the GEMM closures.
    """
    flipped = 0 if trans else 1
    routines = blas2._GEMV
    reshape = (-1, 1) if vec == 1 else (1, -1)

    def run(args):
        x = np.ascontiguousarray(args[vec]).ravel()
        return blas2.gemv(args[mat], x, trans=trans).reshape(reshape)

    def run_out(args, out, out_t):
        a_t = args[mat]
        routine = routines.get(a_t.dtype)
        x = np.ascontiguousarray(args[vec]).ravel()
        if routine is None:
            # Non-BLAS dtype: the validating wrapper raises the same
            # KernelError arena-less execution would.
            blas2.gemv(a_t.T, x, trans=trans, out=out.reshape(-1))
            return out
        routine(
            1.0, a_t, x, beta=0.0, y=out.reshape(-1), overwrite_y=1,
            trans=flipped,
        )
        return out

    return run, run_out


def _compile_matmul(node: Node) -> _Op:
    a_node, b_node = node.inputs
    trans_a = bool(node.attrs.get("trans_a"))
    trans_b = bool(node.attrs.get("trans_b"))
    hint = node.attrs.get("kernel")
    if hint is not None:
        return _compile_structured_matmul(node, trans_a, trans_b, hint)

    a_eff = tuple(reversed(a_node.shape)) if trans_a else a_node.shape
    b_eff = tuple(reversed(b_node.shape)) if trans_b else b_node.shape
    m, k = a_eff
    _, n = b_eff

    if m == 1 and n == 1 and k > 1:
        run, run_out = _dot_fns(k)
        return _Op(run, (_call("dot", (k,), node.op),), run_out)
    if n == 1 and m > 1:
        run, run_out = _gemv_fns(0, 1, trans_a)
        return _Op(
            run, (_call("gemv", (a_node.shape[0], a_node.shape[1]), node.op),),
            run_out,
            views=(0,),
        )
    if m == 1 and n > 1:
        run, run_out = _gemv_fns(1, 0, not trans_b)
        return _Op(
            run, (_call("gemv", (b_node.shape[0], b_node.shape[1]), node.op),),
            run_out,
            views=(1,),
        )

    run, run_out = _gemm_fns(trans_a, trans_b)
    return _Op(
        run, (_call("gemm", (m, k, n), node.op),), run_out, views=(0, 1)
    )


def _compile_structured_matmul(
    node: Node, trans_a: bool, trans_b: bool, hint: str
) -> _Op:
    """Compile a matmul carrying a property-dispatch kernel hint."""
    a_node, b_node = node.inputs
    opts = dict(node.attrs.get("kernel_opts", ()))
    a_eff_shape = tuple(reversed(a_node.shape)) if trans_a else a_node.shape
    b_eff_shape = tuple(reversed(b_node.shape)) if trans_b else b_node.shape
    m, k = a_eff_shape
    n = b_eff_shape[1]

    def eff(args):
        a, b = args
        a_eff = np.ascontiguousarray(a.T) if trans_a else a
        b_eff = np.ascontiguousarray(b.T) if trans_b else b
        return a_eff, b_eff

    if hint == "zero":
        def run(args):
            return np.zeros((m, n), dtype=args[0].dtype)

        def run_out(args, out):
            out.fill(0.0)
            return out

        return _Op(run, (_call_free("zero", node.op),), run_out)
    # The identity forms copy one operand, elementwise when untransposed.
    if hint == "identity":
        def run(args):
            return eff(args)[1].copy()

        def run_out(args, out):
            np.copyto(out, args[1].T if trans_b else args[1])
            return out

        return _Op(
            run, (_call_free("identity", node.op),), run_out,
            c_args=() if trans_b else (1,),
        )
    if hint == "identity_right":
        def run(args):
            return eff(args)[0].copy()

        def run_out(args, out):
            np.copyto(out, args[0].T if trans_a else args[0])
            return out

        return _Op(
            run, (_call_free("identity", node.op),), run_out,
            c_args=() if trans_a else (0,),
        )
    if hint == "syrk":
        if trans_b == trans_a:
            raise KernelError("syrk hint requires exactly one transpose flag")
        return _compile_syrk(node, trans_a, m, k)
    # Destination-aware variants exist for the untransposed operand
    # forms; a transposed operand would have to be materialized first
    # (``eff`` allocates), so those stay on the compute-then-copy path.
    plain = not trans_a and not trans_b
    if hint == "diag_matmul":
        def run(args):
            return special.diag_matmul(*eff(args))

        def run_out(args, out):
            return special.diag_matmul(args[0], args[1], out=out)

        # D is read through its diagonal; the row scaling itself is
        # elementwise over B.
        return _Op(
            run, (_call("diag_matmul", (k, n), node.op),),
            run_out if plain else None,
            c_args=(1,) if plain else (),
        )
    if hint == "tridiagonal_matmul":
        def run(args):
            return special.tridiagonal_matmul(*eff(args))

        def run_out(args, out, scratch):
            return special.tridiagonal_matmul(
                args[0], args[1], out=out, scratch=scratch
            )

        return _Op(
            run, (_call("tridiagonal_matmul", (k, n), node.op),),
            run_out if plain else None,
            needs_scratch=plain,
        )
    lower = opts.get("lower", True)
    if hint == "trmm":
        def run(args):
            return blas3.trmm(*eff(args), lower=lower)

        call = _call("trmm", (m, n), node.op)
        fn_out = _trmm_out(run, 0, side_left=True, lower=lower)
    elif hint == "trmm_right":
        def run(args):
            a_eff, b_eff = eff(args)
            return blas3.trmm(b_eff, a_eff, side_left=False, lower=lower)

        call = _call("trmm", (n, m), node.op)
        fn_out = _trmm_out(run, 1, side_left=False, lower=lower)
    elif hint == "symm":
        def run(args):
            return blas3.symm(*eff(args))

        call = _call("symm", (m, n), node.op)
        fn_out = _symm_out(run)
    else:
        raise KernelError(f"unknown matmul kernel hint {hint!r}")
    if not plain:
        # The kernel layer's row-major call on the materialized operands.
        return _Op(run, (call,), c_args=(0, 1))
    views = (0, 1) if hint == "symm" else (0 if hint == "trmm" else 1,)
    return _Op(run, (call,), fn_out, views=views)


def _trmm_out(run: ExecFn, tri: int, *, side_left: bool, lower: bool) -> OutFn:
    """Destination-aware TRMM with the triangle at ``args[tri]``: the
    kernel layer's row-major call (:func:`repro.kernels.blas3.trmm`) —
    the other operand is staged into the destination, the triangle read
    through its Fortran view, the side and the triangle flipped."""
    side = 1 if side_left else 0
    uplo = 0 if lower else 1
    routines = blas3._TRMM

    def run_out(args, out, out_t):
        t_view, b = args[tri], args[1 - tri]
        routine = routines.get(t_view.dtype)
        if routine is None:
            # Non-BLAS dtype: the validating wrapper on the logical
            # operands, like the GEMM closures.
            logical = list(args)
            logical[tri] = t_view.T
            return run(logical)
        np.copyto(out, b)
        routine(1.0, t_view, out_t, overwrite_b=1, side=side, lower=uplo)
        return out

    return run_out


def _symm_out(run: ExecFn) -> OutFn:
    """Destination-aware SYMM ``A B`` on the Fortran views: the kernel
    layer's row-major ``Bᵀ Aᵀ`` — right side, the other stored
    triangle (:func:`repro.kernels.blas3.symm`)."""
    routines = blas3._SYMM

    def run_out(args, out, out_t):
        a_t, b_t = args
        routine = routines.get(a_t.dtype)
        if routine is None:
            return run([a_t.T, b_t.T])
        routine(1.0, a_t, b_t, beta=0.0, c=out_t, overwrite_c=1, side=1, lower=0)
        return out

    return run_out


def _compile_syrk(node: Node, trans: bool, m: int, k: int) -> _Op:
    """``A Aᵀ`` (``Aᵀ A`` when ``trans``) as the kernel layer's row-major
    SYRK on the Fortran view of ``A`` — ``trans`` and the triangle
    flipped — then the in-place mirror fill
    (:func:`repro.kernels.blas3.syrk`)."""
    flipped = 0 if trans else 1
    routines = blas3._SYRK

    def run(args):
        return blas3.syrk(args[0], trans=trans)

    def run_out(args, out, out_t):
        a_t = args[0]
        routine = routines.get(a_t.dtype)
        if routine is None:
            return run([a_t.T])
        routine(
            1.0, a_t, beta=0.0, c=out_t, overwrite_c=1, trans=flipped,
            lower=0,
        )
        return blas3._mirror_triangle(out, lower=True)

    return _Op(run, (_call("syrk", (m, k), node.op),), run_out, views=(0,))


_COMPILERS: dict[str, Callable[[Node], _Op]] = {
    "const": _compile_const,
    "transpose": _compile_transpose,
    "add": _compile_add,
    "sub": _compile_sub,
    "neg": _compile_neg,
    "scale": _compile_scale,
    "dot": _compile_dot,
    "slice": _compile_slice,
    "concat": _compile_concat,
    "tridiagonal_matmul": _compile_tridiagonal_matmul,
    "matmul": _compile_matmul,
}


# -- the compiler proper ------------------------------------------------------


def compile_plan(
    graph: Graph,
    *,
    fold_constants: bool = False,
    fusion: bool = False,
) -> Plan:
    """Compile ``graph`` into an executable :class:`Plan`."""
    # ``fusion`` is ignored: the frozen e2e benchmark still passes it
    # (benchmarks/e2e/laab_e2e/cold_compile.py and layers.py); ROADMAP
    # item 1 drops those calls, and this keyword with them.
    start = time.perf_counter()
    # Cached on the graph: free when the plan cache already keyed on it.
    signature = graph_signature(graph)
    if fold_constants:
        from ..passes.constant_folding import ConstantFolding

        graph = ConstantFolding().run(graph)

    order = graph.topological()
    last_use: dict[int, int] = {}
    ops: dict[int, _Op] = {}
    # Inputs some kernel wants C-contiguous (see _Op.c_args); a unit
    # dimension makes a value contiguous in every order.
    c_inputs: set[int] = set()
    for idx, node in enumerate(order):
        for inp in node.inputs:
            last_use[id(inp)] = idx
        if node.op == "input":
            continue
        if node.op == "loop":
            op = _compile_loop(node)
        else:
            compiler = _COMPILERS.get(node.op)
            if compiler is None:
                raise GraphError(f"runtime has no compiler for op {node.op!r}")
            op = compiler(node)
        ops[id(node)] = op
        for pos in op.views + op.c_args:
            inp = node.inputs[pos]
            if inp.op == "input" and 1 not in inp.shape:
                c_inputs.add(id(inp))
    for out in graph.outputs:
        last_use[id(out)] = len(order)  # outputs stay live

    # Slot assignment: inputs first (positional feed order), then one slot
    # per executed node.  Recycling is shape-aware — a dead temporary's
    # slot is only reused for a value of the same shape, so every slot
    # has exactly one static shape and an arena can back it with one
    # buffer.
    slot_of: dict[int, int] = {}
    inputs: list[PlanInput] = []
    slot_orders: list[str] = []
    for i, node in enumerate(graph.inputs):
        slot_of[id(node)] = i
        inputs.append(PlanInput(node.name, node.shape, i))
        # "A" (also for a declared input nothing reaches): no kernel's
        # layout depends on it, the binding rule aliases any contiguous feed.
        slot_orders.append("C" if id(node) in c_inputs else "A")
    free_pool: dict[tuple, list[int]] = {}
    # Workspace slots for destination-aware kernels that need one
    # (tridiagonal row scalings).  Shared per shape: a scratch is only
    # live *within* one instruction, so every same-shaped site can reuse
    # one buffer.  Never fed from (or released into) the value pool — a
    # pooled slot could alias a live operand.
    scratch_pool: dict[tuple, int] = {}

    def take_slot(shape: tuple, pooled: bool = True) -> int:
        pool = free_pool.get(shape) if pooled else None
        if pool:
            return pool.pop()
        slot_orders.append("C")
        return len(slot_orders) - 1

    def release_slot(shape: tuple, slot: int) -> None:
        free_pool.setdefault(shape, []).append(slot)

    instructions: list[Instruction] = []
    for idx, node in enumerate(order):
        key = id(node)
        if node.op == "input":
            if key not in slot_of:
                raise GraphError(f"reachable input {node.name!r} not declared")
            continue
        op = ops[key]
        # A constant is staged once, so never into a recycled slot: the
        # temporary that owned it would overwrite the payload every call.
        out_slot = take_slot(node.shape, pooled=node.op != "const")
        slot_of[key] = out_slot
        frees: list[int] = []
        seen: set[int] = set()
        for inp in node.inputs:
            if id(inp) in seen:
                continue
            seen.add(id(inp))
            if last_use.get(id(inp)) == idx and inp.op not in ("input", "const"):
                frees.append(slot_of[id(inp)])
                release_slot(inp.shape, slot_of[id(inp)])
        scratch = None
        if op.needs_scratch:
            scratch = scratch_pool.get(node.shape)
            if scratch is None:
                scratch = scratch_pool[node.shape] = take_slot(
                    node.shape, pooled=False
                )
        instructions.append(
            Instruction(
                out_slot=out_slot,
                arg_slots=tuple(slot_of[id(i)] for i in node.inputs),
                fn=op.fn,
                calls=op.calls,
                free_slots=tuple(frees),
                op=node.op,
                label=node.name,
                out_shape=node.shape,
                fn_out=op.fn_out,
                scratch=scratch,
                fn_loop=op.fn_loop,
                sub_plan=op.sub_plan,
                trip_count=op.trip_count,
                views=op.views,
            )
        )

    return Plan(
        instructions=tuple(instructions),
        inputs=tuple(inputs),
        output_slots=tuple(slot_of[id(o)] for o in graph.outputs),
        num_slots=len(slot_orders),
        signature=signature,
        compile_seconds=time.perf_counter() - start,
        slot_orders=tuple(slot_orders),
        source=(graph, fold_constants),
        input_dtypes=tuple(node.dtype for node in graph.inputs),
    )
