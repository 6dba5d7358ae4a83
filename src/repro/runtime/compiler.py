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
  FLOPs are static, so the modelled-cost accounting costs nothing at
  execution time).  Ops with a destination-aware kernel variant
  additionally carry an ``fn_out`` closure writing into a caller-provided
  buffer — the hook :class:`~repro.runtime.plan.PlanArena` execution uses
  to stay allocation-free.
* **Buffer table** — liveness analysis assigns every value a slot; slots
  of dead temporaries are recycled *shape-aware* (a slot only ever holds
  values of one shape — what lets an arena back each slot with a single
  preallocated buffer; inputs, constants and graph outputs stay live for
  the whole run, matching the interpreter's memory model).
* **Fusion** (opt-in, ``fusion=True``) — a post-schedule pass over the
  finished instruction stream (:mod:`repro.runtime.fusion`): adjacent
  single-consumer elementwise chains collapse into one fused closure, and
  a ``scale``/``neg`` trailing a dense GEMM folds into the GEMM's alpha.
  Outputs stay bit-identical; reports keep FLOP totals and peak bytes,
  with fused sites represented as combined kernel-call records (the
  parity contract in :mod:`repro.runtime.plan`).
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

import dataclasses
import time
from collections.abc import Callable

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


@dataclasses.dataclass(frozen=True)
class _Op:
    """What one ``_compile_*`` hands back to the scheduling loop."""

    fn: ExecFn
    calls: tuple[KernelCall, ...]
    fn_out: OutFn | None = None
    kind: str | None = None
    params: tuple = ()
    #: Arena-aware loop executor + its compiled body (``loop`` ops only).
    fn_loop: "LoopFn | None" = None
    sub_plan: "Plan | None" = None
    #: The destination-aware kernel needs a result-shaped workspace; the
    #: scheduler assigns a shared per-shape scratch slot.
    needs_scratch: bool = False
    #: Preferred memory order of the destination (and scratch) buffer.
    #: "F" is BLAS's layout; the tridiagonal row-scaling kernel declares
    #: "C" — its offset row slices degenerate into strided inner loops
    #: against an F destination (measured ~2x slower than allocating).
    out_order: str = "F"
    #: Per-operand layout preference used to pick *input-slot* staging
    #: order: "F"/"C" votes, ``None`` abstains.  ``None`` for the whole
    #: tuple means "vote F for every operand" (the safe default — mixed
    #: layouts put ufuncs on buffering paths).
    arg_orders: tuple | None = None


# -- per-op compilation -------------------------------------------------------
#
# Each _compile_* returns an _Op: the executor closure(s) and the static
# kernel-call records appended per execution.


def _compile_const(node: Node) -> _Op:
    value = node.attrs["value"]

    def run(args, report, record):
        return value

    return _Op(run, (), kind="const")


def _compile_transpose(node: Node) -> _Op:
    def run(args, report, record):
        return np.ascontiguousarray(args[0].T)

    def run_out(args, out):
        np.copyto(out, args[0].T)
        return out

    return _Op(run, (_call("transpose", node.inputs[0].shape, node.op),), run_out)


def _compile_add(node: Node) -> _Op:
    def run(args, report, record):
        return args[0] + args[1]

    def run_out(args, out):
        return blas1.add(args[0], args[1], out=out)

    return _Op(
        run,
        (_call("add", node.inputs[0].shape, node.op),),
        run_out,
        kind="ew",
        params=("add",),
    )


def _compile_sub(node: Node) -> _Op:
    def run(args, report, record):
        return args[0] - args[1]

    def run_out(args, out):
        return blas1.sub(args[0], args[1], out=out)

    return _Op(
        run,
        (_call("sub", node.inputs[0].shape, node.op),),
        run_out,
        kind="ew",
        params=("sub",),
    )


def _compile_neg(node: Node) -> _Op:
    def run(args, report, record):
        return -args[0]

    def run_out(args, out):
        return blas1.neg(args[0], out=out)

    return _Op(
        run,
        (_call("scale", node.inputs[0].shape, node.op),),
        run_out,
        kind="ew",
        params=("neg",),
    )


def _compile_scale(node: Node) -> _Op:
    alpha = node.attrs["alpha"]

    def run(args, report, record):
        a = args[0]
        return a * a.dtype.type(alpha)

    def run_out(args, out):
        return blas1.scal(alpha, args[0], out=out)

    return _Op(
        run,
        (_call("scale", node.inputs[0].shape, node.op),),
        run_out,
        kind="ew",
        params=("scale", alpha),
    )


def _dot_fns(length_hint: int) -> tuple[ExecFn, OutFn]:
    def run(args, report, record):
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

    def run(args, report, record):
        return np.ascontiguousarray(args[0][sel])

    def run_out(args, out):
        np.copyto(out, args[0][sel])
        return out

    return _Op(run, (_call_free("slice", node.op),), run_out)


def _compile_concat(node: Node) -> _Op:
    axis = node.attrs.get("axis", 0)

    def run(args, report, record):
        return np.concatenate(args, axis=axis)

    def run_out(args, out):
        np.concatenate(args, axis=axis, out=out)
        return out

    return _Op(run, (_call_free("concat", node.op),), run_out)


def _compile_tridiagonal_matmul(node: Node) -> _Op:
    t, b = node.inputs

    def run(args, report, record):
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
        out_order="C",
        arg_orders=("C", "C"),
    )


def _compile_loop(node: Node, fusion: bool) -> _Op:
    body: Graph = node.attrs["body"]
    trip: int = node.attrs["trip_count"]
    sub_plan = compile_plan(body, fusion=fusion)

    def run(args, report, record):
        carried = args[0]
        captured = args[1:]
        for i in range(trip):
            idx = np.array([[float(i)]], dtype=carried.dtype)
            outs, _ = sub_plan.execute(
                [idx, carried, *captured], report=report, record=record
            )
            carried = outs[0]
        return carried

    def run_loop(args, out, state, report, record):
        # Arena mode: iterations ping-pong between the LoopState's two
        # child arenas, so the carried value (living in the *other*
        # arena's buffers, or the outer arena's for iteration 0) and the
        # loop-invariant captures (outer-arena buffers, F-ordered) are
        # aliased, never copied, into each iteration's feeds; the
        # binding rule copies odd layouts (e.g. a promoted-dtype carried
        # value from the general path).  After both child arenas warm, a
        # trip is allocation- and copy-free.
        carried = args[0]
        captured = args[1:]
        arenas = state.arenas
        for i in range(trip):
            # Re-resolved per iteration: per-call mode builds idx with the
            # *current* carried dtype, so a mid-loop promotion must be
            # mirrored here to keep body-side promotion bit-identical.
            idx = state.idx(carried.dtype)
            idx[0, 0] = i
            outs, _ = sub_plan.execute(
                [idx, carried, *captured], report=report, record=record,
                arena=arenas[i & 1],
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

    return _Op(run, (), fn_loop=run_loop, sub_plan=sub_plan)


def make_gemm_fns(
    trans_a: bool, trans_b: bool, alpha: float = 1.0
) -> tuple[ExecFn, OutFn]:
    """Executor pair for a dense GEMM with folded ``alpha``.

    Shared with the fusion pass, which rebuilds GEMM closures when it
    folds a trailing ``scale``/``neg`` into the product.  The
    destination-aware closure calls the dtype-dispatched f2py routine
    directly: shapes and flags were validated at compile time, the arena
    guarantees an F-contiguous destination, and the per-call wrapper
    checks are exactly the dispatch overhead a compiled plan exists to
    remove.  Same routine, same bits as :func:`repro.kernels.blas3.gemm`.
    """
    ta = 1 if trans_a else 0
    tb = 1 if trans_b else 0
    routines = blas3._GEMM

    def run(args, report, record):
        return blas3.gemm(
            args[0], args[1], alpha=alpha, trans_a=trans_a, trans_b=trans_b
        )

    def run_out(args, out):
        a, b = args
        routine = routines.get(a.dtype)
        if routine is None:
            # Non-BLAS dtype (e.g. integer feeds): take the validating
            # wrapper, which coerces or raises exactly like per-call
            # mode.  The result bypasses the (wrong-dtype) arena buffer —
            # the executor stores whatever fn_out returns.
            return run(args, None, False)
        # alpha passes as a python float: f2py casts it to the routine's
        # scalar type in C — same value, same bits as pre-building a
        # numpy scalar, without allocating one per call.
        return routine(
            alpha, a, b, beta=0.0, c=out, overwrite_c=1,
            trans_a=ta, trans_b=tb,
        )

    return run, run_out


def _gemv_fns(mat: int, vec: int, trans: bool) -> tuple[ExecFn, OutFn]:
    """Executor pair for a matrix-vector product (``args[mat] @ args[vec]``
    modulo ``trans``).  The destination-aware closure calls the
    dtype-dispatched f2py routine directly — shapes and flags were
    validated at compile time, exactly like the GEMM closures.
    """
    t = 1 if trans else 0
    routines = blas2._GEMV
    reshape = (-1, 1) if vec == 1 else (1, -1)

    def run(args, report, record):
        x = np.ascontiguousarray(args[vec]).ravel()
        return blas2.gemv(args[mat], x, trans=trans).reshape(reshape)

    def run_out(args, out):
        a = args[mat]
        routine = routines.get(a.dtype)
        x = np.ascontiguousarray(args[vec]).ravel()
        if routine is None:
            # Non-BLAS dtype: the validating wrapper raises the same
            # KernelError per-call mode would.
            blas2.gemv(a, x, trans=trans, out=out.reshape(-1))
            return out
        routine(1.0, a, x, beta=0.0, y=out.reshape(-1), overwrite_y=1, trans=t)
        return out

    return run, run_out


def make_gemm_beta_fns(
    trans_a: bool, trans_b: bool, alpha: float, beta: float, g_first: bool,
    ew_op: str,
) -> tuple[ExecFn, OutFn]:
    """Executor pair for a GEMM with a folded trailing ``add``/``sub``.

    Built by the fusion pass when a single-consumer elementwise combine
    of the product with a *dead* addend merges into the BLAS call's
    C-accumulate: ``C := alpha·op(A)op(B) + beta·C`` with the addend as
    ``C``.  ``alpha``/``beta`` are restricted to ±1 by the caller —
    sign flips are exact in IEEE arithmetic (and exact under FMA
    contraction too), so every variant is bit-identical to the separate
    GEMM-then-ufunc sequence:

    * ``add``:            ``alpha=1,  beta=1``   (either operand order)
    * ``sub``, ``G - C``: ``alpha=1,  beta=-1``
    * ``sub``, ``C - G``: ``alpha=-1, beta=1``

    ``args`` is ``[a, b, addend]``.  The per-call closure lets f2py copy
    the addend into the accumulate destination (``overwrite_c=0``):
    slot-level liveness is not object-level ownership — an upstream op
    can pass an *input array* through unchanged (e.g. a ``fori_loop``
    identity body), so writing into the addend object in place could
    corrupt a caller-owned feed.  The destination-aware closure stages
    the addend into the arena destination (arena-owned by construction)
    and accumulates there, allocation-free.  A non-BLAS dtype, a
    mixed-dtype operand pair, or a promoted addend falls back to the
    validating wrapper plus the original ufunc — raising or promoting
    exactly like the unfused plan.
    """
    ta = 1 if trans_a else 0
    tb = 1 if trans_b else 0
    routines = blas3._GEMM
    ufunc = np.add if ew_op == "add" else np.subtract

    def _fallback(args):
        a, b, c = args
        g = blas3.gemm(a, b, trans_a=trans_a, trans_b=trans_b)
        return ufunc(g, c) if g_first else ufunc(c, g)

    def run(args, report, record):
        a, b, c = args
        routine = routines.get(a.dtype)
        if routine is None or b.dtype != a.dtype or c.dtype != a.dtype:
            return _fallback(args)
        return routine(
            alpha, a, b, beta=beta, c=c,
            overwrite_c=0, trans_a=ta, trans_b=tb,
        )

    def run_out(args, out):
        a, b, c = args
        routine = routines.get(a.dtype)
        if routine is None or b.dtype != a.dtype or c.dtype != a.dtype:
            return _fallback(args)
        if c is not out:
            np.copyto(out, c)
        # alpha/beta (±1) pass as python floats: f2py's C-side cast is
        # exact, and no per-call numpy scalar is allocated.
        return routine(
            alpha, a, b, beta=beta, c=out,
            overwrite_c=1, trans_a=ta, trans_b=tb,
        )

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
        )
    if m == 1 and n > 1:
        run, run_out = _gemv_fns(1, 0, not trans_b)
        return _Op(
            run, (_call("gemv", (b_node.shape[0], b_node.shape[1]), node.op),),
            run_out,
        )

    run, run_out = make_gemm_fns(trans_a, trans_b)
    return _Op(
        run,
        (_call("gemm", (m, k, n), node.op),),
        run_out,
        kind="gemm",
        params=(trans_a, trans_b, 1.0),
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
        def run(args, report, record):
            return np.zeros((m, n), dtype=args[0].dtype)

        def run_out(args, out):
            out.fill(0.0)
            return out

        return _Op(run, (_call_free("zero", node.op),), run_out)
    if hint == "identity":
        def run(args, report, record):
            return eff(args)[1].copy()

        def run_out(args, out):
            np.copyto(out, args[1].T if trans_b else args[1])
            return out

        return _Op(run, (_call_free("identity", node.op),), run_out)
    if hint == "identity_right":
        def run(args, report, record):
            return eff(args)[0].copy()

        def run_out(args, out):
            np.copyto(out, args[0].T if trans_a else args[0])
            return out

        return _Op(run, (_call_free("identity", node.op),), run_out)
    # Destination-aware variants exist for the untransposed operand
    # forms; a transposed operand would have to be materialized first
    # (``eff`` allocates), so those stay on the compute-then-copy path.
    plain = not trans_a and not trans_b
    if hint == "diag_matmul":
        def run(args, report, record):
            return special.diag_matmul(*eff(args))

        def run_out(args, out):
            return special.diag_matmul(args[0], args[1], out=out)

        return _Op(
            run, (_call("diag_matmul", (k, n), node.op),),
            run_out if plain else None,
        )
    if hint == "tridiagonal_matmul":
        def run(args, report, record):
            return special.tridiagonal_matmul(*eff(args))

        def run_out(args, out, scratch):
            return special.tridiagonal_matmul(
                args[0], args[1], out=out, scratch=scratch
            )

        return _Op(
            run, (_call("tridiagonal_matmul", (k, n), node.op),),
            run_out if plain else None,
            needs_scratch=plain,
            out_order="C" if plain else "F",
            arg_orders=("C", "C") if plain else None,
        )
    if hint == "trmm":
        lower = opts.get("lower", True)

        def run(args, report, record):
            a_eff, b_eff = eff(args)
            return blas3.trmm(a_eff, b_eff, lower=lower)

        def run_out(args, out):
            return blas3.trmm(args[0], args[1], lower=lower, out=out)

        return _Op(
            run, (_call("trmm", (m, n), node.op),),
            run_out if plain else None,
        )
    if hint == "trmm_right":
        lower = opts.get("lower", True)

        def run(args, report, record):
            a_eff, b_eff = eff(args)
            return blas3.trmm(b_eff, a_eff, side_left=False, lower=lower)

        def run_out(args, out):
            return blas3.trmm(
                args[1], args[0], side_left=False, lower=lower, out=out
            )

        return _Op(
            run, (_call("trmm", (n, m), node.op),),
            run_out if plain else None,
        )
    if hint == "symm":
        def run(args, report, record):
            return blas3.symm(*eff(args))

        def run_out(args, out):
            return blas3.symm(args[0], args[1], out=out)

        return _Op(
            run, (_call("symm", (m, n), node.op),),
            run_out if plain else None,
        )
    if hint == "syrk":
        if trans_b == trans_a:
            raise KernelError("syrk hint requires exactly one transpose flag")
        trans = trans_a

        def run(args, report, record):
            return blas3.syrk(args[0], trans=trans)

        def run_out(args, out):
            return blas3.syrk(args[0], trans=trans, out=out)

        return _Op(run, (_call("syrk", (m, k), node.op),), run_out)
    raise KernelError(f"unknown matmul kernel hint {hint!r}")


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
    graph: Graph, *, fold_constants: bool = False, fusion: bool = False
) -> Plan:
    """Compile ``graph`` into an executable :class:`Plan`.

    ``fusion=True`` runs the post-schedule fusion stage (see
    :mod:`repro.runtime.fusion`): elementwise chains collapse into single
    fused instructions and trailing scales fold into GEMM's alpha.
    """
    start = time.perf_counter()
    signature = graph_signature(graph)
    if fold_constants:
        from ..passes.constant_folding import ConstantFolding

        graph = ConstantFolding().run(graph)

    order = graph.topological()
    last_use: dict[int, int] = {}
    for idx, node in enumerate(order):
        for inp in node.inputs:
            last_use[id(inp)] = idx
    for out in graph.outputs:
        last_use[id(out)] = len(order)  # outputs stay live

    # Slot assignment: inputs first (positional feed order), then one slot
    # per executed node.  Recycling is shape-aware — a dead temporary's
    # slot is only reused for a value of the same shape, so every slot has
    # exactly one static shape and an arena can back it with one buffer.
    slot_of: dict[int, int] = {}
    inputs: list[PlanInput] = []
    for i, node in enumerate(graph.inputs):
        slot_of[id(node)] = i
        inputs.append(PlanInput(node.name, node.shape, i))
    num_slots = len(inputs)
    free_pool: dict[tuple, list[int]] = {}
    # Workspace slots for destination-aware kernels that need one
    # (tridiagonal row scalings).  Shared per (shape, order): a scratch
    # is only live *within* one instruction, so every same-shaped site
    # can reuse one buffer.  Never fed from (or released into) the value
    # pool — a pooled slot could alias a live operand.
    scratch_pool: dict[tuple, int] = {}
    # Per-slot layout votes (see _Op.out_order/arg_orders).  A slot's
    # arena buffer is C-ordered only when the preference is unanimous:
    # every writer votes "C" (value slots), or every consumer votes "C"
    # (input slots, which have no writer) — any "F" vote wins, because a
    # mixed-layout operand pair costs more (ufunc buffering, hidden f2py
    # copies) than a C-preferring kernel reading an F buffer.
    writer_votes: dict[int, set] = {}
    consumer_votes: dict[int, set] = {}
    scratch_orders: dict[int, str] = {}

    instructions: list[Instruction] = []
    for idx, node in enumerate(order):
        if node.op == "input":
            if id(node) not in slot_of:
                raise GraphError(f"reachable input {node.name!r} not declared")
            continue
        if node.op == "loop":
            op = _compile_loop(node, fusion)
        else:
            compiler = _COMPILERS.get(node.op)
            if compiler is None:
                raise GraphError(f"runtime has no compiler for op {node.op!r}")
            op = compiler(node)
        pool = free_pool.get(node.shape)
        if pool:
            out_slot = pool.pop()
        else:
            out_slot = num_slots
            num_slots += 1
        slot_of[id(node)] = out_slot
        frees: list[int] = []
        seen: set[int] = set()
        for inp in node.inputs:
            if id(inp) in seen:
                continue
            seen.add(id(inp))
            if last_use.get(id(inp)) == idx and inp.op not in ("input", "const"):
                frees.append(slot_of[id(inp)])
                free_pool.setdefault(inp.shape, []).append(slot_of[id(inp)])
        scratch = None
        if op.needs_scratch:
            scratch_key = (node.shape, op.out_order)
            scratch = scratch_pool.get(scratch_key)
            if scratch is None:
                scratch = scratch_pool[scratch_key] = num_slots
                scratch_orders[scratch] = op.out_order
                num_slots += 1
        writer_votes.setdefault(out_slot, set()).add(op.out_order)
        arg_orders = op.arg_orders or (("F",) * len(node.inputs))
        for inp, pref in zip(node.inputs, arg_orders):
            if pref is not None:
                consumer_votes.setdefault(slot_of[id(inp)], set()).add(pref)
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
                kind=op.kind,
                params=op.params,
                scratch=scratch,
                fn_loop=op.fn_loop,
                sub_plan=op.sub_plan,
            )
        )

    fusion_stats = None
    if fusion:
        from .fusion import fuse_instructions

        instructions, fusion_stats = fuse_instructions(tuple(instructions), inputs)
        instructions = list(instructions)

    slot_orders = ["F"] * num_slots
    for slot, votes in writer_votes.items():
        if votes == {"C"}:
            slot_orders[slot] = "C"
    for slot in range(len(inputs)):  # input slots: consumer-decided
        if consumer_votes.get(slot) == {"C"}:
            slot_orders[slot] = "C"
    for slot, order in scratch_orders.items():
        slot_orders[slot] = order

    return Plan(
        instructions=tuple(instructions),
        inputs=tuple(inputs),
        output_slots=tuple(slot_of[id(o)] for o in graph.outputs),
        num_slots=num_slots,
        signature=signature,
        compile_seconds=time.perf_counter() - start,
        fusion_stats=fusion_stats,
        slot_orders=tuple(slot_orders),
        source=(graph, fold_constants, fusion),
    )
