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
* **Layout plan** — every ``_compile_*`` declares what its kernel needs
  of each operand's memory order ("F" where BLAS reads it as a matrix,
  abstain, or "same as my peers" for elementwise kernels) and what order
  it writes; one worklist propagation (:func:`_plan_layouts`) turns
  that into an order per value and per input slot, and a ``relayout``
  instruction — one C→F copy — where a C-computed value meets an
  F-demanding consumer.  No BLAS call, flag or operand value changes:
  the plan only decides where the copies f2py would otherwise make
  happen, and that each happens once.
* **Buffer table** — liveness analysis assigns every value a slot; slots
  of dead temporaries are recycled *shape- and order-aware* (a slot only
  ever holds values of one shape and memory order — what lets an arena
  back each slot with a single preallocated buffer; inputs, constants
  and graph outputs stay live for the whole run, matching the
  interpreter's memory model).
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
    #: Memory order the kernel writes its result (and scratch) in: "F"
    #: (BLAS's layout), "C" (the tridiagonal row-scaling kernel — its
    #: offset row slices degenerate into strided inner loops against an
    #: F destination, measured ~2x slower than allocating), or
    #: :data:`_PEERS` (an elementwise kernel: whatever order the operands
    #: marked :data:`_PEERS` share).
    out_order: str = "F"
    #: Per-operand layout demand, the layout plan's input (see
    #: :func:`_plan_layouts`): "F" only where a BLAS routine reads the
    #: operand *as a matrix* (f2py would otherwise copy it), ``None``
    #: abstains (slices, diagonal/band extraction, vectors, operands the
    #: kernel copies anyway), :data:`_PEERS` ties the operand to the
    #: result's order.  Empty means every operand abstains.
    arg_orders: tuple = ()


#: Layout marker of elementwise kernels: result and marked operands share
#: one order — C when every operand is C-laid, F as soon as one is.
_PEERS = "="
_EW_ORDERS = dict(out_order=_PEERS, arg_orders=(_PEERS, _PEERS))
#: Both operands of a two-matrix BLAS-3 call.
_BLAS_ORDERS = ("F", "F")


# -- per-op compilation -------------------------------------------------------
#
# Each _compile_* returns an _Op: the executor closure(s) and the static
# kernel-call records appended per execution.


def _compile_const(node: Node) -> _Op:
    value = node.attrs["value"]

    def run(args, report, record):
        return value

    # "C" until a consumer demands F: a constant is staged once, directly
    # in the order it is read in.
    return _Op(run, (), kind="const", out_order="C")


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
        **_EW_ORDERS,
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
        **_EW_ORDERS,
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
        **_EW_ORDERS,
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
        **_EW_ORDERS,
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
    )


def _compile_loop(node: Node, fusion: bool) -> _Op:
    body: Graph = node.attrs["body"]
    trip: int = node.attrs["trip_count"]
    # The body's feeds are outer-arena values handed over trip after
    # trip: it is compiled against F-laid feeds, and the loop demands F
    # of exactly the operands whose body slot cares (a slot no body
    # kernel reads as a matrix takes any layout), so the outer plan
    # converts once per call and every trip aliases.
    sub_plan = _compile(body, fusion=fusion, feed_order="F")
    arg_orders = tuple(
        None if sub_plan.slot_orders[spec.slot] == "A" else "F"
        for spec in sub_plan.inputs[1:]
    )

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
        # loop-invariant captures (outer-arena buffers, in the order the
        # body's slots declare) are aliased, never copied, into each
        # iteration's feeds; the binding rule copies odd layouts (e.g. a
        # promoted-dtype carried value from the general path).  After
        # both child arenas warm, a trip is allocation- and copy-free.
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

    return _Op(
        run, (), fn_loop=run_loop, sub_plan=sub_plan, arg_orders=arg_orders
    )


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
            arg_orders=("F", None),
        )
    if m == 1 and n > 1:
        run, run_out = _gemv_fns(1, 0, not trans_b)
        return _Op(
            run, (_call("gemv", (b_node.shape[0], b_node.shape[1]), node.op),),
            run_out,
            arg_orders=(None, "F"),
        )

    run, run_out = make_gemm_fns(trans_a, trans_b)
    return _Op(
        run,
        (_call("gemm", (m, k, n), node.op),),
        run_out,
        kind="gemm",
        params=(trans_a, trans_b, 1.0),
        arg_orders=_BLAS_ORDERS,
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

        # D is read through its diagonal; the row scaling itself is
        # elementwise over B, so the plain form computes in B's order.
        return _Op(
            run, (_call("diag_matmul", (k, n), node.op),),
            run_out if plain else None,
            **(dict(out_order=_PEERS, arg_orders=(None, _PEERS)) if plain else {}),
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
        )
    if hint == "trmm":
        lower = opts.get("lower", True)

        def run(args, report, record):
            a_eff, b_eff = eff(args)
            return blas3.trmm(a_eff, b_eff, lower=lower)

        def run_out(args, out):
            return blas3.trmm(args[0], args[1], lower=lower, out=out)

        # The out= form copies B into the destination before BLAS
        # overwrites it there: only the triangle is read as a matrix.
        return _Op(
            run, (_call("trmm", (m, n), node.op),),
            run_out if plain else None,
            arg_orders=("F", None) if plain else _BLAS_ORDERS,
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
            arg_orders=(None, "F") if plain else _BLAS_ORDERS,
        )
    if hint == "symm":
        def run(args, report, record):
            return blas3.symm(*eff(args))

        def run_out(args, out):
            return blas3.symm(args[0], args[1], out=out)

        return _Op(
            run, (_call("symm", (m, n), node.op),),
            run_out if plain else None,
            arg_orders=_BLAS_ORDERS,
        )
    if hint == "syrk":
        if trans_b == trans_a:
            raise KernelError("syrk hint requires exactly one transpose flag")
        trans = trans_a

        def run(args, report, record):
            return blas3.syrk(args[0], trans=trans)

        def run_out(args, out):
            return blas3.syrk(args[0], trans=trans, out=out)

        return _Op(
            run, (_call("syrk", (m, k), node.op),), run_out,
            arg_orders=_BLAS_ORDERS,
        )
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


# -- the layout plan ----------------------------------------------------------


def _relayout_instruction(
    node: Node, src_slot: int, out_slot: int
) -> Instruction:
    """The one C→F conversion of ``node``'s value, placed right behind
    its producer: every consumer then reads the F copy, the C original
    dies here.  It models nothing — the value merely changes layout — so
    it records no kernel call and no alloc/free (``fused_events=()``) and
    the report stays equal to the Interpreter's.  ``kind="relayout"``
    makes it opaque to the fusion pass (a chain cannot span it) and lets
    arena execution count its bytes (``Plan._exec_into``)."""

    def run(args, report, record):
        return np.asfortranarray(args[0])

    return Instruction(
        out_slot=out_slot,
        arg_slots=(src_slot,),
        fn=run,
        calls=(),
        free_slots=(src_slot,),
        op="relayout",
        label=node.name,
        out_shape=node.shape,
        kind="relayout",
        fused_events=(),
    )


def _plan_layouts(
    order: list[Node], ops: dict[int, _Op], feed_order: str
) -> tuple[dict[int, str], dict[int, str]]:
    """Decide every value's memory order from the kernels' demands.

    Returns ``(natural, effective)`` keyed by ``id(node)``: ``natural``
    is the order of the value's slot — what the producer writes and its
    arena buffer is allocated in; for an input, the order feeds are
    bound against, "A" when no consumer's layout depends on it — and
    ``effective`` the order consumers read.  They differ exactly where a
    relayout instruction converts a C-computed value for an F-demanding
    consumer.

    Everything starts in ``feed_order`` (inputs), the kernel's declared
    order, or C (elementwise results), and can only ever flip C→F:

    * an operand a BLAS routine reads as a matrix is demanded F;
    * an elementwise kernel computes in F as soon as one peer operand is
      F, and then demands F of its other peers — numpy's mixed-layout
      path is several times slower than either pure one;
    * an F demand on an *input* makes its slot F (the binding rule
      stages a C feed once, and an F feed aliases); on a constant it
      picks the order the payload is staged in; on a C-computed value it
      asks for the relayout.

    A value flips at most once and each flip visits its elementwise
    consumers once, so the worklist is O(nodes + edges).  Values with a
    unit dimension are contiguous in both orders and take no part.
    """
    natural: dict[int, str] = {}
    effective: dict[int, str] = {}
    cared: set[int] = set()
    peer_consumers: dict[int, list[Node]] = {}
    work: list[Node] = []
    hard: list[Node] = []
    for node in order:
        key = id(node)
        if node.op == "input":
            natural[key] = effective[key] = feed_order
            if feed_order == "F":
                work.append(node)
            continue
        op = ops[key]
        nat = op.out_order
        if nat == _PEERS:
            nat = "C"
        elif nat == "F" and 1 not in node.shape:
            work.append(node)
        natural[key] = effective[key] = nat
        for inp, pref in zip(node.inputs, op.arg_orders):
            if pref is None or 1 in inp.shape:
                continue
            cared.add(id(inp))
            if pref == "F":
                hard.append(inp)
            else:
                peer_consumers.setdefault(id(inp), []).append(node)
    for node in hard:
        if effective[id(node)] == "C":
            effective[id(node)] = "F"
            work.append(node)
    while work:
        value = work.pop()
        for consumer in peer_consumers.get(id(value), ()):
            key = id(consumer)
            if natural[key] == "F":
                continue
            natural[key] = "F"
            if effective[key] == "C":
                effective[key] = "F"
                work.append(consumer)
            op = ops[key]
            for inp, pref in zip(consumer.inputs, op.arg_orders):
                if pref == _PEERS and effective[id(inp)] == "C":
                    effective[id(inp)] = "F"
                    work.append(inp)
    for node in order:
        key = id(node)
        if node.op == "input":
            natural[key] = effective[key] if key in cared else "A"
        elif ops[key].kind == "const":
            # Staged once, straight into the order its consumers read.
            natural[key] = effective[key]
    return natural, effective


# -- the compiler proper ------------------------------------------------------


def compile_plan(
    graph: Graph,
    *,
    fold_constants: bool = False,
    fusion: bool = False,
    signature: tuple | None = None,
) -> Plan:
    """Compile ``graph`` into an executable :class:`Plan`.

    ``fusion=True`` runs the post-schedule fusion stage (see
    :mod:`repro.runtime.fusion`): elementwise chains collapse into single
    fused instructions and trailing scales fold into GEMM's alpha.
    ``signature`` is ``graph_signature(graph)`` when the caller already
    holds it (the plan cache keys on it); computed here otherwise.
    """
    return _compile(
        graph, fold_constants=fold_constants, fusion=fusion, signature=signature
    )


def _compile(
    graph: Graph,
    *,
    fold_constants: bool = False,
    fusion: bool = False,
    signature: tuple | None = None,
    feed_order: str = "C",
) -> Plan:
    """:func:`compile_plan` plus ``feed_order``: the layout feeds are
    assumed to arrive in — C, the order Tensors carry, for a top-level
    plan; F for a loop body, whose feeds are outer-arena values."""
    start = time.perf_counter()
    if signature is None:
        signature = graph_signature(graph)
    if fold_constants:
        from ..passes.constant_folding import ConstantFolding

        graph = ConstantFolding().run(graph)

    order = graph.topological()
    last_use: dict[int, int] = {}
    ops: dict[int, _Op] = {}
    for idx, node in enumerate(order):
        for inp in node.inputs:
            last_use[id(inp)] = idx
        if node.op == "input":
            continue
        if node.op == "loop":
            ops[id(node)] = _compile_loop(node, fusion)
        else:
            compiler = _COMPILERS.get(node.op)
            if compiler is None:
                raise GraphError(f"runtime has no compiler for op {node.op!r}")
            ops[id(node)] = compiler(node)
    for out in graph.outputs:
        last_use[id(out)] = len(order)  # outputs stay live
    natural, effective = _plan_layouts(order, ops, feed_order)

    # Slot assignment: inputs first (positional feed order), then one slot
    # per executed node.  Recycling is shape- and order-aware — a dead
    # temporary's slot is only reused for a value of the same shape laid
    # out the same way, so every slot has exactly one static shape and
    # order and an arena can back it with one buffer.
    slot_of: dict[int, int] = {}
    inputs: list[PlanInput] = []
    slot_orders: list[str] = []
    for i, node in enumerate(graph.inputs):
        slot_of[id(node)] = i
        inputs.append(PlanInput(node.name, node.shape, i))
        # "A" (also for a declared input nothing reaches): no kernel's
        # layout depends on it, the binding rule aliases any contiguous feed.
        slot_orders.append(natural.get(id(node), "A"))
    free_pool: dict[tuple, list[int]] = {}
    # Workspace slots for destination-aware kernels that need one
    # (tridiagonal row scalings).  Shared per (shape, order): a scratch
    # is only live *within* one instruction, so every same-shaped site
    # can reuse one buffer.  Never fed from (or released into) the value
    # pool — a pooled slot could alias a live operand.
    scratch_pool: dict[tuple, int] = {}

    def take_slot(shape: tuple, slot_order: str, pooled: bool = True) -> int:
        pool = free_pool.get((shape, slot_order)) if pooled else None
        if pool:
            return pool.pop()
        slot_orders.append(slot_order)
        return len(slot_orders) - 1

    def release_slot(shape: tuple, slot: int) -> None:
        free_pool.setdefault((shape, slot_orders[slot]), []).append(slot)

    instructions: list[Instruction] = []
    for idx, node in enumerate(order):
        key = id(node)
        if node.op == "input":
            if key not in slot_of:
                raise GraphError(f"reachable input {node.name!r} not declared")
            continue
        op = ops[key]
        slot_order = natural[key]
        # A constant is staged once, so never into a recycled slot: the
        # temporary that owned it would overwrite the payload every call.
        out_slot = take_slot(node.shape, slot_order, pooled=op.kind != "const")
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
            scratch_key = (node.shape, slot_order)
            scratch = scratch_pool.get(scratch_key)
            if scratch is None:
                scratch = scratch_pool[scratch_key] = take_slot(
                    node.shape, slot_order, pooled=False
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
                kind=op.kind,
                params=op.params,
                scratch=scratch,
                fn_loop=op.fn_loop,
                sub_plan=op.sub_plan,
            )
        )
        if effective[key] != slot_order:
            # A C-computed value some consumer demands in F: convert it
            # once, here, and let every consumer read the F copy.
            f_slot = take_slot(node.shape, "F")
            instructions.append(_relayout_instruction(node, out_slot, f_slot))
            release_slot(node.shape, out_slot)
            slot_of[key] = f_slot

    fusion_stats = None
    if fusion:
        from .fusion import fuse_instructions

        instructions, fusion_stats = fuse_instructions(tuple(instructions), inputs)
        instructions = list(instructions)

    return Plan(
        instructions=tuple(instructions),
        inputs=tuple(inputs),
        output_slots=tuple(slot_of[id(o)] for o in graph.outputs),
        num_slots=len(slot_orders),
        signature=signature,
        compile_seconds=time.perf_counter() - start,
        fusion_stats=fusion_stats,
        slot_orders=tuple(slot_orders),
        source=(graph, fold_constants, fusion),
    )
