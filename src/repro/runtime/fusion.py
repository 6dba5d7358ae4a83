"""Post-schedule kernel fusion: rewrite a plan's instruction stream.

The compiler sees the whole schedule, so it can do what per-node eager
dispatch never can: collapse launch-bound sequences into single fused
instructions.  Two rewrites, both applied to the *finished* instruction
list (slots, liveness and kernel selection already resolved):

1. **GEMM alpha folding** — a ``scale`` (or ``neg``) whose sole operand
   is the immediately preceding dense GEMM's result, and which is that
   result's only consumer, folds into the GEMM's ``alpha`` argument: the
   BLAS call computes ``alpha * op(A) op(B)`` for free.  At most **one**
   factor folds per GEMM: BLAS applies ``alpha`` once after the dot-
   product accumulation, exactly like one elementwise post-scale, so a
   single fold is bit-identical — but combining two trailing scales into
   one premultiplied ``alpha`` would replace two rounded multiplies with
   one and drift a ULP.  Further trailing scales stay elementwise (and
   may still fuse with each other via rewrite 2).
1b. **GEMM beta folding** — an ``add``/``sub`` combining the immediately
   preceding unfolded GEMM's result (its only consumer) with an addend
   whose value liveness proves **dead** at that very instruction folds
   into the GEMM's C-accumulate: ``C := alpha·op(A)op(B) + beta·C`` with
   the addend as ``C`` and ``alpha, beta ∈ {±1}``.  The restriction to
   ±1 (no stacking on an alpha fold) is what keeps it bit-identical:
   sign flips are exact — even under FMA contraction — so BLAS's
   accumulate produces the same bits as the separate ufunc, while a
   general ``alpha`` FMA'd against ``C`` could contract two roundings
   into one.  The dead-addend requirement guarantees no later
   instruction reads the addend value again (the fused site consumes it
   as the accumulate seed) and excludes inputs/constants by
   construction; the executors still never write *through* the addend
   object itself, since slot liveness cannot prove the object isn't an
   alias of a caller-owned feed.
2. **Elementwise chain fusion** — a maximal run of adjacent
   add/sub/neg/scale instructions, each the single consumer of its
   predecessor's value, collapses into one fused closure: the first step
   materializes one array (or writes straight into the arena slot), every
   later step runs in place on it.  Intermediates are never materialized.

Parity contract: outputs are bit-identical to the unfused plan and the
Interpreter — elementwise in-place ufuncs compute the same values, and
BLAS applies ``alpha`` after the dot-product accumulation, exactly like
a separate scale pass over the result.  Reports are not this module's
concern: the plan derives them from the schedule as it was before this
pass ran (:mod:`repro.runtime.plan`).  A fused site carries one combined
:class:`~repro.ir.interpreter.KernelCall` — ``kernel``
``"fused(<member>+<member>+...)"``, ``flops`` the members' sum, ``dims``
the site's result shape, ``node_op`` ``"fused"`` — which
:attr:`~repro.runtime.plan.Plan.flops` and ``describe()`` read, and
which marks a GEMM as already folded.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..ir.interpreter import KernelCall
from .plan import Instruction


@dataclasses.dataclass(frozen=True)
class FusionStats:
    """What the fusion stage did to one plan."""

    ew_chains: int
    ew_ops_fused: int
    gemm_folds: int
    instructions_before: int
    instructions_after: int
    #: ``add``/``sub`` instructions folded into a GEMM's C-accumulate.
    gemm_beta_folds: int = 0
    #: Instructions the fold-aware scheduler hoisted above a GEMM to
    #: make a non-adjacent gemm→add/sub pair adjacent (each hoisted
    #: group enables one beta fold that adjacency alone would miss).
    fold_sinks: int = 0

    @property
    def sites(self) -> int:
        """Fused sites in the plan (chains + alpha folds + beta folds)."""
        return self.ew_chains + self.gemm_folds + self.gemm_beta_folds

    def describe(self) -> str:
        sinks = f" ({self.fold_sinks} scheduled)" if self.fold_sinks else ""
        return (
            f"fusion: {self.ew_chains} ew chains ({self.ew_ops_fused} ops), "
            f"{self.gemm_folds} gemm alpha-folds, "
            f"{self.gemm_beta_folds} beta-folds{sinks}"
        )


def _combined_call(
    members: str, dims: tuple[int, ...], flops: int
) -> KernelCall:
    return KernelCall(f"fused({members})", dims, flops, "fused")


def _folded(gemm: Instruction) -> bool:
    """Whether ``gemm`` is already a fold site: one fold per GEMM."""
    return gemm.calls[0].node_op == "fused"


# -- GEMM alpha folding -------------------------------------------------------


def _fold_gemm(gemm: Instruction, ew: Instruction) -> Instruction:
    """Merge an (unfused) ``gemm`` and the trailing ``scale``/``neg``
    ``ew`` into one GEMM instruction with the factor folded into alpha."""
    from .compiler import make_gemm_fns  # deferred: compiler imports this module

    trans_a, trans_b, alpha = gemm.params
    factor = ew.params[1] if ew.params[0] == "scale" else -1.0
    new_alpha = alpha * factor
    fn, fn_out = make_gemm_fns(trans_a, trans_b, new_alpha)
    scratch = None
    if ew.out_slot in gemm.arg_slots:
        # The ew result reuses an operand's slot, and BLAS forbids C
        # aliasing A/B.  The GEMM's own (now dead) intermediate slot is
        # disjoint from every operand by construction — stage the product
        # there and copy it home.  Still allocation-free under an arena.
        scratch = gemm.out_slot
        fn_out = _staged(fn_out)

    flops = gemm.calls[0].flops + ew.calls[0].flops
    members = f"{gemm.calls[0].kernel}+{ew.calls[0].kernel}"
    return Instruction(
        out_slot=ew.out_slot,
        arg_slots=gemm.arg_slots,
        fn=fn,
        calls=(_combined_call(members, ew.out_shape, flops),),
        # The merged site frees what the GEMM freed — except when the ew
        # result recycled one of those very slots: clearing it after the
        # write would null the result (the overwrite *is* the recycling).
        free_slots=tuple(s for s in gemm.free_slots if s != ew.out_slot),
        op=gemm.op,
        label=ew.label,
        out_shape=ew.out_shape,
        fn_out=fn_out,
        kind="gemm",
        params=(trans_a, trans_b, new_alpha),
        scratch=scratch,
        views=gemm.views,
    )


def _staged(direct):
    """A GEMM ``fn_out`` that computes into its scratch slot (through
    the scratch's Fortran view) and copies the product home."""
    def fn_out(args, out, out_t, staging, staging_t):
        np.copyto(out, direct(args, staging, staging_t))
        return out

    return fn_out


def _beta_foldable(gemm: Instruction, ew: Instruction) -> bool:
    """Can ``ew`` (an add/sub) fold into ``gemm``'s C-accumulate?

    Requirements beyond adjacency:

    * the GEMM is unfolded with ``alpha == 1`` (±1-only bit-identity —
      see the module docstring) and not already a fused site;
    * the GEMM result feeds exactly one of the ew's two operands and
      dies there (single consumer);
    * the *addend* also dies at the ew (liveness-proved dead: the fused
      site consumes it as the accumulate seed and nothing reads it
      afterwards; inputs/constants — never freed — are excluded by
      construction);
    * the addend is not one of the GEMM's own operands (BLAS forbids
      ``C`` aliasing ``A``/``B``) and not the GEMM result itself
      (``G + G`` is a scale, not an accumulate).
    """
    if gemm.kind != "gemm" or _folded(gemm):
        return False
    if ew.kind != "ew" or ew.params[0] not in ("add", "sub"):
        return False
    if gemm.params[2] != 1.0:
        return False
    g = gemm.out_slot
    if len(ew.arg_slots) != 2 or ew.arg_slots.count(g) != 1:
        return False
    if g not in ew.free_slots:
        return False
    addend = ew.arg_slots[1] if ew.arg_slots[0] == g else ew.arg_slots[0]
    return addend in ew.free_slots and addend not in gemm.arg_slots


def _fold_gemm_beta(gemm: Instruction, ew: Instruction) -> Instruction:
    """Merge an (unfolded) ``gemm`` and the trailing ``add``/``sub``
    ``ew`` into one GEMM instruction accumulating into the dead addend."""
    from .compiler import make_gemm_beta_fns  # deferred: compiler imports this module

    trans_a, trans_b, _ = gemm.params
    op = ew.params[0]
    g_first = ew.arg_slots[0] == gemm.out_slot
    addend = ew.arg_slots[1] if g_first else ew.arg_slots[0]
    if op == "add":
        alpha, beta = 1.0, 1.0
    elif g_first:  # G - C
        alpha, beta = 1.0, -1.0
    else:  # C - G
        alpha, beta = -1.0, 1.0
    fn, fn_out = make_gemm_beta_fns(trans_a, trans_b, alpha, beta, g_first, op)
    scratch = None
    if ew.out_slot in gemm.arg_slots:
        # The ew result reuses a GEMM operand's slot; accumulating there
        # would alias C with A/B.  Stage in the GEMM's own (now dead)
        # intermediate slot — disjoint from every operand — and copy the
        # result home.  Still allocation-free under an arena.
        scratch = gemm.out_slot
        fn_out = _staged(fn_out)

    flops = gemm.calls[0].flops + ew.calls[0].flops
    members = f"{gemm.calls[0].kernel}+{ew.calls[0].kernel}"
    return Instruction(
        out_slot=ew.out_slot,
        arg_slots=gemm.arg_slots + (addend,),
        fn=fn,
        calls=(_combined_call(members, ew.out_shape, flops),),
        # The merged site frees what both members freed — except the GEMM
        # result (never materialized) and any slot the ew result recycled
        # (clearing it after the write would null the result).
        free_slots=tuple(
            s for s in gemm.free_slots + ew.free_slots
            if s != gemm.out_slot and s != ew.out_slot
        ),
        op=gemm.op,
        label=ew.label,
        out_shape=ew.out_shape,
        fn_out=fn_out,
        kind="gemm",
        params=(trans_a, trans_b, alpha, beta),
        scratch=scratch,
        views=gemm.views,
    )


# -- elementwise chain fusion -------------------------------------------------

#: Selector code meaning "the previous step's value".
_PREV = -1


def _first_step(op: str, sel: tuple[int, ...], alpha: float):
    """Step 0 executors: ``(args) -> fresh ndarray`` and
    ``(args, out) -> out``."""
    if op == "add":
        i, j = sel
        return (lambda args: args[i] + args[j],
                lambda args, out: np.add(args[i], args[j], out=out))
    if op == "sub":
        i, j = sel
        return (lambda args: args[i] - args[j],
                lambda args, out: np.subtract(args[i], args[j], out=out))
    if op == "neg":
        (i,) = sel
        return (lambda args: -args[i],
                lambda args, out: np.negative(args[i], out=out))
    (i,) = sel  # scale
    return (
        lambda args: args[i] * args[i].dtype.type(alpha),
        lambda args, out: np.multiply(args[i], args[i].dtype.type(alpha), out=out),
    )


def _chain_step(op: str, sel: tuple[int, ...], alpha: float):
    """Step t>0 executors: ``(val, args) -> val`` computing in place on the
    running value (bit-identical to the out-of-place op: same ufunc,
    same-shape elementwise, so aliasing the destination is safe)."""
    if op == "neg":
        return lambda val, args: np.negative(val, out=val)
    if op == "scale":
        return lambda val, args: np.multiply(val, val.dtype.type(alpha), out=val)
    ufunc = np.add if op == "add" else np.subtract
    i, j = sel
    if i == _PREV and j == _PREV:
        return lambda val, args: ufunc(val, val, out=val)
    if i == _PREV:
        return lambda val, args: ufunc(val, args[j], out=val)
    return lambda val, args: ufunc(args[i], val, out=val)


def _fuse_chain(group: list[Instruction]) -> Instruction:
    """Collapse a linear elementwise chain into one fused instruction."""
    intermediates = {g.out_slot for g in group[:-1]}
    ext_slots: list[int] = []
    ext_index: dict[int, int] = {}
    steps: list[tuple[str, tuple[int, ...], float]] = []
    for t, g in enumerate(group):
        prev_slot = group[t - 1].out_slot if t > 0 else None
        sel = []
        for s in g.arg_slots:
            if t > 0 and s == prev_slot:
                sel.append(_PREV)
            else:
                if s not in ext_index:
                    ext_index[s] = len(ext_slots)
                    ext_slots.append(s)
                sel.append(ext_index[s])
        op, *rest = g.params
        steps.append((op, tuple(sel), rest[0] if rest else 0.0))

    first, first_out = _first_step(*steps[0])
    rest_steps = tuple(_chain_step(*st) for st in steps[1:])

    def run(args):
        val = first(args)
        for step in rest_steps:
            val = step(val, args)
        return val

    out_slot = group[-1].out_slot
    # Destination aliasing: out_slot may recycle an external operand's
    # slot.  Writing into it at step 0 is still safe if that operand is
    # only *read at step 0* (same-shape elementwise ufuncs tolerate
    # out-aliasing an input); it clobbers a value still needed if the
    # operand is read at any later step.
    read_after_step0 = {
        ext_slots[code]
        for _, sel, _ in steps[1:]
        for code in sel
        if code != _PREV
    }
    scratch = None
    if out_slot in read_after_step0:
        # Stage the chain in the first member's (dead, provably
        # alias-free) intermediate slot, then copy home — the arena path
        # stays allocation-free.
        scratch = group[0].out_slot

        def run_out(args, out, staging):
            first_out(args, staging)
            for step in rest_steps:
                step(staging, args)
            np.copyto(out, staging)
            return out
    else:
        def run_out(args, out):
            first_out(args, out)
            for step in rest_steps:
                step(out, args)
            return out

    members = "+".join(g.calls[0].kernel for g in group)
    flops = sum(g.calls[0].flops for g in group)
    # External slots the chain kills — minus the chain's own intermediates
    # (never materialized) and minus the destination slot (a freed operand
    # slot the last member recycled: clearing it post-write would null the
    # result; the overwrite is the recycling).
    free_slots = tuple(
        s
        for g in group
        for s in g.free_slots
        if s not in intermediates and s != out_slot
    )
    return Instruction(
        out_slot=out_slot,
        arg_slots=tuple(ext_slots),
        fn=run,
        calls=(_combined_call(members, group[-1].out_shape, flops),),
        free_slots=free_slots,
        op="fused",
        label=group[-1].label,
        out_shape=group[-1].out_shape,
        fn_out=run_out,
        scratch=scratch,
    )


# -- fold-aware scheduling ----------------------------------------------------


def _hoist_legal(x: Instruction, y: Instruction) -> bool:
    """Can ``x`` (scheduled after ``y``) move above ``y`` without changing
    any value or nulling any live slot?

    Slot-table reasoning (``free_slots ⊆ arg_slots`` by construction —
    an instruction only frees its own dying operands):

    * ``x`` must not read anything ``y`` writes (``y``'s result or
      scratch), else the hoist reads a stale value;
    * ``x`` must not write (result or scratch) any slot ``y`` reads or
      writes — that covers clobbering ``y``'s operands, racing its
      destination, and the recycling hazard where ``y`` frees (clears)
      a slot ``x``'s hoisted result now occupies;
    * ``x`` must not free (clear) a slot ``y`` still reads.
    """
    y_writes = {y.out_slot} | ({y.scratch} if y.scratch is not None else set())
    if y_writes & set(x.arg_slots):
        return False
    x_writes = {x.out_slot} | ({x.scratch} if x.scratch is not None else set())
    if x_writes & (set(y.arg_slots) | y_writes):
        return False
    return not set(x.free_slots) & set(y.arg_slots)


def _sink_for_beta_folds(
    insts: list[Instruction],
) -> tuple[list[Instruction], int]:
    """Reorder so beta-foldable gemm→add/sub pairs become *adjacent*.

    The beta fold (pass 1b) only fires when the combining ``add``/``sub``
    immediately follows its GEMM, but schedules routinely interleave the
    dead addend's producer (or other independent work) between the two.
    For each GEMM whose result's single consumer is a beta-foldable
    ``ew`` further down, this pass hoists every intervening instruction
    above the GEMM — legality checked per instruction against the GEMM
    alone, since the interveners keep their relative order — which sinks
    the GEMM to just above its consumer.  Values are untouched (only
    independent work moves), and so is the report, which the plan
    derives from the schedule as it was before this pass.
    """
    sinks = 0
    i = 0
    while i < len(insts):
        gemm = insts[i]
        if gemm.kind != "gemm" or _folded(gemm) or gemm.params[2] != 1.0:
            i += 1
            continue
        # First consumer of the GEMM result decides everything: it must
        # be a beta-foldable ew, and every instruction before it must be
        # independent of the GEMM.
        g = gemm.out_slot
        j = i + 1
        while j < len(insts) and g not in insts[j].arg_slots:
            j += 1
        if j >= len(insts) or j == i + 1:
            i += 1
            continue  # no consumer, or already adjacent
        ew = insts[j]
        if not _beta_foldable(gemm, ew):
            i += 1
            continue
        between = insts[i + 1:j]
        if all(_hoist_legal(x, gemm) for x in between):
            insts[i:j] = between + [gemm]
            sinks += 1
            i = j - 1  # the GEMM's new position; pass 1 folds it next
            continue
        i += 1
    return insts, sinks


# -- the pass -----------------------------------------------------------------


def fuse_instructions(
    instructions: tuple[Instruction, ...],
) -> tuple[tuple[Instruction, ...], FusionStats]:
    """Run both fusion rewrites over ``instructions``; returns the fused
    stream and a :class:`FusionStats` summary."""
    before = len(instructions)
    # Pass 0 — fold-aware scheduling: sink each GEMM adjacent to its
    # beta-foldable consumer so pass 1b catches non-adjacent pairs too.
    insts, fold_sinks = _sink_for_beta_folds(list(instructions))

    # Pass 1 — GEMM alpha and beta folds.  One fold per GEMM, never a
    # cascade: a second factor premultiplied into alpha would merge two
    # rounded multiplies into one, and an alpha-scaled accumulate could
    # FMA-contract against C — either breaks bit-identity with the
    # interpreter (the ``_folded`` guard stops re-folding).
    gemm_folds = 0
    gemm_beta_folds = 0
    idx = 0
    while idx < len(insts):
        inst = insts[idx]
        nxt = insts[idx + 1] if idx + 1 < len(insts) else None
        if (
            inst.kind == "gemm"
            and not _folded(inst)
            and nxt is not None
            and nxt.kind == "ew"
            and nxt.params[0] in ("scale", "neg")
            and nxt.arg_slots == (inst.out_slot,)
            and inst.out_slot in nxt.free_slots
        ):
            insts[idx:idx + 2] = [_fold_gemm(inst, nxt)]
            gemm_folds += 1
            continue  # re-examine: the guard stops a second fold
        if nxt is not None and _beta_foldable(inst, nxt):
            insts[idx:idx + 2] = [_fold_gemm_beta(inst, nxt)]
            gemm_beta_folds += 1
            continue  # re-examine: the guard stops a second fold
        idx += 1

    # Pass 2 — elementwise chains.
    fused: list[Instruction] = []
    ew_chains = 0
    ew_ops_fused = 0
    i = 0
    while i < len(insts):
        inst = insts[i]
        if inst.kind != "ew":
            fused.append(inst)
            i += 1
            continue
        group = [inst]
        j = i + 1
        while j < len(insts):
            nxt = insts[j]
            prev = group[-1]
            if (
                nxt.kind == "ew"
                and prev.out_slot in nxt.arg_slots
                and prev.out_slot in nxt.free_slots
            ):
                group.append(nxt)
                j += 1
            else:
                break
        if len(group) == 1:
            fused.append(inst)
            i += 1
            continue
        fused.append(_fuse_chain(group))
        ew_chains += 1
        ew_ops_fused += len(group)
        i = j

    stats = FusionStats(
        ew_chains=ew_chains,
        ew_ops_fused=ew_ops_fused,
        gemm_folds=gemm_folds,
        instructions_before=before,
        instructions_after=len(fused),
        gemm_beta_folds=gemm_beta_folds,
        fold_sinks=fold_sinks,
    )
    return tuple(fused), stats
