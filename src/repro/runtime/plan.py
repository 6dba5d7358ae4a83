"""Executable plans: the compile-once / execute-many artifact.

A :class:`Plan` is a flat list of :class:`Instruction` records over a slot
table.  Everything the Interpreter derives per call — topological order,
liveness, kernel choice, FLOP model, result sizes — is frozen into the
instructions at compile time; executing the plan is a single sweep over
the list with no graph traversal, no ``getattr`` dispatch and no dict
rebuilds.

Parity contract
---------------
``Plan.execute`` produces bit-identical outputs to ``Interpreter.run`` on
the same graph and feeds — through an arena or without one — and an
:class:`~repro.ir.interpreter.ExecutionReport` equal to the Interpreter's
field for field (kernel-call list, FLOPs, peak/live bytes).  Every Session call runs through its ``Concrete``'s arena; the
arena-less ``Plan.execute(feeds)`` is the plan-level reference the
parity suites and the benchmark's ``runtime.plan.exec_percall_us``
probe call.

The report holds by construction: every quantity in it is fixed by the
input dtypes, so nothing that executes accounts.  The plan's instruction
stream *is* the Interpreter's schedule — its topological order and
free-at-last-use rule — and :meth:`Plan.report_for` walks it once per
input-dtype tuple: the kernel calls, then alloc the result, then free
the operands whose last consumer this was (inputs and constants stay
live); a loop replays its body once per trip.
:attr:`Plan.report` is the walk at the traced dtypes, done at build;
the arena changes none of it.

Arena-mode outputs alias the arena's buffers — the next execution
through the same arena overwrites them; keep what you need via
:meth:`PinnedBinding.hand_off` (the Session layer does this for you) or
copy it.

Feed binding: one rule
----------------------
Arena execution binds every feed the same way, wherever it comes from
(a Session call, a loop body's carried value, a shard worker's
shared-memory view): **alias the array when it is contiguous in its
slot's declared order, otherwise copy it into that slot's persistent
arena buffer**.  Input slots are never written by instructions (inputs
stay live for the whole run), so an aliased array is read, never
mutated; the caller must not mutate it during the call.
:attr:`PlanArena.bytes_copied` counts exactly the bytes staged: feeds,
constants (once), and results of kernels without an ``out=`` form
landing in their slot.

Slot layouts
------------
Every value is C-ordered, the order ``Tensor`` s carry, and so is every
arena buffer.  BLAS reads a C buffer in place through its Fortran view
``X.T`` (the kernel layer's row-major calls, :mod:`repro.kernels.blas3`),
so :attr:`Plan.slot_orders` has one order for computed values and two
for inputs:

* ``"C"`` — an input some kernel wants C-contiguous: a matrix BLAS
  reads, an elementwise operand.  A C feed aliases at zero bytes; a
  Fortran-ordered or strided one is copied once — the price of
  transposed feeds.
* ``"A"`` (input slots only) — no kernel's layout depends on the feed
  (slices, diagonal/band extraction, vectors, the operand TRMM copies
  into its destination anyway): any contiguous array aliases.

The Fortran views a BLAS closure reads (:attr:`Instruction.views`) are
kept with the buffers — :attr:`PlanArena.views`, built when a buffer is
allocated, installed or handed off, and for an input when its feed is
bound — so a serving pass builds no view per instruction.

Persistent bindings
-------------------
A :class:`PinnedBinding` is a *persistent* slot table over one arena:
:meth:`PinnedBinding.rebind` applies the binding rule in place (one walk
over the inputs: unwrap, shape, order, alias-or-copy, dtype) and
:meth:`PinnedBinding.execute` runs a serving pass with no slot-list
build.  The first pass through an arena — and the first after a dtype
change — is a *warming* loop that checks every instruction's buffer and
certifies the arena for the bound feeds' dtypes; every certified pass
after it runs the plan as **generated straight-line Python**
(:meth:`Plan._generate_serve`, text in :attr:`Plan.generated_source`):
one call line per instruction, slots as locals, closures pre-bound,
built once per plan on its first certified pass and shared by all its
bindings.  A Session keeps one binding per ``Concrete``, rebinds it on
every call and takes the results with :meth:`PinnedBinding.hand_off` —
the buffers the final kernels wrote become the caller's, in the layout
they were written in, and the slots get fresh ones; nothing is copied or
transposed on the way out.  :meth:`Plan.bind_pinned` is the strict
front door for callers that bind once and only rewrite the arrays'
*contents* afterwards (the shard workers' shared-memory input slots) —
there a feed the rule would have to copy is an error, because the copy
would never be refreshed.
"""

from __future__ import annotations

import dataclasses
import linecache
import math
import weakref
from collections.abc import Callable, Mapping, Sequence
from typing import NamedTuple

import numpy as np

from ..errors import GraphError
from ..ir.interpreter import ExecutionReport, KernelCall, _normalize_feed
from ..kernels.validation import SUPPORTED_DTYPES, as_ndarray

#: An op executor: ``fn(args) -> ndarray``.
ExecFn = Callable[[list], np.ndarray]

#: A destination-aware op executor: ``fn(args, out) -> ndarray``.  Writes
#: the result into the preallocated ``out`` buffer and returns it; ops
#: without an in-place kernel leave this ``None`` and the executor falls
#: back to compute-then-copy.
OutFn = Callable[[list, np.ndarray], np.ndarray]

#: A loop-body executor for arena mode: ``fn(args, out, state) ->
#: ndarray``.  Drives the nested sub-plan through the persistent
#: per-:class:`PlanArena` ``state`` (ping-pong child arenas + index
#: buffer) so iterative workloads stay allocation-free after warmup.
LoopFn = Callable[[list, np.ndarray, "LoopState"], np.ndarray]


#: One execution's feeds: positional, or keyed by input name/position.
FeedSet = Sequence[object] | Mapping[object, object]


@dataclasses.dataclass
class BatchResult:
    """Outputs and per-feed reports of one plan run over many feed sets
    (``Session.run_batch`` / ``ShardPool.run``)."""

    outputs: list[list[np.ndarray]]
    reports: list[ExecutionReport]

    def __len__(self) -> int:
        return len(self.outputs)

    @property
    def total_flops(self) -> int:
        return sum(r.total_flops for r in self.reports)

    def first_outputs(self) -> list[np.ndarray]:
        """Column of each feed set's first graph output."""
        return [outs[0] for outs in self.outputs]


class Instruction(NamedTuple):
    """One scheduled op with everything pre-resolved (an immutable record;
    the compiler builds one per executed node of every plan)."""

    #: Slot the result is written to.
    out_slot: int
    #: Slots of the operands, in positional order.
    arg_slots: tuple[int, ...]
    #: The compiled executor for this op (kernel already selected).
    fn: ExecFn
    #: The op's kernel-call records (dims and FLOPs are static, so they
    #: are built once and shared).
    calls: tuple[KernelCall, ...]
    #: Slots whose value dies here (last consumer): cleared from the slot
    #: table so the slot can be reused.
    free_slots: tuple[int, ...]
    #: Source node's op and name.  ``op == "const"`` marks a result that
    #: is an aliased compile-time payload; beyond that, both are for
    #: introspection and debugging only.
    op: str
    label: str
    #: Static result shape (slot shapes are static; this is what lets a
    #: :class:`PlanArena` preallocate real storage per slot).
    out_shape: tuple[int, ...] = ()
    #: Destination-aware executor (``None`` → compute-then-copy in arena
    #: mode).
    fn_out: OutFn | None = None
    #: Slot of a result-shaped workspace for the destination-aware
    #: kernels that need one (the tridiagonal row-scaling products):
    #: ``fn_out(args, out, scratch)``.
    scratch: int | None = None
    #: Arena-aware loop executor (``loop`` ops only); arena-less
    #: execution and cold arenas keep using ``fn``.
    fn_loop: LoopFn | None = None
    #: The compiled loop-body plan (``loop`` ops only) — what a
    #: :class:`LoopState` builds its child arenas from.
    sub_plan: "Plan | None" = None
    #: Iterations of a ``loop`` op's body.
    trip_count: int = 0
    #: Operand positions ``fn_out`` reads through their Fortran views
    #: (the matrices of a BLAS call, see *Slot layouts*).  Non-empty also
    #: hands it its destination's view: ``fn_out(args, out, out_t)``.
    views: tuple[int, ...] = ()


@dataclasses.dataclass(frozen=True)
class PlanInput:
    """Feed-binding metadata for one graph input."""

    name: str
    shape: tuple[int, int]
    slot: int


@dataclasses.dataclass(frozen=True)
class SlotDescriptor:
    """Layout of one externally-backable plan buffer.

    What an external allocator (a shard's shared-memory segment, a
    pinned Tensor) needs to build storage an arena can adopt verbatim:
    the slot index, its static shape, the memory order the kernels
    writing/reading it expect, and the byte size at a given dtype.
    """

    role: str  #: ``"input"`` or ``"output"``
    name: str  #: input name, or ``"output[i]"`` for outputs
    slot: int
    shape: tuple[int, ...]
    order: str  #: ``"C"`` — every slot's storage order
    dtype: np.dtype
    nbytes: int


def _in_order(arr: np.ndarray, order: str) -> bool:
    """Whether ``arr`` is contiguous in slot order ``order``: "C", or "A"
    (either order — an input slot no kernel's layout depends on)."""
    flags = arr.flags
    return flags.c_contiguous or (order == "A" and flags.f_contiguous)


def _viewed(args: list, positions: tuple[int, ...]) -> list:
    """``args`` with the operands at ``positions`` as their Fortran
    views — what the warming loop hands a BLAS closure."""
    return [a.T if i in positions else a for i, a in enumerate(args)]


#: Kernels that compute in float32/float64 only: the kernel layer casts
#: any other operand first (``kernels.validation.as_ndarray``).
_FLOAT_KERNELS = frozenset({
    "gemm", "gemv", "trmm", "symm", "syrk", "diag_matmul",
    "tridiagonal_matmul",
})
_FLOATS = frozenset(map(np.dtype, SUPPORTED_DTYPES))


def _result_dtype(inst: Instruction, dtypes: list) -> np.dtype:
    """The dtype of ``inst``'s result on operands of ``dtypes``: the
    constant's own, else numpy's promotion (of the cast operands, for a
    float-only kernel)."""
    if inst.op == "const":
        return inst.fn(dtypes).dtype
    if inst.calls[0].kernel in _FLOAT_KERNELS:
        dtypes = [d if d in _FLOATS else as_ndarray(np.empty(0, d), "").dtype
                  for d in dtypes]
    first = dtypes[0]
    if dtypes.count(first) == len(dtypes):
        return first
    return np.result_type(*dtypes)


class LoopState:
    """Persistent per-arena execution state of one ``loop`` instruction.

    Two child arenas, used ping-pong (iteration *i* executes through
    ``arenas[i & 1]``): the carried value coming out of one iteration
    lives in one arena's buffers and is therefore *aliased*, not copied,
    into the next iteration's feeds, because that iteration
    writes only the other arena's (disjoint) buffers.  After both child
    arenas warm up, the loop performs zero ndarray allocations and zero
    carried-value copies per trip.  ``idx`` is the persistent ``(1, 1)``
    iteration-counter buffer the sub-plan's first input aliases.
    """

    __slots__ = ("inst", "arenas", "_idx")

    def __init__(self, inst: Instruction, sub_plan: "Plan") -> None:
        # Pins the instruction: the owning dict is keyed by ``id(inst)``.
        self.inst = inst
        self.arenas = (sub_plan.new_arena(), sub_plan.new_arena())
        self._idx: np.ndarray | None = None

    def idx(self, dtype: np.dtype) -> np.ndarray:
        buf = self._idx
        if buf is None or buf.dtype != dtype:
            buf = self._idx = np.empty((1, 1), dtype=dtype)
        return buf


class PlanArena:
    """Preallocated per-slot ndarray storage for one executing context.

    Slot shapes are static (the compiler recycles a slot only for values
    of the same shape), so every slot needs at most one real buffer.
    Buffers are allocated lazily on first use — the first execution warms
    the arena (dtype is only known once feeds arrive) — and reused
    verbatim afterwards: repeated execution through a warm arena performs
    **zero** ndarray allocations for every op with a destination-aware
    kernel (elementwise, GEMM/GEMV/DOT, transpose, slice, concat, the
    zero/identity hints), and compute-then-copy for the rest.

    Every buffer — including the staged copies of feeds and constants —
    is C-ordered, and :attr:`views` keeps each one's Fortran view for
    the BLAS closures (see *Slot layouts* in the module docstring).  One
    order is what keeps every hot path on the no-copy/no-buffering fast
    path: f2py copies an operand whose view is not Fortran-contiguous,
    and numpy's ufunc machinery falls back to allocating iteration
    buffers the moment operand layouts mix (measured, not assumed: the
    allocation regression test pins this down).

    An arena belongs to one execution stream: two threads must not
    execute through the same arena concurrently (the Session layer
    guards each ``Concrete``'s arena with a lock; shard workers own one
    arena per process).
    """

    __slots__ = ("buffers", "views", "allocations", "bytes_copied", "loops",
                 "pinned", "_orders", "_turbo_sig", "_uncertified")

    def __init__(self, plan: "Plan") -> None:
        #: Per-slot storage; ``None`` until the slot's first write.
        self.buffers: list[np.ndarray | None] = [None] * plan.num_slots
        #: Per slot, the Fortran view ``.T`` of its buffer — or, for an
        #: input slot a BLAS call reads, of the bound feed — set with
        #: the buffer (or at binding), so no instruction builds one.
        self.views: list[np.ndarray | None] = [None] * plan.num_slots
        #: Slots backed by caller-owned storage (:meth:`install`): never
        #: silently reallocated — a shape/dtype mismatch raises instead,
        #: because external owners (shared-memory views, pinned Tensors)
        #: rely on *their* buffer staying the slot's storage.
        self.pinned: set[int] = set()
        # Per-slot memory order, shared with the owning plan.
        self._orders = plan.slot_orders
        #: Buffers allocated so far — stops growing once the arena is
        #: warm (asserted by the allocation-free regression test).
        self.allocations = 0
        #: Bytes memcpy'd into arena storage so far (feed staging, const
        #: staging, compute-then-copy landings).  Feeds the
        #: binding rule aliases and results handed off add nothing here,
        #: which is what the ``bytes_copied_per_call`` benchmark metric
        #: measures.
        self.bytes_copied = 0
        #: ``id(instruction)`` → :class:`LoopState` for the plan's loop
        #: instructions (the state pins the instruction, keeping the id
        #: stable).
        self.loops: dict[int, LoopState] = {}
        # Certification: the input-dtype tuple of the last completed
        # execution that needed no fallback — no mixed-dtype operands,
        # every value a BLAS call reads in its slot's buffer.  A later call
        # whose bound feeds match it skips every per-instruction
        # dtype/warmth check and runs the plan's generated pass (see
        # PinnedBinding.execute).
        self._turbo_sig: tuple | None = None
        self._uncertified = False

    def buffer(
        self, slot: int, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """The preallocated buffer for ``slot`` (allocating on first use
        or on a dtype change — shapes never change)."""
        buf = self.buffers[slot]
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            if slot in self.pinned:
                raise ValueError(
                    f"arena slot {slot} is pinned to external storage of "
                    f"shape {None if buf is None else buf.shape} "
                    f"{None if buf is None else buf.dtype}; execution "
                    f"needs {shape} {dtype} — unpin or rebuild the "
                    "backing buffer"
                )
            buf = np.empty(shape, dtype=dtype)
            self.buffers[slot] = buf
            self.views[slot] = buf.T
            self.allocations += 1
        return buf

    def install(self, slot: int, array: np.ndarray, *, pin: bool = True) -> None:
        """Back ``slot`` with caller-owned storage.

        The array must be contiguous in the slot's declared order
        (shape/dtype compatibility with the executing plan is the
        caller's contract; :meth:`Plan.pin_slot` is the checked front
        door).  ``pin=True`` marks the slot so a later shape/dtype
        mismatch raises instead of silently reallocating away from the
        external buffer.
        """
        order = self._orders[slot]
        if not _in_order(array, order):
            raise ValueError(
                f"arena slot {slot} expects storage contiguous in order "
                f"{order!r}; got strides {array.strides} for shape "
                f"{array.shape}"
            )
        self.buffers[slot] = array
        self.views[slot] = array.T
        if pin:
            self.pinned.add(slot)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        warm = sum(1 for b in self.buffers if b is not None)
        return f"<PlanArena {warm}/{len(self.buffers)} slots warm>"


class Plan:
    """A compiled graph: schedule + kernels + buffer table.

    Build via :func:`repro.runtime.compiler.compile_plan`, not directly.
    """

    __slots__ = (
        "instructions",
        "inputs",
        "output_slots",
        "num_slots",
        "signature",
        "compile_seconds",
        "slot_orders",
        "report",
        "_source",
        "_reports",
        "_slot_shapes",
        "_by_name",
        "_by_pos",
        "_serve",
        "_serve_source",
        "_written_slots",
        "_viewed_slots",
        "_viewed_inputs",
        # Weakly referenceable so per-plan accounting (Session._plan_stats)
        # can key on plans without pinning evicted ones in memory.
        "__weakref__",
    )

    def __init__(
        self,
        instructions: tuple[Instruction, ...],
        inputs: tuple[PlanInput, ...],
        output_slots: tuple[int, ...],
        num_slots: int,
        signature: tuple,
        compile_seconds: float = 0.0,
        slot_orders: tuple[str, ...] | None = None,
        source: tuple | None = None,
        input_dtypes: tuple | None = None,
    ) -> None:
        self.instructions = instructions
        self.inputs = inputs
        self.output_slots = output_slots
        self.num_slots = num_slots
        self.signature = signature
        self.compile_seconds = compile_seconds
        #: Per-slot memory order (*Slot layouts* in the module
        #: docstring): "C" — plus, for input slots only, "A": no
        #: kernel's layout depends on the feed, any contiguous array binds.
        self.slot_orders = slot_orders or ("C",) * num_slots
        # (graph, fold_constants) — what pickling reconstructs the plan
        # from (see __reduce__).  None for hand-built plans.
        self._source = source
        # The report derivations so far, by input dtypes (see report_for).
        self._reports: dict[tuple, tuple] = {}
        # Static per-slot shapes: inputs + instruction outputs + scratch
        # workspaces (scratch shares the out shape of its requester).
        shapes: dict[int, tuple[int, ...]] = {p.slot: p.shape for p in inputs}
        for inst in instructions:
            shapes.setdefault(inst.out_slot, inst.out_shape)
            if inst.scratch is not None:
                shapes.setdefault(inst.scratch, inst.out_shape)
        self._slot_shapes = shapes
        # Feed-binding lookups are static — build them once here instead
        # of rebuilding two dicts on every mapping-feed call.
        self._by_name = {p.name: p for p in inputs}
        self._by_pos = dict(enumerate(inputs))
        # Output slots an instruction (re)writes on every call — the ones
        # whose arena buffer can be handed to the caller outright (see
        # PinnedBinding.hand_off).  Passed-through feeds and constants
        # (staged once, never rewritten) are not among them.
        self._written_slots = frozenset(
            inst.out_slot for inst in instructions if inst.op != "const"
        ).intersection(output_slots)
        # Slots some BLAS closure reads through a Fortran view: a value
        # there must be its slot's buffer for a certified pass to read
        # the arena's view of it, and a feed there gets its view at bind.
        self._viewed_slots = frozenset(
            inst.arg_slots[i] for inst in instructions for i in inst.views
        )
        self._viewed_inputs = frozenset(
            p.slot for p in inputs
        ).intersection(self._viewed_slots)
        # The certified serving pass: one generated function, built on
        # the first certified pass (see _generate_serve), and its text.
        self._serve = None
        self._serve_source: str | None = None
        #: The :class:`ExecutionReport` of one execution at the traced
        #: input dtypes (``None`` for a hand-built plan) — a constant of
        #: the plan, what every Session call returns.
        self.report = (
            None if input_dtypes is None else self.report_for(input_dtypes)
        )

    def new_arena(self) -> PlanArena:
        """A fresh preallocated-buffer arena for this plan."""
        return PlanArena(self)

    @property
    def source(self) -> "tuple | None":
        """``(graph, fold_constants)`` this plan was compiled from — what
        pickling and the persistent plan store reconstruct; ``None`` for
        hand-built plans (which neither can ship)."""
        return self._source

    # -- pickling -------------------------------------------------------------

    def __reduce__(self):
        """Plans pickle *by reconstruction*: the instruction closures are
        unpicklable (and deliberately so — they capture f2py routines),
        but the source graph serializes structurally and recompiles into
        an equivalent plan.  This is what lets a shard worker receive a
        plan under the ``spawn`` start method and compile it once into
        its own arena."""
        if self._source is None:
            raise TypeError(
                "this Plan was built without a source graph and cannot be "
                "pickled; compile via compile_plan() to get a picklable plan"
            )
        from .serialize import graph_to_payload  # deferred: cycle-free

        graph, fold_constants = self._source
        return _rebuild_plan, (graph_to_payload(graph), fold_constants)

    # -- the report -----------------------------------------------------------

    def report_for(self, dtypes: Sequence[np.dtype]) -> ExecutionReport:
        """The report of one execution on feeds of ``dtypes`` (one per
        input), derived from the instruction stream (module docstring)
        and memoized: every call with these dtypes gets the same object,
        which callers must not mutate."""
        return self._account(tuple(dtypes))[0]

    def _account(self, dtypes: tuple) -> tuple[ExecutionReport, tuple]:
        """``(report, output dtypes)`` at input ``dtypes``: the
        Interpreter's accounting protocol, walked over the instructions."""
        known = self._reports.get(dtypes)
        if known is not None:
            return known
        calls: list[KernelCall] = []
        live = peak = 0
        dtype_of = {p.slot: d for p, d in zip(self.inputs, dtypes)}
        size_of: dict[int, int] = {}
        for inst in self.instructions:
            args = [dtype_of[s] for s in inst.arg_slots]
            if inst.sub_plan is None:
                calls.extend(inst.calls)
                dtype = _result_dtype(inst, args)
            else:
                # A body's outputs are never freed, so live bytes grow
                # trip by trip; each trip's output dtype feeds the next.
                dtype, *captured = args
                for _ in range(inst.trip_count):
                    body, outs = inst.sub_plan._account(
                        (dtype, dtype, *captured)
                    )
                    calls.extend(body.calls)
                    peak = max(peak, live + body.peak_bytes)
                    live += body.live_bytes
                    dtype = outs[0]
            size = math.prod(inst.out_shape) * dtype.itemsize
            live += size
            peak = max(peak, live)
            for s in inst.free_slots:
                live -= size_of[s]
            dtype_of[inst.out_slot] = dtype
            size_of[inst.out_slot] = size
        known = self._reports[dtypes] = (
            ExecutionReport(calls, peak, live),
            tuple(dtype_of[s] for s in self.output_slots),
        )
        return known

    # -- external buffer backing ----------------------------------------------

    def slot_shape(self, slot: int) -> tuple[int, ...]:
        """The static shape of ``slot``'s value."""
        return self._slot_shapes[slot]

    def buffer_descriptors(self, dtype: np.dtype) -> list[SlotDescriptor]:
        """Input and output slot layouts at ``dtype`` — what an external
        allocator (shared-memory segment, pinned Tensor pool) needs to
        build storage :meth:`pin_slot` can adopt.  Ordered inputs first
        (feed order), then outputs; an output that *is* an input appears
        once per role."""
        dtype = np.dtype(dtype)
        descs = [
            SlotDescriptor(
                role="input",
                name=spec.name,
                slot=spec.slot,
                shape=spec.shape,
                order="C",
                dtype=dtype,
                nbytes=int(np.prod(spec.shape)) * dtype.itemsize,
            )
            for spec in self.inputs
        ]
        for i, slot in enumerate(self.output_slots):
            shape = self._slot_shapes[slot]
            descs.append(
                SlotDescriptor(
                    role="output",
                    name=f"output[{i}]",
                    slot=slot,
                    shape=shape,
                    order="C",
                    dtype=dtype,
                    nbytes=int(np.prod(shape)) * dtype.itemsize,
                )
            )
        return descs

    def pin_slot(self, arena: PlanArena, slot: int, array: np.ndarray) -> None:
        """Back ``slot`` of ``arena`` with ``array`` for the arena's
        lifetime (checked: static shape and declared order must match).
        Instructions then write the slot's value straight into ``array``
        — the hook shard workers use to land outputs in shared memory."""
        expected = self._slot_shapes.get(slot)
        if expected is None or tuple(array.shape) != tuple(expected):
            raise ValueError(
                f"slot {slot} holds values of shape {expected}, got buffer "
                f"of shape {tuple(array.shape)}"
            )
        arena.install(slot, array)

    def bind_pinned(
        self, feeds: Sequence[np.ndarray], arena: PlanArena
    ) -> "PinnedBinding":
        """Bind ``feeds`` permanently into a persistent slot table (see
        *Persistent bindings* in the module docstring).  Validates
        length, shapes and per-slot layout once; the returned binding
        executes with no per-call binding work.  The caller keeps
        ownership of the arrays and may rewrite their *contents* between
        calls — which is why a feed the binding rule would have to copy
        raises here instead: the staged copy would go stale."""
        binding = PinnedBinding(self, arena)
        binding._sig = self._bind(feeds, binding.slots)
        for spec in self.inputs:
            order = self.slot_orders[spec.slot]
            if not _in_order(binding.slots[spec.slot], order):
                raise ValueError(
                    f"pinned feed for input {spec.name!r} is not contiguous "
                    f"in its slot's order {order!r} — allocate it as "
                    "buffer_descriptors() lays the slot out"
                )
        for slot in self._viewed_inputs:
            arena.views[slot] = binding.slots[slot].T
        return binding

    # -- feed binding ---------------------------------------------------------

    def _positional(self, feeds: Mapping[object, object]) -> list:
        """Mapping feeds (keyed by input name, position or node) in
        input order."""
        by_name = self._by_name
        by_slot: dict[int, object] = {}
        for key, value in feeds.items():
            if isinstance(key, str):
                spec = by_name.get(key)
            elif isinstance(key, int):
                spec = self._by_pos.get(key)
            else:
                # Node keys: match by input name (plans outlive the
                # node objects they were compiled from).
                spec = by_name.get(getattr(key, "name", None))
            if spec is None:
                raise GraphError(f"no plan input matches feed key {key!r}")
            by_slot[spec.slot] = value
        for spec in self.inputs:
            if spec.slot not in by_slot:
                raise GraphError(f"missing feed for input {spec.name!r}")
        return [by_slot[spec.slot] for spec in self.inputs]

    def _bind(
        self,
        feeds: Sequence[object] | Mapping[object, object],
        slots: list,
        arena: PlanArena | None = None,
    ) -> tuple:
        """Bind ``feeds`` at their input slots in one walk — unwrap,
        shape check and, through an ``arena``, the binding rule: an
        array in its slot's declared order stays aliased, any other is
        copied into the slot's persistent arena buffer (one memcpy that
        keeps every downstream ufunc on the single-layout no-buffering
        path and hands BLAS views it reads without f2py's hidden copies;
        values are unchanged, so outputs stay bit-identical), and an
        aliased feed a BLAS call reads gets its one Fortran view.
        Returns the bound arrays' dtypes, the signature a serving pass
        is certified for and the report is derived at."""
        inputs = self.inputs
        if not isinstance(feeds, (list, tuple)):
            feeds = self._positional(feeds) \
                if isinstance(feeds, Mapping) else list(feeds)
        if len(feeds) != len(inputs):
            raise GraphError(
                f"plan has {len(inputs)} inputs, got {len(feeds)} feeds"
            )
        orders = self.slot_orders
        viewed = self._viewed_inputs
        dtypes = []
        for spec, value in zip(inputs, feeds):
            arr = _normalize_feed(value)
            if arr.shape != spec.shape:
                raise GraphError(
                    f"feed for {spec.name!r} has shape {arr.shape}, "
                    f"input declares {spec.shape}"
                )
            slot = spec.slot
            if arena is not None:
                if not _in_order(arr, orders[slot]):
                    buf = arena.buffer(slot, arr.shape, arr.dtype)
                    np.copyto(buf, arr)
                    arena.bytes_copied += arr.nbytes
                    arr = buf
                if slot in viewed:
                    arena.views[slot] = arr.T
            slots[slot] = arr
            dtypes.append(arr.dtype)
        return tuple(dtypes)

    # -- execution ------------------------------------------------------------

    def _exec_into(
        self, inst: Instruction, args: list, arena: PlanArena
    ) -> np.ndarray:
        """Run one instruction with its result in the arena's slot buffer.

        This is the general path (constants, loops, ops without an
        in-place kernel, cold buffers); the executor loop inlines the
        common warm case — ``fn_out`` straight into the
        slot's existing buffer — to keep per-instruction overhead below
        what a fresh allocation would cost.
        """
        if inst.op == "const":
            # Constant payloads never change: stage them into arena
            # storage (the order their consumers read) once, when the
            # slot buffer is first created.
            value = inst.fn(args)
            buf = arena.buffers[inst.out_slot]
            if buf is None or buf.shape != value.shape or buf.dtype != value.dtype:
                buf = arena.buffer(inst.out_slot, value.shape, value.dtype)
                np.copyto(buf, value)
                arena.bytes_copied += value.nbytes
            return buf
        dtype = args[0].dtype if args else np.dtype(np.float64)
        if inst.fn_loop is not None:
            # Loops thread a persistent LoopState (ping-pong child arenas
            # + index buffer) so the body executes arena'd too.
            state = arena.loops.get(id(inst))
            if state is None:
                state = arena.loops[id(inst)] = LoopState(inst, inst.sub_plan)
            buf = arena.buffer(inst.out_slot, inst.out_shape, dtype)
            return inst.fn_loop(args, buf, state)
        mixed = any(a.dtype != dtype for a in args)
        if inst.fn_out is not None and not mixed:
            buf = arena.buffer(inst.out_slot, inst.out_shape, dtype)
            dests = [buf]
            if inst.views:
                args = _viewed(args, inst.views)
                dests.append(arena.views[inst.out_slot])
            if inst.scratch is not None:
                dests.append(arena.buffer(inst.scratch, inst.out_shape, dtype))
            return inst.fn_out(args, *dests)
        if mixed:
            # Ufunc promotion must win over in-place destinations; also
            # bars certification until a uniform-dtype pass completes.
            arena._uncertified = True
        # No in-place kernel, or mixed operand dtypes: compute as
        # arena-less execution does, then land the result in the slot's
        # stable storage when it fits.
        result = inst.fn(args)
        buf = arena.buffer(inst.out_slot, result.shape, result.dtype)
        np.copyto(buf, result)
        arena.bytes_copied += result.nbytes
        return buf

    def _generate_serve(self) -> Callable:
        """Emit, compile and cache the certified serving pass as
        straight-line Python: one call line per instruction with the
        slots as locals and each ``fn_out`` closure (or, for ``const``/
        ``loop``/no-``fn_out`` instructions, the :class:`Instruction`
        handed to :meth:`_exec_into`) pre-bound as a global — what
        :meth:`PinnedBinding.execute` runs once the arena is certified.
        Buffers and views are *not* bound: ``hand_off`` swaps them
        between calls, so each pass reads the ``bufs[k]`` / ``views[k]``
        it uses once, into locals, before its first call line (a
        certified pass allocates no buffer, so they hold for the whole
        pass; an operand in :attr:`Instruction.views` is read as its
        slot's view: certification guarantees its value is the
        buffer).  Built on the first certified pass rather than at compile
        time (``compile()`` costs ~17 µs per instruction, which a plan
        executed once never repays); two threads racing here build the
        same function twice and the last store wins."""
        def note(kind: str, name: str) -> str:
            # One line whatever the name holds: it ends a source line.
            return "  # " + " ".join(f"{kind} {name}".split())

        # Local name -> the table entry it is loaded from, in first use.
        loads: dict[str, str] = {}

        def load(table: str, slot: int) -> str:
            name = f"{table[0]}{slot}"
            loads.setdefault(name, f"{table}[{slot}]")
            return name

        def dest(slot: int, viewed: bool) -> str:
            buf = load("bufs", slot)
            return f"{buf}, {load('views', slot)}" if viewed else buf

        namespace: dict = {}
        body = []
        for i, inst in enumerate(self.instructions):
            out = inst.out_slot
            if inst.fn_out is not None:
                namespace[f"f{i}"] = inst.fn_out
                viewed = bool(inst.views)
                args = ", ".join(
                    load("views", s) if pos in inst.views else f"s{s}"
                    for pos, s in enumerate(inst.arg_slots)
                )
                scratch = "" if inst.scratch is None \
                    else ", " + load("bufs", inst.scratch)
                call = f"f{i}([{args}], {dest(out, viewed)}{scratch})"
            else:
                namespace[f"i{i}"] = inst
                args = ", ".join(f"s{s}" for s in inst.arg_slots)
                call = f"exec_into(i{i}, [{args}], arena)"
            body.append(f"    s{out} = {call}" + note(inst.op, inst.label))
        lines = ["def serve(slots, bufs, views, exec_into, arena):"]
        for spec in self.inputs:
            lines.append(f"    s{spec.slot} = slots[{spec.slot}]"
                         + note("input", spec.name))
        lines.extend(f"    {name} = {entry}" for name, entry in loads.items())
        lines.extend(body)
        # The slot table ends the pass as the instruction loops leave it.
        written = dict.fromkeys(inst.out_slot for inst in self.instructions)
        lines.extend(f"    slots[{s}] = s{s}" for s in written)
        outputs = ", ".join(f"s{s}" for s in self.output_slots)
        lines.append(f"    return [{outputs}]")
        source = "\n".join(lines) + "\n"
        # Registered with linecache so a kernel's traceback shows the
        # failing line (and through its comment the instruction); the
        # entry goes when the plan does.
        filename = f"<repro plan {id(self):#x}>"
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
        weakref.finalize(self, linecache.cache.pop, filename, None)
        exec(compile(source, filename, "exec"), namespace)
        self._serve_source = source
        self._serve = namespace["serve"]
        return self._serve

    @property
    def generated_source(self) -> str | None:
        """Text of the generated serving pass — the plan as it actually
        executes, one commented line per instruction; ``None`` until
        the first certified pass has built it."""
        return self._serve_source

    def execute(
        self,
        feeds: Sequence[object] | Mapping[object, object],
        *,
        record: bool = True,
        arena: PlanArena | None = None,
    ) -> tuple[list[np.ndarray], ExecutionReport]:
        """Run the plan; returns ``(outputs, report)`` like Interpreter.run
        — the report is :meth:`report_for` the bound feeds' dtypes
        (``record=False`` returns an empty one).

        ``arena`` runs the pass through a throwaway :class:`PinnedBinding`
        over those preallocated buffers (see :class:`PlanArena`), feeds
        bound by the alias-else-copy rule (module docstring); outputs
        then alias arena storage and are only valid until the next
        execution through the same arena.
        """
        if arena is not None:
            binding = PinnedBinding(self, arena)
            binding.rebind(feeds)
            outputs, sig = binding.execute(), binding._sig
        else:
            slots: list = [None] * self.num_slots
            sig = self._bind(feeds, slots)
            for inst in self.instructions:
                slots[inst.out_slot] = inst.fn([slots[s] for s in inst.arg_slots])
                for s in inst.free_slots:
                    slots[s] = None
            outputs = [slots[s] for s in self.output_slots]
        return outputs, self.report_for(sig) if record else ExecutionReport()

    def _run_arena(self, inst, args, arena, bufs):
        """Arena dispatch: warm in-place fast path, general path otherwise.

        The fast path requires every operand to share the warm buffer's
        dtype — a mismatch means either a dtype change (rewarm) or mixed
        operands (ufunc promotion must win over in-place writing); both
        take the general path.
        """
        fn_out = inst.fn_out
        if fn_out is not None and inst.scratch is None and not inst.views:
            buf = bufs[inst.out_slot]
            if buf is not None:
                bd = buf.dtype
                for a in args:
                    ad = a.dtype
                    if bd is not ad and bd != ad:
                        break
                else:
                    return fn_out(args, buf)
        return self._exec_into(inst, args, arena)

    __call__ = execute

    # -- introspection --------------------------------------------------------

    @property
    def flops(self) -> int:
        """Modelled FLOPs of one execution (loops excluded — their cost
        lives in the sub-plan and depends on the trip count)."""
        return sum(c.flops for inst in self.instructions for c in inst.calls)

    def describe(self) -> str:
        """One line per instruction: slot assignment and chosen kernels."""
        lines = [
            f"plan: {len(self.instructions)} instructions, "
            f"{len(self.inputs)} inputs, {self.num_slots} slots"
        ]
        for i, inst in enumerate(self.instructions):
            kernels = ",".join(c.kernel for c in inst.calls) or "-"
            frees = f" free{list(inst.free_slots)}" if inst.free_slots else ""
            lines.append(
                f"  [{i:>3}] s{inst.out_slot} <- {inst.op}"
                f"({', '.join(f's{s}' for s in inst.arg_slots)})"
                f" [{kernels}]{frees}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Plan {len(self.instructions)} instructions, "
            f"{self.num_slots} slots, {len(self.inputs)} inputs -> "
            f"{len(self.output_slots)} outputs>"
        )


def _rebuild_plan(payload: dict, fold_constants: bool) -> Plan:
    """Unpickle hook: reconstruct the graph and recompile (module-level so
    pickle can address it)."""
    from .compiler import compile_plan
    from .serialize import graph_from_payload

    return compile_plan(
        graph_from_payload(payload), fold_constants=fold_constants
    )


class PinnedBinding:
    """A plan + arena + persistent slot table (see *Persistent bindings*
    in the module docstring).

    The slot table is built once and **reused across calls**: inputs are
    (re)bound at their slots, and every other slot is rewritten by its
    producing instruction before anything reads it (the schedule
    guarantees write-before-read within a pass), so no per-call
    clearing is needed.  Outputs alias arena storage and are valid until
    the next call.
    """

    __slots__ = ("plan", "arena", "slots", "_sig")

    def __init__(self, plan: Plan, arena: PlanArena) -> None:
        self.plan = plan
        self.arena = arena
        self.slots: list = [None] * plan.num_slots
        self._sig: tuple | None = None

    def rebind(
        self, feeds: Sequence[object] | Mapping[object, object]
    ) -> None:
        """Bind this call's feeds in place by the alias-else-copy rule
        (count and shapes validated as in :meth:`Plan.execute`)."""
        self._sig = self.plan._bind(feeds, self.slots, self.arena)

    def execute(self) -> list[np.ndarray]:
        """One serving pass over the bound feeds; returns the outputs
        (aliasing arena storage — copy what you keep).

        Once a full pass has completed with no mixed-dtype fallback,
        every buffer's shape/dtype is a pure function of the input
        dtypes — so a call whose bound feeds match that signature runs
        the plan's generated straight-line pass
        (:meth:`Plan._generate_serve`): no per-instruction dtype/warmth
        checks, no loop."""
        plan = self.plan
        arena = self.arena
        slots = self.slots
        bufs = arena.buffers
        if self._sig == arena._turbo_sig:
            serve = plan._serve or plan._generate_serve()
            return serve(slots, bufs, arena.views, plan._exec_into, arena)
        # Warming pass: per-instruction checks, and the certification
        # protocol (invalidate first so a mid-pass exception can't
        # certify half-warm buffers).  A value a BLAS call reads through
        # a view must be its slot's buffer: that is the view the
        # generated pass reads.
        arena._turbo_sig = None
        arena._uncertified = False
        viewed = plan._viewed_slots
        for inst in plan.instructions:
            args = [slots[s] for s in inst.arg_slots]
            out = inst.out_slot
            value = slots[out] = plan._run_arena(inst, args, arena, bufs)
            if value is not bufs[out] and out in viewed:
                arena._uncertified = True
        if not arena._uncertified:
            arena._turbo_sig = self._sig
        return [slots[s] for s in plan.output_slots]

    __call__ = execute

    def hand_off(self, outputs: list[np.ndarray]) -> list[np.ndarray]:
        """Make one pass's ``outputs`` the caller's: valid after any
        later call, sharing memory with no arena buffer, no feed and no
        other result — in the layout their producer wrote.

        Nothing is transposed and, for a result an instruction wrote
        into its slot's buffer, nothing is copied either: the buffer
        itself is handed over and the slot gets a fresh one of the same
        shape, dtype and order for the next call (so the arena's
        certification stands, and a kernel with an ``out=`` form has in
        effect written straight into a per-call destination).  What no
        instruction rewrites per call — a passed-through feed, a staged
        constant, a result a kernel returned outside its buffer, the
        second listing of one slot, a slot pinned to external storage —
        is copied out in its own layout.  This is the Session layer's
        hand-off (``Concrete.execute``); callers that execute the plan
        or a binding directly keep arena-aliased outputs and the
        zero-allocation guarantee."""
        arena = self.arena
        bufs = arena.buffers
        written = self.plan._written_slots
        handed = []
        for slot, out in zip(self.plan.output_slots, outputs):
            if out is bufs[slot] and slot in written \
                    and slot not in arena.pinned:
                bufs[slot] = fresh = np.empty_like(out)
                arena.views[slot] = fresh.T
                # The slot table must not keep the caller's array alive
                # (its producer rewrites the entry before anything reads).
                self.slots[slot] = None
                handed.append(out)
            else:
                handed.append(out.copy(order="K"))
        return handed
