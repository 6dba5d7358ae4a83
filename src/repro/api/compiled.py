"""The :class:`Compiled` callable — the unified trace-once/execute-many
wrapper every entry point now returns.

``session.compile(fn, backend=...)`` returns a session-bound instance;
the legacy decorators (``tfsim.function`` / ``pytsim.jit.script``) return
an *ambient* instance that resolves the active session per call, so code
written against PR 1 transparently compiles into whatever session is
current (the process-wide default one when none is entered).

The trace/optimize/plan-compile work itself lives in
:meth:`Session._build` — the session owns the plan cache and the stats,
the ``Compiled`` object owns only the per-signature concrete table and
the user-facing conveniences (``interpret``, graph introspection,
``last_report``).  Each :class:`Concrete` is its own executor: one
arena binding, and the report its plan derived when it was built.

A steady-state call does only what depends on the call: the retrace key
(:func:`input_signature` — shapes, ``np.dtype`` objects and the props
frozensets as they are, ~0.5 µs for three tensors), one comparison
against the last ``(signature, session)`` this function resolved, then
``concrete.execute``.  Only a miss — another signature, another session —
takes the build lock and the per-session table; :class:`repro.serve.Server`
keys its waves by the same function.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import weakref
from collections.abc import Callable, Sequence

import numpy as np

from ..errors import TracingError
from ..ir.graph import Graph
from ..ir.interpreter import ExecutionReport, Interpreter
from ..runtime import PinnedBinding, Plan
from ..runtime.singleflight import SingleFlight
from ..tensor.tensor import Tensor
from .registry import FrameworkProfile


def input_signature(args: Sequence[Tensor]) -> tuple:
    """The retrace key: shapes, dtypes and property annotations (the
    ``np.dtype`` and the props frozenset themselves — both hash and
    compare, and naming a dtype costs numpy microseconds per call)."""
    sig = []
    for a in args:
        if not isinstance(a, Tensor):
            raise TracingError(
                f"compiled functions take Tensor arguments, got {type(a).__name__}"
            )
        data = a.data
        sig.append((data.shape, data.dtype, a.props))
    return tuple(sig)


@dataclasses.dataclass(eq=False)
class Concrete:
    """One traced+optimized+plan-compiled specialization of a compiled
    function, and the one executor every call path (``__call__``,
    ``Session.run``/``run_batch``, the shard inline fallback) runs it
    through."""

    graph: Graph
    optimized: Graph
    plan: Plan
    trace_seconds: float
    pipeline_log: str
    #: Persistent slot table over this concrete's preallocated buffers,
    #: rebound in place per call (alias a feed contiguous in its slot's
    #: order, else copy it into the slot's buffer).  Outputs are handed
    #: off before they reach the caller, so user-visible results never
    #: alias arena storage.  The arena lives as long as the concrete.
    binding: PinnedBinding
    #: Guards the binding: one buffer set supports one execution at a
    #: time, so concurrent calls through one concrete serialize.
    lock: threading.Lock = dataclasses.field(default_factory=threading.Lock)

    def install(self, plan: Plan) -> None:
        """Bind ``plan`` over fresh, empty buffers (``Session.close``
        reinstalls the same plan to drop the old arena).  Caller holds
        :attr:`lock`."""
        self.plan = plan
        self.binding = PinnedBinding(plan, plan.new_arena())

    def execute(
        self, feeds: Sequence[object]
    ) -> tuple[list[np.ndarray], ExecutionReport]:
        """Run one feed set: ``(outputs, report)``, the outputs
        independent of later calls and in the layout their producer
        wrote (C-ordered, BLAS results included: the kernels make
        row-major calls), the report the plan's: the
        signature key fixes shapes, dtypes and props, so it is a
        constant and nothing here accounts.  Rebind → serving pass (a
        warming one on call 1) → hand-off; the lock orders every pass
        against :meth:`install`."""
        with self.lock:
            binding = self.binding
            binding.rebind(feeds)
            # The next call rewrites the arena: hand the result buffers
            # over instead of copying out of them.
            return binding.hand_off(binding.execute()), binding.plan.report


class Compiled:
    """Graph-mode wrapper around a Python callable (see module docstring)."""

    def __init__(
        self,
        fn: Callable,
        profile: FrameworkProfile,
        *,
        session: "object | None" = None,
        pipeline: str | None = None,
    ) -> None:
        self._fn = fn
        self.profile = profile
        self._session = session  # None → resolve the ambient session per call
        self._pipeline = pipeline  # None → the session's default
        #: session → {input signature → Concrete}.  Keying by session
        #: means an ambient Compiled never leaks a plan built in one
        #: session into another; the *weak* keys mean a long-lived
        #: decorated function doesn't pin every short-lived session (and
        #: its whole PlanCache) it ever ran in.
        self._cache: "weakref.WeakKeyDictionary[object, dict[tuple, Concrete]]" = (
            weakref.WeakKeyDictionary()
        )
        # Single-flight concrete building: two threads first-calling the
        # same (session, signature) must not both pay trace+optimize, but
        # distinct signatures/sessions build concurrently — the lock only
        # guards the tables, never the build (same audited primitive the
        # PlanCache uses for plan compiles).
        self._build_lock = threading.Lock()
        self._flight = SingleFlight(self._build_lock)
        # The last (signature, session, concrete) resolved, so a steady
        # stream of like calls pays one comparison instead of the lock
        # and table probes.  Session and concrete are held weakly: the
        # table above owns the concrete and goes with its session.
        self._last: tuple | None = None
        self.trace_count = 0
        self.last_trace_seconds = 0.0
        self.last_report: ExecutionReport | None = None
        self.__doc__ = fn.__doc__
        self.__name__ = getattr(fn, "__name__", "compiled_fn")

    # -- session/pipeline resolution -------------------------------------------

    @property
    def session(self):
        """The owning session (ambient instances resolve the current one)."""
        if self._session is not None:
            return self._session
        from .session import current_session

        return current_session()

    def _session_for(self, session) -> object:
        if self._session is not None and session is not None \
                and session is not self._session:
            raise ValueError(
                f"{self!r} is bound to a different Session; compile the "
                "function in the session you want to run it in"
            )
        return self._session or session or self.session

    def pipeline_choice(self, session) -> str:
        return self._pipeline or session.options.pipeline

    @property
    def aware(self) -> bool:
        """Back-compat: whether this function runs the aware pipeline —
        set explicitly or inherited from the (current) session default."""
        return self.pipeline_choice(self.session) == "aware"

    # -- tracing ---------------------------------------------------------------

    def get_concrete(self, *args: Tensor) -> Concrete:
        """Trace/optimize/plan-compile for this signature (cached); does
        not execute."""
        return self._concrete_in(self.session, args)

    def _concrete_in(self, session, args: Sequence[Tensor]) -> Concrete:
        sig = input_signature(args)
        last = self._last
        if last is not None and last[0] == sig and last[1]() is session:
            concrete = last[2]()
            if concrete is not None:
                return concrete

        def probe() -> Concrete | None:
            per_session = self._cache.get(session)
            if per_session is None:
                per_session = self._cache.setdefault(session, {})
            return per_session.get(sig)

        def build() -> Concrete:
            return session._build(
                self._fn,
                self.profile,
                self.pipeline_choice(session),
                args,
                label=self.__name__,
            )

        def publish(concrete: Concrete) -> None:
            self._cache.setdefault(session, {})[sig] = concrete
            self.trace_count += 1
            self.last_trace_seconds = concrete.trace_seconds

        concrete, _ = self._flight.run((session, sig), probe, build, publish)
        self._last = (sig, weakref.ref(session), weakref.ref(concrete))
        return concrete

    # -- execution ---------------------------------------------------------------

    def __call__(self, *args: Tensor):
        return self._call_in(self.session, args)

    def _call_in(self, session, args: Sequence[Tensor]):
        concrete = self._concrete_in(session, args)
        start = time.perf_counter()
        outputs, report = concrete.execute([a.data for a in args])
        session._record_exec(concrete.plan, time.perf_counter() - start)
        self.last_report = report
        return self._wrap(outputs)

    def interpret(self, *args: Tensor):
        """Execute through the reference :class:`Interpreter` instead of
        the compiled plan — the pre-runtime path, kept for parity checks
        and the ``interpreter`` measurement mode."""
        concrete = self.get_concrete(*args)
        interp = Interpreter(record=True)
        outputs, report = interp.run(concrete.optimized, [a.data for a in args])
        self.last_report = report
        return self._wrap(outputs)

    @staticmethod
    def _wrap(outputs):
        tensors = [Tensor(o) for o in outputs]
        if len(tensors) == 1:
            return tensors[0]
        return tuple(tensors)

    # -- introspection -------------------------------------------------------------

    def initial_graph(self, *args: Tensor) -> Graph:
        """The pre-optimization DAG (the paper's Fig. 3 left side)."""
        return self.get_concrete(*args).graph

    def optimized_graph(self, *args: Tensor) -> Graph:
        """The post-optimization DAG (the paper's Fig. 3 right side)."""
        return self.get_concrete(*args).optimized

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = self._pipeline or "session-default"
        bound = "ambient" if self._session is None else "bound"
        return (
            f"<Compiled {self.__name__} [{self.profile.name}/{mode}] "
            f"{bound}, traces={self.trace_count}>"
        )
