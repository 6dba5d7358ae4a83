"""repro.api — the canonical public surface of the compiled runtime.

The paper's trace-once/execute-many story previously had three
uncoordinated entry points (``tfsim.function``, ``pytsim.jit.script`` and
the raw ``repro.runtime`` calls), all sharing one mutable process-wide
plan cache.  This package redesigns that surface around an explicit
:class:`Session`:

* :class:`Session` — context manager owning its own
  :class:`~repro.runtime.PlanCache` and :class:`Options`; the one
  compile/run surface: ``session.compile(fn, backend=...)``,
  ``session.run(...)``, ``session.run_batch(feeds)``, ``session.stats()``.
* :class:`Options` — pipeline choice, cache capacity, validation level,
  constant folding, sharding and plan store, set once per session without
  touching any call site.  Every compiled function runs through its own
  preallocated arena whatever the options.
* Backend registry — ``backend("tfsim")`` / ``backend("pytsim")`` resolve
  the registered :class:`FrameworkProfile` s; new front-ends plug in via
  :func:`register_backend`.
* :class:`Compiled` — what ``session.compile`` (and, via a shim, the
  legacy decorators) returns.

Quickstart::

    from repro import api, tensor as T

    A, B = T.random_general(512, seed=1), T.random_general(512, seed=2)

    with api.Session(pipeline="default") as session:
        f = session.compile(lambda a, b: (a.T @ b).T @ (a.T @ b),
                            backend="tfsim")
        y = session.run(f, A, B)
        print(session.stats().render())   # hits/misses + per-plan timings

The legacy decorators stay supported: they compile into the *ambient*
session — the innermost ``with Session():`` block, or a process-wide
default session whose cache is the PR-1 global instance.
"""

from .compiled import Compiled, Concrete, input_signature
from .options import PIPELINES, VALIDATION_LEVELS, Options
from .registry import (
    FrameworkProfile,
    available_backends,
    backend,
    register_backend,
)
from .session import (
    PlanStats,
    Session,
    SessionStats,
    current_session,
    default_session,
)

__all__ = [
    "Compiled",
    "Concrete",
    "FrameworkProfile",
    "Options",
    "PIPELINES",
    "PlanStats",
    "Session",
    "SessionStats",
    "VALIDATION_LEVELS",
    "available_backends",
    "backend",
    "current_session",
    "default_session",
    "input_signature",
    "register_backend",
]
