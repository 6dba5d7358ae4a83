"""Shared measurement helpers for experiment modules.

Graph-mode timing runs through the :mod:`repro.api` layer: the function
under test is a :class:`~repro.api.Compiled` (``session.compile`` result
or a legacy decorator shim), and trace/optimize/plan-compile happens in
whatever session is ambient — the experiments CLI opens one per run so
cache stats are scoped and reportable.
"""

from __future__ import annotations

from collections.abc import Callable

from ..api import Compiled
from ..bench.timing import TimingSample, measure
from ..tensor.tensor import Tensor

#: Execution modes for graph-mode timing:
#: ``graph``       the decorator's call path (compiled plan + Tensor wrap),
#: ``interpreter`` the reference Interpreter (pre-runtime behaviour).
EXECUTION_MODES = ("graph", "interpreter")


def time_compiled(
    fn: Compiled,
    args: list[Tensor],
    *,
    label: str,
    repetitions: int | None = None,
    mode: str = "graph",
) -> TimingSample:
    """Time a graph-mode function: trace/optimize/plan-compile first
    (untimed — the paper excludes decorator overheads), then measure
    steady-state calls in the chosen execution ``mode``.

    Raises :class:`ValueError` on an unknown ``mode``.
    """
    if mode not in EXECUTION_MODES:
        raise ValueError(
            f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}"
        )
    fn.get_concrete(*args)
    if mode == "interpreter":
        thunk = lambda: fn.interpret(*args)  # noqa: E731
    else:
        thunk = lambda: fn(*args)  # noqa: E731
    return measure(thunk, label=label, repetitions=repetitions)


def time_eager(
    thunk: Callable[[], object],
    *,
    label: str,
    repetitions: int | None = None,
) -> TimingSample:
    """Time an eager expression (a closure over bound operands)."""
    return measure(thunk, label=label, repetitions=repetitions)
