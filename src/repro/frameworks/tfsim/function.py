"""``@tfsim.function`` — the graph-mode decorator (``@tf.function``)."""

from __future__ import annotations

from collections.abc import Callable

from ..common import TF_PROFILE, CompiledFunction


def function(fn: Callable | None = None, *, aware: bool = False):
    """Wrap ``fn`` for graph-mode execution.

    Usable bare or with arguments::

        @tfsim.function
        def f(a, b): ...

        @tfsim.function(aware=True)   # opt-in linear-algebra-aware pipeline
        def g(a, b): ...

    The first call per input signature traces and optimizes (Grappler-like
    pipeline); later calls run the cached optimized graph.  ``aware=True``
    enables the paper's recommended optimizations (chain reordering,
    property dispatch, distributivity, partial access) for ablations.

    Execution-engine knobs are session-level, not decorator-level: run
    decorated functions inside ``with repro.api.Session(shards=2):`` (or
    any other :class:`repro.api.Options`) to change how they execute
    without changing any call site.  Every call runs through the
    function's preallocated arena either way.
    """
    if fn is None:
        return lambda f: CompiledFunction(f, TF_PROFILE, aware=aware)
    return CompiledFunction(fn, TF_PROFILE, aware=aware)
