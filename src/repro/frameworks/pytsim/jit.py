"""``pytsim.jit`` — the ``torch.jit`` analogue."""

from __future__ import annotations

from collections.abc import Callable

from ..common import PYT_PROFILE, CompiledFunction


def script(fn: Callable | None = None, *, aware: bool = False):
    """Wrap ``fn`` for graph-mode execution (``@torch.jit.script``).

    Same trace-once / run-many contract as ``tfsim.function``; the profile
    differs (the paper reports ≈2e-3 s decorator overhead for torch.jit
    versus ≈6e-4 s for tf.function — footnote 4).  ``aware=True`` opts into
    the linear-algebra-aware pipeline for ablation benchmarks.

    Like ``tfsim.function``, execution-engine knobs (sharding, the plan
    store) come from the ambient :class:`repro.api.Session` —
    ``Session(plan_store=DIR)`` — not from the decorator.
    """
    if fn is None:
        return lambda f: CompiledFunction(f, PYT_PROFILE, aware=aware)
    return CompiledFunction(fn, PYT_PROFILE, aware=aware)
