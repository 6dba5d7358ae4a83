"""Per-session configuration: the :class:`Options` dataclass.

Everything a :class:`~repro.api.session.Session` lets you choose lives
here, with one ``validate()`` gate so a bad knob fails at session
construction instead of mid-run.
"""

from __future__ import annotations

import dataclasses
import os

from ..errors import ConfigError

#: Pipeline choices a backend profile understands.
PIPELINES = ("default", "aware")

#: Execution-buffer strategies:
#: ``per-call``      every execution materializes fresh intermediates
#:                   (the PR-1 behaviour — results are independent arrays);
#: ``preallocated``  per-slot ndarray storage is allocated once and reused
#:                   via the kernels' ``out=`` variants — repeated
#:                   execution is allocation-free after warmup.  Results
#:                   returned through the Session layer are copied out of
#:                   the arena, so user-visible values stay independent.
#: Both stay because each wins somewhere: feed staging and the F→C
#: copy-out cost more than an O(n²) structured kernel, while GEMM chains
#: and dispatch-bound graphs run faster through the arena (README,
#: "Fusion & arena").
ARENA_MODES = ("per-call", "preallocated")

__all__ = ["ARENA_MODES", "PIPELINES", "VALIDATION_LEVELS", "Options"]

#: Graph-validation levels.  Whatever the level, a build that runs the
#: optimizer is checked by the pass pipeline itself: the traced graph, then
#: after every pass the nodes that pass created (``repro.ir.validate``).
#: The levels say what the session checks *on top of* that:
#: ``off``   nothing more — a plan-store warm start, which skips the
#:           passes, builds from the stored graph unchecked;
#: ``trace`` one full walk of the freshly traced graph, before the store
#:           lookup (so warm starts are covered too);
#: ``full``  ``trace`` plus one full, non-incremental walk of the
#:           optimized graph — whether the passes or the store produced
#:           it — before a plan is built.
VALIDATION_LEVELS = ("off", "trace", "full")


@dataclasses.dataclass(frozen=True)
class Options:
    """Knobs of one :class:`~repro.api.session.Session`.

    Attributes
    ----------
    backend:
        Default backend name used by ``session.compile`` when none is
        given (must be resolvable via :func:`repro.api.backend`).
    pipeline:
        Default optimization pipeline: ``"default"`` (the TF/PyT-faithful
        passes) or ``"aware"`` (the paper's linear-algebra-aware set).
    cache_capacity:
        Max entries of the session-owned :class:`~repro.runtime.PlanCache`.
    validation:
        Graph-validation level, one of :data:`VALIDATION_LEVELS`.
    fold_constants:
        Whether plans are compiled with constant folding (keys the plan
        cache separately, exactly like ``compile_plan``).
    fusion:
        Whether plans are compiled with the post-schedule kernel-fusion
        stage (elementwise-chain collapsing + GEMM alpha folding; keys
        the plan cache separately).  Outputs are bit-identical; reports
        represent fused sites as combined kernel-call records while
        preserving FLOP totals and peak bytes.
    arena:
        Execution-buffer strategy, one of :data:`ARENA_MODES`.
        ``"preallocated"`` executes every compiled function through a
        per-``Concrete`` :class:`~repro.runtime.PlanArena` — repeated
        calls perform zero intermediate allocations after warmup, and
        each feed is aliased when it is contiguous in its input slot's
        order (Fortran where BLAS reads the feed as a matrix — what
        ``Session.pin`` hands out; the C order tensors carry where only
        elementwise kernels read it; either where no kernel cares) and
        copied into the slot's buffer otherwise.  Results come back in
        the layout their producer wrote (Fortran for BLAS results).
    shards:
        Multi-process sharded batching.  ``N >= 1`` routes
        ``session.run_batch`` through a per-plan
        :class:`~repro.runtime.ShardPool` of N worker processes
        (shared-memory feed rings, GIL-free dispatch; pools are cached
        on the session and torn down when it exits).  ``None`` keeps
        the in-process loop.
    plan_store:
        Directory of a persistent :class:`~repro.runtime.PlanStore`
        (``None`` disables it).  When set, the session consults the
        store after each trace — a hit skips the optimization pipeline
        *and* the cold compile (the stored optimized graph re-lowers,
        with large consts mmapped from ``.npy`` sidecars) — misses
        write the compiled plan back, and shard workers warm-start
        from the same directory.  The directory is created on session
        construction; concurrent sessions and processes may share it
        (writes are atomic).
    shard_respawn:
        Supervision policy of the session's shard pools: ``True``
        respawns a crashed/hung worker and replays its wave (bounded
        retries with backoff); ``False`` (default) breaks the pool on
        the first worker failure.
    shard_wave_deadline:
        Seconds a shard worker may take to answer one wave before the
        supervisor classifies it *hung* and reaps it (terminate→kill).
        ``None`` keeps the blocking wait.
    shard_fallback:
        What ``run_sharded`` does when its pool breaks mid-run:
        ``"error"`` (default) raises the
        :class:`~repro.runtime.ShardWorkerError`; ``"inline"``
        completes the batch on the in-process loop and
        records the downgrade in ``SessionStats.shard_fallback_runs``
        — degraded throughput, but the caller still gets bit-correct
        results.
    faults:
        Deterministic fault injection: a
        :class:`~repro.faults.FaultPlan`, a spec string (the
        ``REPRO_FAULTS`` grammar), or ``None``.  Installed
        process-wide when the session is constructed — chaos testing
        only, never production.
    autotune:
        Online plan autotuning (``None``/``False`` off, ``True`` for
        defaults, a dict of :class:`~repro.runtime.AutotuneConfig`
        fields, or an ``AutotuneConfig``).  Hot signatures race 2–4
        candidate plans — rewrite derivations plus compile-knob
        variants — on the caller's real feeds; a winner that is
        bit-identical to the canonical outputs and beats them by the
        configured margin is atomically promoted into the plan cache
        and (with ``plan_store``) persisted with its derivation
        record, so restarts serve the tuned plan with zero re-tuning.
    """

    backend: str = "tfsim"
    pipeline: str = "default"
    cache_capacity: int = 256
    validation: str = "off"
    fold_constants: bool = False
    fusion: bool = False
    arena: str = "per-call"
    shards: int | None = None
    plan_store: str | None = None
    shard_respawn: bool = False
    shard_wave_deadline: float | None = None
    shard_fallback: str = "error"
    faults: object = None
    autotune: object = None

    def validate(self) -> None:
        """Raise :class:`ConfigError` if any field is out of range."""
        if not self.backend or not isinstance(self.backend, str):
            raise ConfigError(f"backend must be a non-empty string, got {self.backend!r}")
        if self.pipeline not in PIPELINES:
            raise ConfigError(
                f"pipeline must be one of {PIPELINES}, got {self.pipeline!r}"
            )
        if self.cache_capacity < 1:
            raise ConfigError(
                f"cache_capacity must be >= 1, got {self.cache_capacity}"
            )
        if self.validation not in VALIDATION_LEVELS:
            raise ConfigError(
                f"validation must be one of {VALIDATION_LEVELS}, "
                f"got {self.validation!r}"
            )
        if not isinstance(self.fusion, bool):
            raise ConfigError(f"fusion must be a bool, got {self.fusion!r}")
        if self.arena not in ARENA_MODES:
            raise ConfigError(
                f"arena must be one of {ARENA_MODES}, got {self.arena!r}"
            )
        if self.shards is not None and (
            not isinstance(self.shards, int)
            or isinstance(self.shards, bool)
            or self.shards < 1
        ):
            raise ConfigError(
                f"shards must be an int >= 1 or None, got {self.shards!r}"
            )
        if self.plan_store is not None and (
            not isinstance(self.plan_store, (str, os.PathLike))
            or not os.fspath(self.plan_store)
        ):
            raise ConfigError(
                "plan_store must be a non-empty directory path or None, "
                f"got {self.plan_store!r}"
            )
        if not isinstance(self.shard_respawn, bool):
            raise ConfigError(
                f"shard_respawn must be a bool, got {self.shard_respawn!r}"
            )
        if self.shard_wave_deadline is not None and not (
            isinstance(self.shard_wave_deadline, (int, float))
            and not isinstance(self.shard_wave_deadline, bool)
            and self.shard_wave_deadline > 0
        ):
            raise ConfigError(
                "shard_wave_deadline must be > 0 seconds or None, got "
                f"{self.shard_wave_deadline!r}"
            )
        if self.shard_fallback not in ("error", "inline"):
            raise ConfigError(
                "shard_fallback must be 'error' or 'inline', got "
                f"{self.shard_fallback!r}"
            )
        if self.faults is not None:
            from .. import faults as faults_module

            if isinstance(self.faults, str):
                faults_module.FaultPlan.parse(self.faults)  # raises ConfigError
            elif not isinstance(
                self.faults, (faults_module.FaultPlan, faults_module.FaultSpec)
            ):
                raise ConfigError(
                    "faults must be a FaultPlan, FaultSpec, spec string, or "
                    f"None, got {type(self.faults).__name__}"
                )
        if self.autotune is not None:
            from ..runtime.autotune import AutotuneConfig

            AutotuneConfig.normalize(self.autotune)  # raises ConfigError

    def replace(self, **overrides: object) -> "Options":
        """A validated copy with ``overrides`` applied."""
        unknown = set(overrides) - {f.name for f in dataclasses.fields(Options)}
        if unknown:
            raise ConfigError(f"unknown option fields: {sorted(unknown)}")
        out = dataclasses.replace(self, **overrides)  # type: ignore[arg-type]
        out.validate()
        return out
