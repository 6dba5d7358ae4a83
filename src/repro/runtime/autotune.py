"""Online plan autotuning: race candidate derivations on real feeds.

The repo has contained a Linnea-style derivation search
(:mod:`repro.rewrite`) and a chain DP since the foundation PRs, yet every
hot signature compiled through one canonical pipeline.  This module
closes the loop the paper only benchmarks: when a signature gets *hot*
(by :class:`~repro.runtime.cache.PlanCache` per-key counts), the session
generates 2–4 candidate plans — distinct rewrite derivations lifted
through :mod:`repro.rewrite.bridge` plus compile-knob variants (fusion
on/off; each candidate's compile also casts its own per-slot layout
votes) — races them on the caller's *real* feeds with seeded,
warmup-discarded timing under a configurable budget, and atomically
promotes the winner into the plan cache.  With a
:class:`~repro.runtime.store.PlanStore` attached, the winner, its
derivation record and its measured cost persist, so a restarted process
serves the tuned plan with **zero** re-tuning
(``promotions_restored``, ``tuning_seconds == 0`` warm).

Correctness gate
----------------
Every candidate is executed once on the real feeds and its outputs
compared **bit-for-bit** (``np.array_equal`` + dtype) against the
canonical plan's before it may be timed or promoted.  Fusion variants
are bit-identical by construction (the PR-3 contract); derivation
variants reassociate floating-point reductions and only survive the
gate when the data makes them exact (e.g. integer-valued feeds, or
rewrites that eliminate work rather than reorder it).  A candidate that
diverges is disqualified and counted — never raced, never promoted.

Where tuning runs
-----------------
``mode="inline"`` races in the triggering call (deterministic; the call
that crosses the threshold pays the budget once).  ``mode="worker"``
ships the candidates to a dedicated worker process over the same
pickle-by-reconstruction payloads shard workers use, raced off the hot
path by a background thread — serving continues on the canonical plan
and the winner is swapped in when the race reports back.  Tuning is
*breaker-safe*: every failure mode (a candidate that will not build, an
injected ``optimize.pass`` fault, a dead worker) degrades to the
canonical plan with a counter, never an exception on the serving path.

``REPRO_AUTOTUNE_BUDGET`` (seconds, float) overrides the configured
racing budget — the knob CI uses to keep smoke runs tiny.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import random
import threading
import time

import numpy as np

from ..errors import ConfigError
from ..ir.graph import Graph
from .compiler import compile_plan
from .plan import Plan
from .serialize import graph_from_payload, graph_to_payload
from .signature import graph_signature

__all__ = [
    "AutotuneConfig",
    "AutotuneStats",
    "Autotuner",
    "Candidate",
    "RaceOutcome",
    "BUDGET_ENV",
    "generate_candidates",
    "race",
]

#: Environment override (seconds) for the racing budget.
BUDGET_ENV = "REPRO_AUTOTUNE_BUDGET"

AUTOTUNE_MODES = ("inline", "worker")


@dataclasses.dataclass(frozen=True)
class AutotuneConfig:
    """Knobs of one session's autotuner (``Options(autotune=...)``).

    Attributes
    ----------
    hot_threshold:
        Per-key executions (plus cache hits) before a signature tunes.
    max_candidates:
        Total plans in a race, canonical included (clamped to 2–4 by
        ``validate`` — the ISSUE's band; one canonical + 1–3 rivals).
    budget_seconds:
        Wall-clock budget of the timing loop (every candidate still gets
        at least one timed round).  ``REPRO_AUTOTUNE_BUDGET`` overrides.
    warmup:
        Discarded executions per candidate before timing starts.
    reps:
        Timing rounds per candidate (budget may cut them short).
    seed:
        Seeds the round-order shuffle — with a fixed seed and budget the
        race is deterministic up to genuine timing separation.
    min_speedup:
        Fractional margin a rival must beat the canonical best by to be
        promoted (guards against promoting into measurement noise).
    mode:
        ``"inline"`` (race in the triggering call) or ``"worker"``
        (dedicated worker process driven by a background thread).
    derive:
        Whether to generate rewrite-derivation candidates at all
        (``False`` leaves only compile-knob variants).
    knob_variants:
        Whether to generate compile-knob candidates (the fusion flip).
        ``False`` races derivations only — what the chaos drill uses to
        prove a faulted derivation leaves the canonical plan serving.
    derive_limit:
        Max derivation candidates per race.
    derive_max_graph_nodes:
        Graphs larger than this skip the derivation search (the
        expression space explodes; knob variants still race).
    derive_search_nodes:
        ``max_nodes`` budget handed to the derivation-graph exploration.
    """

    hot_threshold: int = 16
    max_candidates: int = 4
    budget_seconds: float = 0.25
    warmup: int = 2
    reps: int = 8
    seed: int = 0
    min_speedup: float = 0.02
    mode: str = "inline"
    derive: bool = True
    knob_variants: bool = True
    derive_limit: int = 2
    derive_max_graph_nodes: int = 48
    derive_search_nodes: int = 400

    @staticmethod
    def normalize(value: object) -> "AutotuneConfig | None":
        """Coerce an ``Options(autotune=...)`` value.

        Accepts ``None``/``False`` (off), ``True`` (defaults), a mapping
        of field overrides, or an :class:`AutotuneConfig`.
        """
        if value is None or value is False:
            return None
        if value is True:
            config = AutotuneConfig()
        elif isinstance(value, AutotuneConfig):
            config = value
        elif isinstance(value, dict):
            unknown = set(value) - {
                f.name for f in dataclasses.fields(AutotuneConfig)
            }
            if unknown:
                raise ConfigError(
                    f"unknown autotune fields: {sorted(unknown)}"
                )
            config = AutotuneConfig(**value)
        else:
            raise ConfigError(
                "autotune must be None, True, a dict of AutotuneConfig "
                f"fields, or an AutotuneConfig, got {type(value).__name__}"
            )
        config.validate()
        return config

    def validate(self) -> None:
        if self.hot_threshold < 1:
            raise ConfigError(
                f"autotune hot_threshold must be >= 1, got {self.hot_threshold}"
            )
        if not 2 <= self.max_candidates <= 4:
            raise ConfigError(
                "autotune max_candidates must be between 2 and 4 "
                f"(canonical included), got {self.max_candidates}"
            )
        if self.budget_seconds <= 0:
            raise ConfigError(
                f"autotune budget_seconds must be > 0, got {self.budget_seconds}"
            )
        if self.warmup < 0 or self.reps < 1:
            raise ConfigError(
                f"autotune needs warmup >= 0 and reps >= 1, got "
                f"warmup={self.warmup} reps={self.reps}"
            )
        if not 0.0 <= self.min_speedup < 1.0:
            raise ConfigError(
                f"autotune min_speedup must be in [0, 1), got {self.min_speedup}"
            )
        if self.mode not in AUTOTUNE_MODES:
            raise ConfigError(
                f"autotune mode must be one of {AUTOTUNE_MODES}, got "
                f"{self.mode!r}"
            )
        if self.derive_limit < 0 or self.derive_max_graph_nodes < 1 \
                or self.derive_search_nodes < 1:
            raise ConfigError("autotune derive limits must be positive")

    def effective_budget(self) -> float:
        """The racing budget, with the env override applied."""
        raw = os.environ.get(BUDGET_ENV)
        if raw:
            try:
                value = float(raw)
            except ValueError:
                raise ConfigError(
                    f"{BUDGET_ENV} must be a float (seconds), got {raw!r}"
                ) from None
            if value > 0:
                return value
        return self.budget_seconds


@dataclasses.dataclass
class Candidate:
    """One plan in a race: a graph plus compile knobs, with its verdicts."""

    name: str
    graph: Graph
    fold_constants: bool
    fusion: bool
    #: Human-readable provenance — the rewrite derivation (``expr.pretty``)
    #: or the compile knob flipped.  Persisted with the winner.
    derivation: str = ""
    plan: "Plan | None" = None
    best_seconds: "float | None" = None
    bit_identical: "bool | None" = None
    error: "str | None" = None

    @property
    def alive(self) -> bool:
        return self.plan is not None and self.error is None


@dataclasses.dataclass(frozen=True)
class RaceOutcome:
    """What one race measured and decided."""

    candidates: tuple[Candidate, ...]
    winner: "Candidate | None"
    canonical_seconds: "float | None"
    #: True when a non-canonical winner cleared ``min_speedup``.
    promote: bool
    speedup_pct: float

    @property
    def raced(self) -> int:
        return sum(1 for c in self.candidates if c.best_seconds is not None)

    @property
    def rejected(self) -> int:
        return sum(1 for c in self.candidates if c.bit_identical is False)


def generate_candidates(
    optimized: Graph,
    *,
    fold_constants: bool,
    fusion: bool,
    config: AutotuneConfig,
) -> list[Candidate]:
    """Candidate list for one hot signature, canonical first.

    Order of precedence under ``max_candidates``: the canonical plan,
    then rewrite derivations (cheapest first), then the fusion-flip knob
    variant.  Derivation candidates are normalized through the *default*
    pipeline — never the aware one, whose chain-reordering pass would
    collapse distinct associations right back together — and deduped
    against the canonical graph (and each other) by structural
    signature.  A candidate whose normalization fails (including an
    injected ``optimize.pass`` fault) is silently dropped: candidate
    generation must never take the hot path down.
    """
    canonical = Candidate(
        name="canonical",
        graph=optimized,
        fold_constants=fold_constants,
        fusion=fusion,
        derivation="session pipeline",
    )
    out = [canonical]
    seen = {(graph_signature(optimized), fold_constants, fusion)}
    if config.derive and len(optimized) <= config.derive_max_graph_nodes:
        out.extend(
            _derivation_candidates(
                optimized, fold_constants=fold_constants, fusion=fusion,
                config=config, seen=seen,
            )
        )
    if config.knob_variants and (
        graph_signature(optimized), fold_constants, not fusion
    ) not in seen:
        out.append(
            Candidate(
                name="fusion-on" if not fusion else "fusion-off",
                graph=optimized,
                fold_constants=fold_constants,
                fusion=not fusion,
                derivation=f"compile knob: fusion={not fusion}",
            )
        )
    return out[: config.max_candidates]


def _derivation_candidates(
    optimized: Graph,
    *,
    fold_constants: bool,
    fusion: bool,
    config: AutotuneConfig,
    seen: set,
) -> list[Candidate]:
    from ..passes import default_pipeline
    from ..rewrite import graph_to_expr, variants
    from ..rewrite.bridge import expr_to_graph

    lifted = None
    try:
        lifted = graph_to_expr(optimized)
    except Exception:
        return []
    if lifted is None:
        return []
    expr, env = lifted
    try:
        ranked = variants(
            expr,
            max_nodes=config.derive_search_nodes,
            limit=config.derive_limit + 2,
        )
    except Exception:
        return []
    dtype = optimized.outputs[0].dtype
    out: list[Candidate] = []
    for i, (variant, _flops) in enumerate(ranked):
        if len(out) >= config.derive_limit:
            break
        try:
            graph = expr_to_graph(
                variant, env, inputs=optimized.inputs, dtype=dtype
            )
            graph = default_pipeline().run(graph)
        except Exception:
            continue  # unbuildable / fault-injected candidate: drop it
        key = (graph_signature(graph), fold_constants, fusion)
        if key in seen:
            continue
        seen.add(key)
        out.append(
            Candidate(
                name=f"derivation-{i}",
                graph=graph,
                fold_constants=fold_constants,
                fusion=fusion,
                derivation=variant.pretty(),
            )
        )
    return out


def race(
    candidates: list[Candidate],
    feeds: list[np.ndarray],
    *,
    config: AutotuneConfig,
    budget: "float | None" = None,
) -> RaceOutcome:
    """Compile, verify, and time ``candidates`` on ``feeds``.

    ``candidates[0]`` must be the canonical plan (it may arrive
    pre-compiled via ``.plan``).  Every rival is first proven
    bit-identical to the canonical outputs on these exact feeds;
    divergent candidates are disqualified before a single timed round.
    Timing interleaves candidates in a per-round order shuffled by
    ``config.seed`` and keeps each candidate's best-of — robust to
    one-off scheduler noise and deterministic for a fixed seed once the
    candidates are genuinely separated.  ``budget`` caps the timing
    loop's wall clock (default :meth:`AutotuneConfig.effective_budget`);
    round zero always completes so every alive candidate has a
    measurement.
    """
    if not candidates:
        raise ValueError("race needs at least the canonical candidate")
    canonical = candidates[0]
    for cand in candidates:
        if cand.plan is None:
            try:
                cand.plan = compile_plan(
                    cand.graph,
                    fold_constants=cand.fold_constants,
                    fusion=cand.fusion,
                )
            except Exception as exc:
                cand.error = f"compile failed: {exc!r}"
    if canonical.plan is None:
        return RaceOutcome(
            candidates=tuple(candidates), winner=None,
            canonical_seconds=None, promote=False, speedup_pct=0.0,
        )
    # Bit-identity gate: one verification run per candidate through the
    # arena-less plan-level reference (no arena aliasing while comparing
    # buffers).
    ref_outs, _ = canonical.plan.execute(feeds, record=False)
    canonical.bit_identical = True
    for cand in candidates[1:]:
        if not cand.alive:
            continue
        try:
            outs, _ = cand.plan.execute(feeds, record=False)
        except Exception as exc:
            cand.error = f"execute failed: {exc!r}"
            continue
        cand.bit_identical = len(outs) == len(ref_outs) and all(
            o.dtype == r.dtype and np.array_equal(o, r)
            for o, r in zip(outs, ref_outs)
        )
    racers = [
        c for c in candidates
        if c.alive and (c is canonical or c.bit_identical)
    ]
    # Timed the way every Session call runs: through an arena.
    arenas = {id(c): c.plan.new_arena() for c in racers}
    for cand in racers:
        for _ in range(config.warmup):
            cand.plan.execute(feeds, record=False, arena=arenas[id(cand)])
    rng = random.Random(config.seed)
    if budget is None:
        budget = config.effective_budget()
    deadline = time.perf_counter() + budget
    for rnd in range(config.reps):
        if rnd > 0 and time.perf_counter() >= deadline:
            break
        order = list(racers)
        rng.shuffle(order)
        for cand in order:
            arena = arenas[id(cand)]
            t0 = time.perf_counter()
            cand.plan.execute(feeds, record=False, arena=arena)
            elapsed = time.perf_counter() - t0
            if cand.best_seconds is None or elapsed < cand.best_seconds:
                cand.best_seconds = elapsed
    timed = [c for c in racers if c.best_seconds is not None]
    if not timed or canonical.best_seconds is None:
        return RaceOutcome(
            candidates=tuple(candidates), winner=None,
            canonical_seconds=canonical.best_seconds,
            promote=False, speedup_pct=0.0,
        )
    winner = min(timed, key=lambda c: (c.best_seconds, candidates.index(c)))
    promote = (
        winner is not canonical
        and winner.best_seconds
        <= canonical.best_seconds * (1.0 - config.min_speedup)
    )
    speedup = (
        (canonical.best_seconds - winner.best_seconds)
        / canonical.best_seconds * 100.0
        if winner is not canonical else 0.0
    )
    return RaceOutcome(
        candidates=tuple(candidates),
        winner=winner,
        canonical_seconds=canonical.best_seconds,
        promote=promote,
        speedup_pct=max(0.0, speedup),
    )


# -- the dedicated race worker (mode="worker") --------------------------------


def _race_worker(conn, specs, feeds, cfg_kwargs, budget) -> None:
    """Entry point of the dedicated tuning worker process.

    Candidates arrive as serialize payloads (the same
    pickle-by-reconstruction substrate shard workers use); results go
    back as plain rows — the parent re-compiles only the winner.
    """
    try:
        candidates = [
            Candidate(
                name=s["name"],
                graph=graph_from_payload(s["payload"]),
                fold_constants=s["fold_constants"],
                fusion=s["fusion"],
                derivation=s["derivation"],
            )
            for s in specs
        ]
        config = AutotuneConfig(**cfg_kwargs)
        outcome = race(candidates, feeds, config=config, budget=budget)
        rows = [
            {
                "name": c.name,
                "best_seconds": c.best_seconds,
                "bit_identical": c.bit_identical,
                "error": c.error,
            }
            for c in outcome.candidates
        ]
        conn.send(("ok", rows))
    except BaseException as exc:  # the parent must always hear back
        try:
            conn.send(("error", repr(exc)))
        except Exception:
            pass
    finally:
        conn.close()


@dataclasses.dataclass(frozen=True)
class AutotuneStats:
    """Point-in-time autotuner counters (part of ``SessionStats``)."""

    signatures_tuned: int = 0
    candidates_raced: int = 0
    candidates_rejected: int = 0
    promotions: int = 0
    promotions_restored: int = 0
    tuning_seconds: float = 0.0
    #: Measured speedup of the *last* promotion, percent vs canonical.
    speedup_pct: float = 0.0
    tuning_errors: int = 0

    def render(self) -> str:
        line = (
            f"autotune: {self.signatures_tuned} signature(s) tuned | "
            f"{self.candidates_raced} candidate(s) raced / "
            f"{self.candidates_rejected} rejected (bit-divergent) | "
            f"{self.promotions} promotion(s)"
        )
        if self.promotions:
            line += f" (last +{self.speedup_pct:.1f}% vs canonical)"
        line += f" | {self.tuning_seconds:.4f}s tuning"
        if self.promotions_restored:
            line += (
                f" | {self.promotions_restored} promotion(s) restored "
                "from store"
            )
        if self.tuning_errors:
            line += f" | {self.tuning_errors} tuning error(s)"
        return line


class Autotuner:
    """Per-session tuning driver: hotness claims, races, promotions.

    One instance per :class:`~repro.api.session.Session` (so serve
    tenants get independent tuning budgets).  All entry points are
    exception-safe — a tuning failure is a counter, never an error on
    the serving path — and all counters are lock-protected.
    """

    def __init__(self, config: AutotuneConfig) -> None:
        self.config = config
        self._lock = threading.Lock()
        #: Keys tuned, in-flight, or restored — claimed exactly once.
        self._claimed: set = set()
        self._stats = {
            "signatures_tuned": 0,
            "candidates_raced": 0,
            "candidates_rejected": 0,
            "promotions": 0,
            "promotions_restored": 0,
            "tuning_seconds": 0.0,
            "speedup_pct": 0.0,
            "tuning_errors": 0,
        }
        self._threads: list[threading.Thread] = []
        self._procs: list = []
        self._closing = False

    # -- claims ----------------------------------------------------------------

    def claim(self, key: tuple) -> bool:
        """Atomically claim ``key`` for tuning; False if already claimed."""
        with self._lock:
            if key in self._claimed or self._closing:
                return False
            self._claimed.add(key)
            return True

    def mark_restored(self, key: tuple) -> bool:
        """Record a promotion restored from the plan store (warm start).

        Claims the key — a restored winner never re-tunes — and counts
        it once.  Returns whether this call did the claiming.
        """
        with self._lock:
            if key in self._claimed:
                return False
            self._claimed.add(key)
            self._stats["promotions_restored"] += 1
            return True

    # -- tuning ----------------------------------------------------------------

    def tune(self, session, concrete, feeds: list[np.ndarray]) -> None:
        """Race candidates for ``concrete`` (already claimed by caller).

        Inline mode runs here; worker mode returns immediately and races
        in a dedicated worker process driven by a daemon thread.  Never
        raises.
        """
        if self.config.mode == "inline":
            self._tune_sync(session, concrete, feeds)
            return
        thread = threading.Thread(
            target=self._tune_sync,
            args=(session, concrete, feeds),
            name="repro-autotune",
            daemon=True,
        )
        with self._lock:
            if self._closing:
                return
            self._threads.append(thread)
        thread.start()

    def _tune_sync(self, session, concrete, feeds) -> None:
        start = time.perf_counter()
        try:
            outcome = self._race_for(session, concrete, feeds)
            with self._lock:
                self._stats["candidates_raced"] += outcome.raced
                self._stats["candidates_rejected"] += outcome.rejected
            if outcome.promote and not self._closing:
                record = self._derivation_record(outcome)
                session._apply_promotion(concrete, outcome.winner, record)
                with self._lock:
                    self._stats["promotions"] += 1
                    self._stats["speedup_pct"] = outcome.speedup_pct
        except Exception:
            with self._lock:
                self._stats["tuning_errors"] += 1
        finally:
            with self._lock:
                self._stats["signatures_tuned"] += 1
                self._stats["tuning_seconds"] += time.perf_counter() - start

    def _race_for(self, session, concrete, feeds) -> RaceOutcome:
        fold = concrete.plan.source[1] if concrete.plan.source else False
        fusion = concrete.plan.source[2] if concrete.plan.source else False
        candidates = generate_candidates(
            concrete.optimized,
            fold_constants=fold,
            fusion=fusion,
            config=self.config,
        )
        candidates[0].plan = concrete.plan
        if self.config.mode == "worker" and len(candidates) > 1:
            rows = self._race_in_worker(candidates, feeds)
            if rows is not None:
                return self._merge_worker_rows(candidates, rows)
            # Worker died or timed out: fall back to the canonical plan
            # (no inline re-race — the budget was spent).
            return RaceOutcome(
                candidates=tuple(candidates), winner=None,
                canonical_seconds=None, promote=False, speedup_pct=0.0,
            )
        return race(candidates, feeds, config=self.config)

    def _race_in_worker(self, candidates, feeds):
        """Run the race in a dedicated worker process; rows or ``None``."""
        specs = []
        for c in candidates:
            specs.append({
                "name": c.name,
                "payload": graph_to_payload(c.graph),
                "fold_constants": c.fold_constants,
                "fusion": c.fusion,
                "derivation": c.derivation,
            })
        budget = self.config.effective_budget()
        cfg_kwargs = dataclasses.asdict(self.config)
        ctx = multiprocessing.get_context()
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_race_worker,
            args=(child, specs, feeds, cfg_kwargs, budget),
            daemon=True,
        )
        with self._lock:
            if self._closing:
                return None
            self._procs.append(proc)
        proc.start()
        child.close()
        try:
            # Generous deadline: compile + verify + warmup live outside
            # the racing budget, but a hung worker must not leak.
            if parent.poll(budget * 4 + 30.0):
                status, payload = parent.recv()
                if status == "ok":
                    return payload
            return None
        except (EOFError, OSError):
            return None
        finally:
            parent.close()
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            with self._lock:
                if proc in self._procs:
                    self._procs.remove(proc)

    def _merge_worker_rows(self, candidates, rows) -> RaceOutcome:
        """Fold worker-measured rows back onto the parent's candidates
        and decide promotion; the winner recompiles here (deterministic
        — same graph, same knobs)."""
        by_name = {c.name: c for c in candidates}
        for row in rows:
            cand = by_name.get(row["name"])
            if cand is None:
                continue
            cand.best_seconds = row["best_seconds"]
            cand.bit_identical = row["bit_identical"]
            cand.error = row["error"]
        canonical = candidates[0]
        timed = [
            c for c in candidates
            if c.best_seconds is not None
            and (c is canonical or c.bit_identical)
        ]
        if not timed or canonical.best_seconds is None:
            return RaceOutcome(
                candidates=tuple(candidates), winner=None,
                canonical_seconds=canonical.best_seconds,
                promote=False, speedup_pct=0.0,
            )
        winner = min(
            timed, key=lambda c: (c.best_seconds, candidates.index(c))
        )
        if winner is not canonical and winner.plan is None:
            try:
                winner.plan = compile_plan(
                    winner.graph,
                    fold_constants=winner.fold_constants,
                    fusion=winner.fusion,
                )
            except Exception:
                winner = canonical
        promote = (
            winner is not canonical
            and winner.best_seconds
            <= canonical.best_seconds * (1.0 - self.config.min_speedup)
        )
        speedup = (
            (canonical.best_seconds - winner.best_seconds)
            / canonical.best_seconds * 100.0
            if winner is not canonical else 0.0
        )
        return RaceOutcome(
            candidates=tuple(candidates), winner=winner,
            canonical_seconds=canonical.best_seconds,
            promote=promote, speedup_pct=max(0.0, speedup),
        )

    @staticmethod
    def _derivation_record(outcome: RaceOutcome) -> dict:
        """The JSON-able record persisted with a promoted winner."""
        winner = outcome.winner
        return {
            "winner": winner.name,
            "derivation": winner.derivation,
            "fold_constants": bool(winner.fold_constants),
            "fusion": bool(winner.fusion),
            "candidates_raced": outcome.raced,
            "canonical_seconds": outcome.canonical_seconds,
            "winner_seconds": winner.best_seconds,
            "speedup_pct": outcome.speedup_pct,
        }

    # -- reporting / lifecycle -------------------------------------------------

    def stats(self) -> AutotuneStats:
        with self._lock:
            return AutotuneStats(**self._stats)

    def close(self, timeout: float = 2.0) -> None:
        """Stop background tuning: no new races, reap worker processes.

        In-flight promotions may still land (they are harmless — the
        plan cache and store accept them) but nothing new starts.
        """
        with self._lock:
            self._closing = True
            procs = list(self._procs)
            threads = list(self._threads)
        for proc in procs:
            try:
                proc.terminate()
            except Exception:
                pass
        for thread in threads:
            thread.join(timeout=timeout)
