"""Online plan autotuning: races, the bit-identity gate, promotions.

Contracts under test (the PR-10 perf tentpole):

* **Determinism** — a fixed config seed plus a fixed
  ``REPRO_AUTOTUNE_BUDGET`` produces the *same* winner (name and
  derivation record) across two fresh sessions with fresh stores: the
  race is reproducible, not a coin flip.
* **Bit-identity gate** — a candidate whose outputs diverge from the
  canonical plan's on the real feeds is disqualified *before any timed
  round* and can never be promoted.  Float-random feeds make chain
  reassociation diverge, so an end-to-end session on such feeds must
  reject every derivation and keep the canonical plan.
* **Promotion** — on integer-valued feeds (bit-exact reassociation) the
  ``(A @ B) @ x`` chain promotes the right-association derivation, the
  promoted plan keeps answering bit-identically, and the winner + its
  derivation record persist through the plan store: a restarted session
  serves the tuned plan with ``promotions_restored >= 1`` and
  ``tuning_seconds == 0`` — zero re-tuning.
* **Safety** — config validation fails loudly at ``Options`` time; the
  hot-threshold gate keeps cold signatures untouched; worker mode races
  off the hot path and lands the same promotion.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pytest

from repro import api
from repro.errors import ConfigError
from repro.ir import trace
from repro.passes import default_pipeline
from repro.runtime import PlanCache, compile_plan
from repro.runtime.autotune import (
    AutotuneConfig,
    Candidate,
    generate_candidates,
    race,
)
from repro.tensor import random_general, random_vector
from repro.tensor.tensor import Tensor


def _int_chain(n: int = 96, seed: int = 7):
    """(A @ B) @ x on integer-valued float32 feeds: every reassociation
    is bit-exact, and the right-association derivation is structurally
    ~n/2 times cheaper — a deterministic, promotable win."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.integers(0, 4, (n, n)).astype(np.float32))
    b = Tensor(rng.integers(0, 4, (n, n)).astype(np.float32))
    x = Tensor(rng.integers(0, 4, (n, 1)).astype(np.float32))
    return (a, b, x), (a.data @ b.data) @ x.data


#: Race budget for tests that assert a promotion happened.  The race
#: always ends after ``reps`` rounds (a few ms here); the budget can
#: only cut it short, and a cut to one noisy round on a stalled host is
#: how a promotion gets lost.  So it is an upper bound a healthy run
#: never reaches, not a wall-clock the test races.
_AMPLE_BUDGET = 5.0


def _chain_fn(p, q, v):
    return (p @ q) @ v


class TestConfig:
    def test_normalize_off_and_defaults(self):
        assert AutotuneConfig.normalize(None) is None
        assert AutotuneConfig.normalize(False) is None
        assert AutotuneConfig.normalize(True) == AutotuneConfig()
        cfg = AutotuneConfig(hot_threshold=3)
        assert AutotuneConfig.normalize(cfg) is cfg

    def test_normalize_dict_overrides(self):
        cfg = AutotuneConfig.normalize({"hot_threshold": 5, "reps": 3})
        assert cfg.hot_threshold == 5 and cfg.reps == 3

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown autotune fields"):
            AutotuneConfig.normalize({"hot_treshold": 5})

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="autotune must be"):
            AutotuneConfig.normalize("fast")

    @pytest.mark.parametrize("overrides", [
        {"hot_threshold": 0},
        {"max_candidates": 1},
        {"max_candidates": 5},
        {"budget_seconds": 0.0},
        {"warmup": -1},
        {"reps": 0},
        {"min_speedup": 1.0},
        {"mode": "async"},
        {"derive_limit": -1},
    ])
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            AutotuneConfig.normalize(overrides)

    def test_options_validate_catches_bad_autotune(self):
        with pytest.raises(ConfigError):
            api.Options(autotune={"mode": "async"}).validate()

    def test_budget_env_override(self, monkeypatch):
        cfg = AutotuneConfig(budget_seconds=1.0)
        monkeypatch.setenv("REPRO_AUTOTUNE_BUDGET", "0.01")
        assert cfg.effective_budget() == 0.01
        monkeypatch.setenv("REPRO_AUTOTUNE_BUDGET", "-5")
        assert cfg.effective_budget() == 1.0  # non-positive: ignored
        monkeypatch.setenv("REPRO_AUTOTUNE_BUDGET", "cheap")
        with pytest.raises(ConfigError, match="REPRO_AUTOTUNE_BUDGET"):
            cfg.effective_budget()


class TestCandidates:
    @pytest.fixture
    def optimized(self):
        args = [random_general(16, seed=1), random_general(16, seed=2),
                random_vector(16, seed=3)]
        return default_pipeline().run(trace(_chain_fn, args))

    def test_canonical_first_then_derivations_then_knob(self, optimized):
        cands = generate_candidates(
            optimized, fold_constants=False, fusion=False,
            config=AutotuneConfig(),
        )
        assert cands[0].name == "canonical"
        assert any(c.name.startswith("derivation-") for c in cands[1:])
        assert cands[-1].name == "fusion-on"
        assert len(cands) <= 4

    def test_knob_variants_off(self, optimized):
        cands = generate_candidates(
            optimized, fold_constants=False, fusion=False,
            config=AutotuneConfig(knob_variants=False),
        )
        assert all(not c.name.startswith("fusion-") for c in cands)

    def test_derive_off_leaves_knob_flip_only(self, optimized):
        cands = generate_candidates(
            optimized, fold_constants=False, fusion=True,
            config=AutotuneConfig(derive=False),
        )
        assert [c.name for c in cands] == ["canonical", "fusion-off"]

    def test_oversize_graph_skips_derivation_search(self, optimized):
        cands = generate_candidates(
            optimized, fold_constants=False, fusion=False,
            config=AutotuneConfig(derive_max_graph_nodes=1),
        )
        assert all(not c.name.startswith("derivation-") for c in cands)

    def test_max_candidates_clamps(self, optimized):
        cands = generate_candidates(
            optimized, fold_constants=False, fusion=False,
            config=AutotuneConfig(max_candidates=2),
        )
        assert len(cands) == 2 and cands[0].name == "canonical"


class TestBitIdentityGate:
    def test_divergent_candidate_never_timed_never_wins(self):
        """A rival computing a *different* function is disqualified at
        the verification run — ``best_seconds`` stays ``None``, so it is
        provably excluded before a single timed round."""
        args = [random_general(16, seed=1), random_general(16, seed=2)]
        feeds = [t.data for t in args]
        canonical = default_pipeline().run(trace(lambda p, q: p @ q, args))
        evil = default_pipeline().run(trace(lambda p, q: q @ p, args))
        cands = [
            Candidate(name="canonical", graph=canonical,
                      fold_constants=False, fusion=False),
            Candidate(name="evil", graph=evil,
                      fold_constants=False, fusion=False),
        ]
        outcome = race(cands, feeds,
                       config=AutotuneConfig(budget_seconds=0.02, reps=2))
        assert cands[1].bit_identical is False
        assert cands[1].best_seconds is None
        assert outcome.rejected == 1
        assert outcome.winner is cands[0]
        assert not outcome.promote

    def test_float_feeds_reject_reassociation_end_to_end(self):
        """Random float feeds make chain reassociation bit-diverge; the
        session must race, reject every derivation, promote nothing, and
        keep answering with the canonical plan."""
        args = [random_general(64, seed=4), random_general(64, seed=5),
                random_vector(64, seed=6)]
        want = (args[0].data @ args[1].data) @ args[2].data
        with api.Session(autotune={
            "hot_threshold": 2, "budget_seconds": 0.02,
            "knob_variants": False, "min_speedup": 0.0,
        }) as session:
            chain = session.compile(_chain_fn)
            for _ in range(4):
                out = chain(*args)
            at = session.stats().autotune
        assert at.signatures_tuned == 1
        assert at.candidates_rejected >= 1
        assert at.promotions == 0
        assert at.tuning_errors == 0
        assert np.allclose(out.data, want, rtol=1e-5, atol=1e-5)


class TestPromotion:
    def test_inline_promotion_and_bit_identical_serving(self):
        (a, b, x), want = _int_chain()
        with api.Session(autotune={
            "hot_threshold": 3, "budget_seconds": _AMPLE_BUDGET,
        }) as session:
            chain = session.compile(_chain_fn)
            for _ in range(5):
                chain(a, b, x)
            at = session.stats().autotune
            out = chain(a, b, x)  # served by the promoted plan
        assert at.signatures_tuned == 1
        assert at.promotions == 1
        assert at.speedup_pct > 0.0
        assert np.array_equal(out.data, want)

    @pytest.mark.parametrize("arena", ["per-call", "preallocated"])
    def test_promotion_re_records_the_cached_report(self, arena):
        """The report is a constant of (concrete, plan): swapping the
        plan in must drop the canonical report, or ``last_report`` would
        keep advertising the FLOPs the promotion just removed."""
        (a, b, x), want = _int_chain()
        with api.Session(arena=arena, autotune={
            "hot_threshold": 3, "budget_seconds": _AMPLE_BUDGET,
        }) as session:
            chain = session.compile(_chain_fn)
            chain(a, b, x)
            canonical = chain.last_report
            for _ in range(4):
                chain(a, b, x)
            assert session.stats().autotune.promotions == 1
            out = chain(a, b, x)
            tuned = chain.last_report
            assert chain(a, b, x) is not None and chain.last_report is tuned
        assert np.array_equal(out.data, want)
        assert tuned is not canonical
        assert tuned.total_flops < canonical.total_flops

    def test_below_threshold_never_tunes(self):
        (a, b, x), _ = _int_chain(n=16)
        with api.Session(autotune={"hot_threshold": 50}) as session:
            chain = session.compile(_chain_fn)
            for _ in range(5):
                chain(a, b, x)
            at = session.stats().autotune
        assert at.signatures_tuned == 0
        assert at.candidates_raced == 0

    def test_worker_mode_promotes_off_the_hot_path(self):
        import time

        (a, b, x), want = _int_chain()
        with api.Session(autotune={
            "hot_threshold": 2, "budget_seconds": _AMPLE_BUDGET,
            "mode": "worker",
        }) as session:
            chain = session.compile(_chain_fn)
            for _ in range(4):
                chain(a, b, x)
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if session.stats().autotune.signatures_tuned >= 1:
                    break
                time.sleep(0.05)
            at = session.stats().autotune
            out = chain(a, b, x)
        assert at.signatures_tuned == 1
        assert at.promotions == 1
        assert np.array_equal(out.data, want)

    def test_stats_render_has_autotune_line(self):
        (a, b, x), _ = _int_chain(n=32)
        with api.Session(autotune={
            "hot_threshold": 3, "budget_seconds": 0.02,
        }) as session:
            chain = session.compile(_chain_fn)
            for _ in range(5):
                chain(a, b, x)
            rendered = session.stats().render()
        assert "autotune:" in rendered
        assert "signature(s) tuned" in rendered


def _tune_once(store_dir: str, *, calls: int = 5) -> "dict | None":
    """One fresh session tuning the integer chain against ``store_dir``;
    returns the alias record the promotion persisted."""
    (a, b, x), want = _int_chain()
    with api.Session(
        plan_store=store_dir,
        autotune={"hot_threshold": 3, "seed": 7},
    ) as session:
        chain = session.compile(_chain_fn)
        for _ in range(calls):
            out = chain(a, b, x)
        assert np.array_equal(out.data, want)
        assert session.stats().autotune.promotions == 1
    aliases = glob.glob(os.path.join(store_dir, "aliases", "*"))
    assert len(aliases) == 1
    with open(aliases[0]) as fh:
        return json.load(fh).get("record")


class TestDeterminismAndPersistence:
    def test_fixed_seed_and_budget_pick_identical_winner(
        self, tmp_path, monkeypatch
    ):
        """The ISSUE's determinism clause: same seed, same
        ``REPRO_AUTOTUNE_BUDGET`` => the same winner (name *and*
        derivation text) lands in two independent stores."""
        monkeypatch.setenv("REPRO_AUTOTUNE_BUDGET", "0.05")
        rec1 = _tune_once(str(tmp_path / "s1"))
        rec2 = _tune_once(str(tmp_path / "s2"))
        assert rec1 is not None and rec2 is not None
        assert rec1["winner"] == rec2["winner"]
        assert rec1["derivation"] == rec2["derivation"]
        assert rec1["fusion"] == rec2["fusion"]

    def test_promotion_record_carries_measured_costs(self, tmp_path):
        rec = _tune_once(str(tmp_path))
        assert rec["winner"].startswith(("derivation-", "fusion-"))
        assert rec["winner_seconds"] < rec["canonical_seconds"]
        assert rec["speedup_pct"] > 0.0
        assert rec["candidates_raced"] >= 2

    def test_restart_restores_winner_with_zero_retuning(self, tmp_path):
        _tune_once(str(tmp_path))
        (a, b, x), want = _int_chain()
        with api.Session(
            plan_store=str(tmp_path),
            autotune={"hot_threshold": 3, "seed": 7},
        ) as session:
            chain = session.compile(_chain_fn)
            # Drive well past the threshold: a restored winner must
            # never re-tune, however hot the signature gets.
            for _ in range(8):
                out = chain(a, b, x)
            stats = session.stats()
        assert np.array_equal(out.data, want)
        assert stats.autotune.promotions_restored == 1
        assert stats.autotune.signatures_tuned == 0
        assert stats.autotune.tuning_seconds == 0.0
        assert stats.misses == 0  # warm start: zero cold compiles
        assert "restored from store" in stats.render()


class TestPlanCacheHooks:
    def test_note_execution_accumulates_hotness(self):
        cache = PlanCache()
        key = (("sig",), False, False)
        assert cache.note_execution(key) == 1
        assert cache.note_execution(key, count=4) == 5

    def test_promote_swaps_entry_and_counts(self):
        args = [random_general(8, seed=1), random_general(8, seed=2)]
        graph = default_pipeline().run(trace(lambda p, q: p @ q, args))
        cache = PlanCache()
        plan, compiled_here = cache.get_with_info(graph)
        assert compiled_here
        from repro.runtime.signature import graph_signature

        key = (graph_signature(graph), False, False)
        winner = compile_plan(graph, fusion=True)
        cache.promote(key, winner)
        assert cache.stats.promotions == 1
        assert cache.get(graph) is winner
