"""The `repro.api` Session layer: backends, scoped caches, one surface.

Pins the tentpole contracts of the API redesign:

* session *isolation* — two sessions compiling the same expression never
  share plans or stats;
* session *dedup* — one session compiling the same expression through
  tfsim and pytsim shares a single plan (cache hit on the second backend);
* ambient resolution — the legacy decorators compile into the innermost
  ``with Session():`` block;
* options validation, the backend registry, batching, and stats.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.errors import ConfigError, GraphError
from repro.frameworks import tfsim
from repro.tensor import random_general


def gram(a, b):
    return (a.T @ b).T @ (a.T @ b)


def _plan_reference(plan, feeds, reference, *, record=True):
    """``plan`` executed at plan level: arena-less (``"per-call"``, the
    reference the parity suites use) or through a fresh arena
    (``"preallocated"``)."""
    arena = plan.new_arena() if reference == "preallocated" else None
    return plan.execute(feeds, record=record, arena=arena)


class TestBackendRegistry:
    def test_builtin_backends_resolve(self):
        assert api.backend("tfsim").name == "tfsim"
        assert api.backend("pytsim").name == "pytsim"

    def test_available_backends(self):
        names = api.available_backends()
        assert "tfsim" in names and "pytsim" in names

    def test_unknown_backend(self):
        with pytest.raises(ConfigError):
            api.backend("jaxsim")

    def test_reregistering_same_profile_is_idempotent(self):
        profile = api.backend("tfsim")
        assert api.register_backend(profile) is profile

    def test_conflicting_registration_rejected(self):
        profile = api.backend("tfsim")
        import dataclasses

        clone = dataclasses.replace(profile, paper_decorator_overhead_s=1.0)
        with pytest.raises(ConfigError):
            api.register_backend(clone)

    def test_profile_rejects_unknown_pipeline(self):
        with pytest.raises(ConfigError):
            api.backend("tfsim").pipeline("fastest")


class TestOptions:
    def test_defaults_valid(self):
        api.Options().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"pipeline": "turbo"},
            {"cache_capacity": 0},
            {"validation": "paranoid"},
            {"backend": ""},
            {"fold_constants": "no"},
            {"cache_capacity": "8"},
            {"cache_capacity": 2.5},
            {"cache_capacity": True},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            api.Options(**overrides).validate()

    def test_retired_mode_knobs_are_gone(self):
        """One call path: 11 fields, none selecting an execution mode."""
        import dataclasses
        import inspect

        names = [f.name for f in dataclasses.fields(api.Options)]
        assert len(names) == 11
        assert not {"donate_feeds", "pin", "batch_workers", "arena",
                    "autotune", "fusion"} & set(names)
        for gone in ({"donate_feeds": True}, {"pin": True},
                     {"batch_workers": 2}, {"arena": "preallocated"},
                     {"autotune": True}, {"fusion": True}):
            with pytest.raises(TypeError):
                api.Options(**gone)
        assert list(inspect.signature(api.Session.run_batch).parameters) == [
            "self", "fn", "feed_sets"
        ]

    def test_replace_validates(self):
        with pytest.raises(ConfigError):
            api.Options().replace(cache_capacity=-3)
        with pytest.raises(ConfigError):
            api.Options().replace(no_such_field=1)

    def test_plan_cache_conflicting_capacity_rejected(self):
        from repro.runtime import PlanCache

        cache = PlanCache(maxsize=8)
        with pytest.raises(ConfigError, match="conflicts"):
            api.Session(plan_cache=cache, cache_capacity=4)
        # matching / unspecified capacity adopts the cache's
        s = api.Session(plan_cache=cache)
        assert s.options.cache_capacity == 8

    def test_run_memo_distinguishes_same_named_profiles(self, operands):
        """Ad-hoc profiles sharing a name must not reuse each other's
        compiled wrapper (the memo keys by profile, not name)."""
        from repro.passes import aware_pipeline, default_pipeline

        a, b = operands["H"], operands["x"]
        p_default = api.FrameworkProfile(
            name="adhoc", paper_decorator_overhead_s=0.0,
            pipeline_factory=default_pipeline,
            aware_pipeline_factory=aware_pipeline,
        )
        p_aware = api.FrameworkProfile(
            name="adhoc", paper_decorator_overhead_s=0.0,
            pipeline_factory=aware_pipeline,  # same name, different passes
            aware_pipeline_factory=aware_pipeline,
        )
        session = api.Session()
        fn = lambda p, q: p.T @ p @ q  # noqa: E731
        session.run(fn, a, b, backend=p_default)
        session.run(fn, a, b, backend=p_aware)
        labels = {ps.pipeline for ps in session.stats().plans}
        # two distinct plans were built — the aware profile reordered
        assert len(session.stats().plans) == 2, labels

    def test_session_kwarg_overrides(self):
        s = api.Session(cache_capacity=4, pipeline="aware")
        assert s.plan_cache.maxsize == 4
        assert s.options.pipeline == "aware"
        with pytest.raises(ConfigError):
            api.Session(validation="nope")


class TestSessionCompileRun:
    def test_compile_and_call(self, operands):
        a, b = operands["A"], operands["B"]
        session = api.Session()
        f = session.compile(gram, backend="tfsim")
        out = f(a, b)
        ref = (a.numpy().T @ b.numpy()).T @ (a.numpy().T @ b.numpy())
        np.testing.assert_allclose(out.numpy(), ref, rtol=1e-4)

    def test_run_accepts_plain_function(self, operands):
        a, b = operands["A"], operands["B"]
        session = api.Session()
        out = session.run(lambda x, y: x @ y, a, b, backend="pytsim")
        np.testing.assert_allclose(out.numpy(), a.numpy() @ b.numpy(),
                                   rtol=1e-5)

    def test_compile_rejects_compiled(self, operands):
        session = api.Session()
        f = session.compile(gram)
        with pytest.raises(TypeError):
            session.compile(f)

    def test_run_rejects_options_for_already_compiled(self, operands):
        """backend=/pipeline= must not be silently ignored when fn is
        already Compiled."""
        a, b = operands["A"], operands["B"]
        session = api.Session()
        f = session.compile(gram)
        with pytest.raises(ValueError, match="already compiled"):
            session.run(f, a, b, pipeline="aware")
        with pytest.raises(ValueError, match="already compiled"):
            session.run(f, a, b, backend="pytsim")

    def test_aware_reflects_session_default(self, operands):
        """`.aware` reports the *effective* pipeline, including one
        inherited from the session options."""
        session = api.Session(pipeline="aware")
        inherited = session.compile(gram)
        explicit = session.compile(gram, pipeline="default")
        assert inherited.aware is True
        assert explicit.aware is False

    def test_dead_sessions_are_not_pinned_by_decorated_functions(self, operands):
        """A long-lived decorated function must not retain every session
        it ever ran in (concrete tables hold sessions weakly)."""
        import gc
        import weakref

        a = operands["A"]

        @tfsim.function
        def f(p):
            return p @ p

        with api.Session() as s:
            f(a)
            ref = weakref.ref(s)
        del s
        gc.collect()
        assert ref() is None
        assert len(f._cache) == 0  # table entry went with the session

    def test_last_concrete_memo_never_crosses_signature_session_or_thread(self):
        """One ambient function called alternately with three signatures
        (two dtypes of one shape, one other shape), in two sessions, from
        two threads: every call runs the Concrete of its own (session,
        signature) — a session's stats see only plans it built — and a
        non-Tensor argument is still refused after the memo is warm."""
        import sys
        import threading

        from repro.errors import TracingError
        from repro.tensor import Tensor

        @tfsim.function
        def f(p):
            return p @ p + p

        a32 = random_general(8, seed=1)
        feeds = [a32, Tensor(a32.data.astype(np.float64), dtype=np.float64),
                 random_general(9, seed=2)]
        want = [t.data @ t.data + t.data for t in feeds]
        sessions = [api.Session(), api.Session()]
        rounds, errors = 60, []
        barrier = threading.Barrier(len(sessions))

        def worker(session):
            try:
                with session:
                    barrier.wait()
                    for i in range(rounds):
                        k = i % len(feeds)
                        got = f(feeds[k]).data
                        assert got.dtype == want[k].dtype
                        np.testing.assert_allclose(got, want[k], rtol=1e-5)
                    with pytest.raises(TracingError):
                        f(feeds[k].data)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(s,))
                       for s in sessions]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert f.trace_count == len(sessions) * len(feeds)
        for session in sessions:
            plans = session.stats().plans
            assert all("<unbuilt>" not in p.labels for p in plans)
            assert sum(p.executions for p in plans) == rounds
            assert len(f._cache[session]) == len(feeds)

    def test_bound_compiled_rejected_by_other_session(self, operands):
        a, b = operands["A"], operands["B"]
        s1, s2 = api.Session(), api.Session()
        f = s1.compile(gram)
        with pytest.raises(ValueError):
            s2.run(f, a, b)

    def test_default_backend_from_options(self, operands):
        session = api.Session(backend="pytsim")
        f = session.compile(gram)
        assert f.profile.name == "pytsim"

    def test_pipeline_override_per_function(self, operands):
        h, x = operands["H"], operands["x"]
        session = api.Session()
        blind = session.compile(lambda p, q: p.T @ p @ q)
        aware = session.compile(lambda p, q: p.T @ p @ q, pipeline="aware")
        blind(h, x)
        assert blind.last_report.kernel_counts().get("gemm", 0) >= 1
        aware(h, x)
        assert aware.last_report.kernel_counts().get("gemm", 0) == 0
        with pytest.raises(ConfigError):
            session.compile(gram, pipeline="warp")

    def test_validation_levels_run(self, operands):
        a, b = operands["A"], operands["B"]
        for level in api.VALIDATION_LEVELS:
            session = api.Session(validation=level)
            out = session.run(gram, a, b)
            assert out.shape == (a.shape[1], b.shape[1])

    def test_full_validation_is_a_from_scratch_walk(self, operands, monkeypatch):
        """``full`` re-checks the traced and the optimized graph without
        the pipeline's per-run memory of already-validated nodes."""
        from repro.api import session as session_mod

        calls = []
        real = session_mod.validate_graph

        def spy(graph, **kwargs):
            calls.append(kwargs)
            return real(graph, **kwargs)

        monkeypatch.setattr(session_mod, "validate_graph", spy)
        a, b = operands["A"], operands["B"]
        api.Session(validation="full").run(gram, a, b)
        assert calls == [{}, {}]  # traced, optimized; no ``checked``

    def test_cache_capacity_enforced(self):
        session = api.Session(cache_capacity=1)
        for n in (4, 5, 6):
            session.run(lambda x: x @ x, random_general(n, seed=n))
        assert len(session.plan_cache) == 1
        assert session.plan_cache.stats.evictions == 2


class TestSessionIsolation:
    def test_two_sessions_never_share_plans_or_stats(self, operands):
        """The acceptance criterion: isolation by construction."""
        a, b = operands["A"], operands["B"]
        s1, s2 = api.Session(), api.Session()
        f1 = s1.compile(gram, backend="tfsim")
        f2 = s2.compile(gram, backend="tfsim")
        p1 = f1.get_concrete(a, b).plan
        p2 = f2.get_concrete(a, b).plan
        assert p1 is not p2
        assert s1.plan_cache is not s2.plan_cache
        for s in (s1, s2):
            st = s.stats()
            assert (st.hits, st.misses, st.entries) == (0, 1, 1)
        s1.run(f1, a, b)
        assert s2.stats().plans[0].executions == 0  # untouched by s1's run

    def test_one_session_dedupes_across_backends(self, operands):
        """tfsim then pytsim trace of one expression: plan-cache hit."""
        a, b = operands["A"], operands["B"]
        session = api.Session()
        plan_tf = session.compile(gram, backend="tfsim").get_concrete(a, b).plan
        plan_pyt = session.compile(gram, backend="pytsim").get_concrete(a, b).plan
        assert plan_tf is plan_pyt
        st = session.stats()
        assert st.misses == 1 and st.hits == 1 and st.entries == 1
        # both traces accounted against the one shared plan, but the
        # compile time was paid (and recorded) exactly once
        assert st.plans[0].traces == 2
        assert st.plans[0].plan_compile_seconds == pytest.approx(
            plan_tf.compile_seconds
        )
        # the stats row attributes *both* contributing backends
        assert st.plans[0].backends == ("tfsim", "pytsim")
        assert st.plans[0].backend == "tfsim+pytsim"


class TestAmbientSession:
    def test_decorators_compile_into_entered_session(self, operands):
        a, b = operands["A"], operands["B"]

        @tfsim.function
        def f(p, q):
            return p @ q

        with api.Session() as scoped:
            out = f(a, b)
            assert len(scoped.plan_cache) == 1
            assert scoped.stats().plans[0].executions == 1
        np.testing.assert_allclose(out.numpy(), a.numpy() @ b.numpy(),
                                   rtol=1e-5)

    def test_nested_sessions_are_lifo(self, operands):
        a = operands["A"]

        @tfsim.function
        def f(p):
            return p @ p

        with api.Session() as outer:
            with api.Session() as inner:
                f(a)
                assert len(inner.plan_cache) == 1
                assert len(outer.plan_cache) == 0
            f(a)
            assert len(outer.plan_cache) == 1

    def test_current_session_defaults_to_process_default(self):
        assert api.current_session() is api.default_session()
        with api.Session() as s:
            assert api.current_session() is s
        assert api.current_session() is api.default_session()

    def test_ambient_session_is_context_local(self):
        """A `with Session():` in one thread must not redirect other
        threads' ambient resolution — new threads see the default."""
        import threading

        seen = {}

        def worker():
            seen["session"] = api.current_session()

        with api.Session() as s:
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert api.current_session() is s
        assert seen["session"] is api.default_session()

    def test_default_session_serializes_one_concrete_across_threads(self):
        """An ambient function called with no session entered, from more
        threads than cores: every call runs the one ``Concrete`` of the
        process-wide default session, serialized on its lock (one arena,
        one slot table), and every thread gets its own correct answers."""
        import sys
        import threading

        @tfsim.function
        def f(p, q):
            return (p @ q + p) @ q

        threads_n, rounds = 4, 25
        feeds = [(random_general(12, seed=10 + t),
                  random_general(12, seed=20 + t)) for t in range(threads_n)]
        want = [f.interpret(*pair).numpy().tobytes() for pair in feeds]
        errors: list = []
        barrier = threading.Barrier(threads_n)

        def worker(t):
            try:
                barrier.wait()
                for _ in range(rounds):
                    if f(*feeds[t]).numpy().tobytes() != want[t]:
                        errors.append(t)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(threads_n)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert f.trace_count == 1
        concrete = f.get_concrete(*feeds[0])
        assert f._cache[api.default_session()][
            api.input_signature(feeds[0])] is concrete
        assert concrete.lock.acquire(blocking=False)
        concrete.lock.release()

    def test_default_session_uses_global_cache(self):
        from repro.runtime import cache as cache_module

        assert api.default_session().plan_cache is cache_module._default_plan_cache()


class TestRunBatch:
    def test_matches_per_call_results(self, operands):
        a, b = operands["A"], operands["B"]
        session = api.Session()
        f = session.compile(gram, backend="tfsim")
        single = f(a, b)
        batch = session.run_batch(f, [[a, b]] * 3)
        assert len(batch) == 3
        for outs in batch.outputs:
            assert outs[0].tobytes() == single.numpy().tobytes()
        assert len(batch.reports) == 3
        assert all(r is f.last_report for r in batch.reports)

    def test_empty_feed_sets(self, operands):
        session = api.Session()
        f = session.compile(gram)
        batch = session.run_batch(f, [])
        assert len(batch) == 0

    def test_requires_compiled(self, operands):
        session = api.Session()
        with pytest.raises(TypeError):
            session.run_batch(gram, [[operands["A"], operands["B"]]])

    def test_mismatched_feed_shape_rejected(self, operands):
        a, b = operands["A"], operands["B"]
        session = api.Session()
        f = session.compile(lambda x, y: x @ y)
        with pytest.raises(GraphError):
            session.run_batch(f, [[a, b], [a, random_general(4, seed=9)]])

    def test_batch_counts_in_stats(self, operands):
        a, b = operands["A"], operands["B"]
        session = api.Session()
        f = session.compile(gram)
        session.run_batch(f, [[a, b]] * 5)
        assert session.stats().plans[0].executions == 5


class TestSessionStats:
    def test_stats_shape(self, operands):
        a, b = operands["A"], operands["B"]
        session = api.Session()
        f = session.compile(gram, backend="tfsim")
        f(a, b)
        f(a, b)
        st = session.stats()
        assert st.misses == 1 and st.entries == 1
        assert st.capacity == session.options.cache_capacity
        (plan,) = st.plans
        assert plan.label == "gram"
        assert plan.backend == "tfsim"
        assert plan.pipeline == "default"
        assert plan.traces == 1
        assert plan.trace_seconds > 0
        assert plan.plan_compile_seconds > 0
        assert plan.executions == 2
        assert plan.exec_seconds > 0

    def test_stats_snapshot_is_immutable_copy(self, operands):
        a, b = operands["A"], operands["B"]
        session = api.Session()
        f = session.compile(gram)
        f(a, b)
        before = session.stats()
        f(a, b)
        assert before.plans[0].executions == 1  # snapshot, not a live view
        assert session.stats().plans[0].executions == 2

    def test_render_mentions_counters(self, operands):
        session = api.Session()
        session.run(gram, operands["A"], operands["B"])
        text = session.stats().render()
        assert "misses" in text and "gram" in text
        # trace time and real Graph→Plan compile time are separate columns
        assert "trace(s)" in text and "compile(s)" in text

    def test_run_plain_callable_traces_once(self, operands):
        """session.run on a raw function memoizes the wrapper: repeated
        calls are execute-many, not retrace-per-call."""
        a, b = operands["A"], operands["B"]
        session = api.Session()
        for _ in range(3):
            session.run(gram, a, b)
        (plan,) = session.stats().plans
        assert plan.traces == 1
        assert plan.executions == 3

    def test_run_memo_is_bounded(self, operands):
        """Fresh lambdas per call must not grow the session without
        bound — the run memo is LRU-capped like the plan cache."""
        a, b = operands["A"], operands["B"]
        session = api.Session(cache_capacity=2)
        for _ in range(5):
            session.run(lambda x, y: x @ y, a, b)
        assert len(session._run_memo) <= 2

    def test_concurrent_first_calls_trace_once(self, operands):
        """Two threads first-calling one compiled function on the same
        signature pay trace+optimize once, not twice."""
        import threading

        a, b = operands["A"], operands["B"]
        session = api.Session()
        f = session.compile(gram)
        barrier = threading.Barrier(2)

        def worker():
            barrier.wait()
            f(a, b)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert f.trace_count == 1
        st = session.stats()
        assert st.plans[0].traces == 1
        assert st.plans[0].executions == 2

    def test_concurrent_distinct_signatures_both_build(self):
        """The per-signature build guard must not serialize or confuse
        builds of different shapes of one function."""
        import threading

        session = api.Session()
        f = session.compile(lambda x: x @ x)
        sizes = (8, 9, 10, 11)
        outs = {}
        barrier = threading.Barrier(len(sizes))

        def worker(n):
            a = random_general(n, seed=n)
            barrier.wait()
            outs[n] = f(a)

        threads = [threading.Thread(target=worker, args=(n,)) for n in sizes]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert f.trace_count == len(sizes)
        for n in sizes:
            a = random_general(n, seed=n)
            np.testing.assert_allclose(outs[n].numpy(), a.numpy() @ a.numpy(),
                                       rtol=1e-4)

    def test_plan_stats_do_not_pin_evicted_plans(self):
        """Accounting rows hold plans weakly: an evicted plan nothing
        else references must be collectible, stats row included."""
        import gc

        session = api.Session(cache_capacity=1)
        for n in (4, 5, 6):
            f = session.compile(lambda x: x @ x)
            f(random_general(n, seed=n))
            del f
        gc.collect()
        assert len(session.plan_cache) == 1
        assert session.plan_cache.stats.evictions == 2
        assert len(session._plan_stats) == 1

    def test_hit_rate(self):
        st = api.SessionStats(hits=3, misses=1, evictions=0, entries=1,
                              capacity=8, plans=())
        assert st.lookups == 4
        assert st.hit_rate == 0.75


class TestFusionArenaOptions:
    """Both execution knobs are gone — ``fusion`` and ``arena`` are not
    options: every Session call runs through its ``Concrete``'s arena,
    whatever the options.  Where a test is parametrized by ``reference``,
    the Session's answers are also checked against that plan-level
    execution of the same plan: the arena-less ``"per-call"`` reference
    (``Plan.execute(feeds)``) or a fresh ``"preallocated"`` arena; where
    by ``fold_constants``, with constant folding off and on."""

    def test_defaults_are_backward_compatible(self):
        opts = api.Options()
        assert not hasattr(opts, "fusion")
        assert not hasattr(opts, "arena")

    @pytest.mark.parametrize(
        "overrides",
        [{"fusion": "yes"}, {"arena": "heap"}, {"arena": ""}],
        ids=["fusion-nonbool", "arena-unknown", "arena-empty"],
    )
    def test_bad_mode_values_rejected(self, overrides):
        """A retired knob is an unknown field, whatever its value."""
        with pytest.raises(ConfigError):
            api.Options().replace(**overrides)

    @pytest.mark.parametrize("fold_constants", [False, True])
    @pytest.mark.parametrize("reference", ["per-call", "preallocated"])
    def test_all_mode_combinations_match_interpreter(self, operands,
                                                     fold_constants,
                                                     reference):
        """Outputs bit-identical on every call, and the report — the
        plan's, derived when it was built — the same object after calls
        1, 2 and 5, equal to the interpreter's field for field, and equal
        to the plan-level ``reference`` execution's."""
        a, b = operands["A"], operands["B"]
        session = api.Session(fold_constants=fold_constants)
        f = session.compile(gram)
        outs, reports = [], []
        for _ in range(5):
            outs.append(f(a, b).numpy().tobytes())
            reports.append(f.last_report)
        via_interp = f.interpret(a, b)
        interp_report = f.last_report
        assert set(outs) == {via_interp.numpy().tobytes()}
        report = reports[0]
        assert reports[1] is report and reports[4] is report
        assert report.calls  # not the empty report the pinned path had
        assert report == interp_report
        plan_outs, plan_report = _plan_reference(
            f.get_concrete(a, b).plan, [a.data, b.data], reference
        )
        assert set(outs) == {plan_outs[0].tobytes()}
        assert report == plan_report

    @pytest.mark.parametrize("fold_constants", [False, True])
    @pytest.mark.parametrize("reference", ["per-call", "preallocated"])
    def test_only_the_first_call_accounts(self, operands, monkeypatch,
                                          fold_constants, reference):
        """No call accounts: the plan's report is derived when the plan
        is built, so calls 1…N (single and batched) never touch the
        report's memory model, and neither does a plan-level
        ``reference`` pass, recorded or not; each hands back the plan's
        report."""
        from repro.ir.interpreter import ExecutionReport

        a, b = operands["A"], operands["B"]
        session = api.Session(fold_constants=fold_constants)
        f = session.compile(gram)
        plan = f.get_concrete(a, b).plan  # builds, deriving the report
        events = []
        real_alloc, real_free = ExecutionReport.alloc, ExecutionReport.free
        monkeypatch.setattr(
            ExecutionReport, "alloc",
            lambda self, n: (events.append("alloc"), real_alloc(self, n))[1],
        )
        monkeypatch.setattr(
            ExecutionReport, "free",
            lambda self, n: (events.append("free"), real_free(self, n))[1],
        )
        for _ in range(5):
            f(a, b)
            assert f.last_report is plan.report
        batch = session.run_batch(f, [[a, b]] * 3)
        assert all(r is plan.report for r in batch.reports)
        for record in (True, False):
            _plan_reference(plan, [a.data, b.data], reference, record=record)
        assert events == []
        assert plan.report.calls and plan.report.peak_bytes > 0

    def test_repeated_arena_calls_return_independent_results(self, operands):
        """Arena buffers are reused internally, but results handed to the
        user must not be overwritten by the next call."""
        a, b, c = operands["A"], operands["B"], operands["C"]
        session = api.Session()
        f = session.compile(lambda p, q: p @ q + p)
        first = f(a, b)
        kept = first.numpy().copy()
        second = f(a, c)  # same signature, same plan, same arena
        assert second.numpy().tobytes() != kept.tobytes()
        assert first.numpy().tobytes() == kept.tobytes()  # not clobbered

    def test_close_releases_the_arenas(self, operands):
        """An arena lives as long as its ``Concrete``; closing the session
        drops its buffers even while the function stays referenced, and a
        later call re-warms a fresh arena with the same answers."""
        a, b = operands["A"], operands["B"]
        session = api.Session()
        f = session.compile(gram)
        want = f(a, b).numpy().tobytes()
        f(a, b)
        concrete = f.get_concrete(a, b)
        warm = concrete.binding.arena
        assert any(buf is not None for buf in warm.buffers)
        session.close()
        assert concrete.binding.arena is not warm
        assert all(buf is None for buf in concrete.binding.arena.buffers)
        assert f(a, b).numpy().tobytes() == want
        assert f.last_report is concrete.plan.report
        assert f.last_report.calls

    def test_stats_surface_fusion_and_arena(self, operands):
        """Stats surface neither retired knob: no fusion or arena field,
        no fused-site count, and neither word in the rendering."""
        a, b, c = operands["A"], operands["B"], operands["C"]
        session = api.Session()
        f = session.compile(lambda p, q, r: 2.0 * p + q - r)
        f(a, b, c)
        stats = session.stats()
        assert not hasattr(stats, "fusion") and not hasattr(stats, "arena")
        assert not hasattr(stats, "fused_sites")
        text = stats.render()
        assert "fusion" not in text and "arena" not in text

    def test_stats_render_defaults_mention_modes(self, operands):
        """The one execution mode left is sharding: a default session
        renders no execution line, a sharded one names its processes."""
        import dataclasses

        session = api.Session()
        session.run(gram, operands["A"], operands["B"])
        stats = session.stats()
        assert "execution:" not in stats.render()
        sharded = dataclasses.replace(stats, shards=2).render()
        assert "execution: 2 shard processes" in sharded

    def test_run_batch_through_arena_session(self, operands):
        """Batches through the one executor equal the interpreter."""
        a, b = operands["A"], operands["B"]
        session = api.Session()
        f = session.compile(gram)
        feed_sets = [
            [random_general(a.shape[0], seed=100 + i),
             random_general(a.shape[0], seed=200 + i)]
            for i in range(4)
        ]
        got = session.run_batch(f, feed_sets)
        for feeds, outs in zip(feed_sets, got.outputs):
            assert outs[0].tobytes() == f.interpret(*feeds).numpy().tobytes()

    def test_ambient_decorators_inherit_session_modes(self, operands,
                                                      tmp_path):
        a, b = operands["A"], operands["B"]

        @tfsim.function
        def f(p, q):
            return 2.0 * (p @ q)

        with api.Session(plan_store=str(tmp_path)) as session:
            f(a, b)
            stats = session.stats()
        assert stats.plan_store == str(tmp_path)
        assert stats.store_writes == 1
