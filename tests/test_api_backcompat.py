"""Back-compat of the PR-1 surface through the Session shim.

The redesign reworked ``frameworks.common.CompiledFunction`` into a thin
shim over ``repro.api``; these tests pin that the shim is *bit-identical*
to the PR-1 behaviour — outputs and ``ExecutionReport`` s — and that the
deprecated ``default_plan_cache`` accessor is gone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.frameworks import pytsim, tfsim
from repro.frameworks.common import (
    PYT_PROFILE,
    TF_PROFILE,
    CompiledFunction,
    ConcreteFunction,
)
from repro.ir import trace
from repro.passes import aware_pipeline, default_pipeline
from repro.runtime import compile_plan


def _pr1_reference(fn, args, *, aware=False):
    """The PR-1 code path, reconstructed literally: trace → pipeline →
    compile_plan → execute (no session, no shared cache)."""
    graph = trace(fn, list(args))
    pipeline = aware_pipeline() if aware else default_pipeline()
    optimized = pipeline.run(graph)
    plan = compile_plan(optimized)
    return plan.execute([a.data for a in args])


class TestBitIdenticalOutputs:
    def test_tfsim_function_matches_pr1_path(self, operands):
        a, b = operands["A"], operands["B"]

        def expr(p, q):
            return tfsim.transpose(tfsim.transpose(p) @ q) @ (tfsim.transpose(p) @ q)

        ref_outs, ref_report = _pr1_reference(expr, [a, b])

        @tfsim.function
        def f(p, q):
            return tfsim.transpose(tfsim.transpose(p) @ q) @ (tfsim.transpose(p) @ q)

        out = f(a, b)
        assert out.numpy().tobytes() == ref_outs[0].tobytes()
        assert f.last_report == ref_report

    def test_pytsim_script_matches_pr1_path(self, operands):
        a, b = operands["A"], operands["B"]

        def expr(p, q):
            return (p.T @ q).T @ p.T @ q

        ref_outs, ref_report = _pr1_reference(expr, [a, b])

        @pytsim.jit.script
        def g(p, q):
            return (p.T @ q).T @ p.T @ q

        out = g(a, b)
        assert out.numpy().tobytes() == ref_outs[0].tobytes()
        assert g.last_report == ref_report

    def test_aware_decorator_matches_pr1_path(self, operands):
        h, x = operands["H"], operands["x"]

        def expr(p, q):
            return tfsim.transpose(p) @ p @ q

        ref_outs, ref_report = _pr1_reference(expr, [h, x], aware=True)

        @tfsim.function(aware=True)
        def f(p, q):
            return tfsim.transpose(p) @ p @ q

        out = f(h, x)
        assert out.numpy().tobytes() == ref_outs[0].tobytes()
        assert f.last_report == ref_report

    def test_shim_matches_explicit_session(self, operands):
        """The decorator (ambient default session) and an explicit
        session produce identical results and reports."""
        a, b = operands["A"], operands["B"]

        @tfsim.function
        def f(p, q):
            return p @ q + p

        via_shim = f(a, b)
        shim_report = f.last_report

        g = api.Session().compile(lambda p, q: p @ q + p, backend="tfsim")
        via_session = g(a, b)
        assert via_shim.numpy().tobytes() == via_session.numpy().tobytes()
        assert shim_report == g.last_report

    def test_interpret_parity_preserved(self, operands):
        a, b = operands["A"], operands["B"]

        @tfsim.function
        def f(p, q):
            return (p.T @ q).T @ (p.T @ q)

        compiled = f(a, b)
        interpreted = f.interpret(a, b)
        assert compiled.numpy().tobytes() == interpreted.numpy().tobytes()


class TestShimSurface:
    def test_compiled_function_is_api_compiled(self):
        fn = CompiledFunction(lambda a: a @ a, TF_PROFILE)
        assert isinstance(fn, api.Compiled)
        assert "tfsim" in repr(fn)

    def test_concrete_alias(self):
        assert ConcreteFunction is api.Concrete

    def test_profiles_are_registered_backends(self):
        assert api.backend("tfsim") is TF_PROFILE
        assert api.backend("pytsim") is PYT_PROFILE

    def test_frameworks_export_framework_profile(self):
        from repro.frameworks import FrameworkProfile

        assert FrameworkProfile is api.FrameworkProfile

    def test_legacy_attributes_preserved(self, operands):
        a = operands["A"]

        @tfsim.function(aware=True)
        def f(p):
            return p @ p

        assert f.aware is True
        f(a)
        f(a)
        assert f.trace_count == 1
        assert f.last_trace_seconds > 0
        assert f.last_report is not None
        assert f.profile is TF_PROFILE

    def test_public_default_plan_cache_is_gone(self):
        """The deprecated process-wide accessor finished its deprecation:
        cache ownership is the Session's, and the default session adopts
        the one process-wide instance through the internal accessor."""
        import repro.runtime
        from repro.api import default_session
        from repro.runtime import cache as cache_module

        assert not hasattr(repro.runtime, "default_plan_cache")
        assert not hasattr(cache_module, "default_plan_cache")
        assert default_session().plan_cache is cache_module._default_plan_cache()


class TestMeasureModeRegression:
    def test_unknown_mode_raises_value_error(self, operands):
        """Regression: an unknown ``mode=`` must raise ValueError, not
        fall through (or hide behind a non-ValueError library type)."""
        from repro.experiments._measure import time_compiled

        @tfsim.function
        def f(p):
            return p @ p

        with pytest.raises(ValueError, match="unknown execution mode"):
            time_compiled(f, [operands["A"]], label="x", mode="warp-speed")

    def test_known_modes_still_measure(self, operands, tiny_bench_config):
        from repro.experiments._measure import time_compiled

        @tfsim.function
        def f(p):
            return p @ p

        for mode in ("graph", "runtime", "interpreter"):
            sample = time_compiled(f, [operands["A"]], label=mode,
                                   repetitions=2, mode=mode)
            assert sample.best > 0

    def test_reports_identical_across_shim_and_session_batch(self, operands):
        """ExecutionReports from the decorator path and session.run_batch
        agree call-for-call."""
        a, b = operands["A"], operands["B"]

        @tfsim.function
        def f(p, q):
            return (p.T @ q).T @ (p.T @ q)

        f(a, b)
        session = api.Session()
        g = session.compile(lambda p, q: (p.T @ q).T @ (p.T @ q),
                            backend="tfsim")
        batch = session.run_batch(g, [[a, b]] * 2)
        for report in batch.reports:
            assert report == f.last_report
