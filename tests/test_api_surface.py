"""API-surface and error-hierarchy tests.

Downstream users import from package ``__init__`` modules; these tests pin
the public names and the exception taxonomy so refactors can't silently
break the documented API.
"""

import importlib
import inspect

import pytest

from repro import errors


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ShapeError,
            errors.DTypeError,
            errors.PropertyError,
            errors.KernelError,
            errors.GraphError,
            errors.TracingError,
            errors.RewriteError,
            errors.ChainError,
            errors.BenchmarkError,
            errors.ConfigError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_shape_error_is_value_error(self):
        # numpy-style callers catching ValueError keep working
        assert issubclass(errors.ShapeError, ValueError)

    def test_dtype_error_is_type_error(self):
        assert issubclass(errors.DTypeError, TypeError)

    def test_tracing_error_is_graph_error(self):
        assert issubclass(errors.TracingError, errors.GraphError)

    def test_one_catch_all(self):
        with pytest.raises(errors.ReproError):
            from repro.chain import optimal_parenthesization

            optimal_parenthesization([])


class TestPublicExports:
    @pytest.mark.parametrize(
        "module,names",
        [
            ("repro", ["config", "limit_threads", "override", "__version__"]),
            ("repro.kernels", ["gemm", "trmm", "syrk", "symm", "trsm", "gemv",
                               "dot", "scal", "axpy", "tridiagonal_matmul",
                               "diag_matmul", "block_diag_matmul", "potrf",
                               "cholesky_solve", "lu_solve", "kernel_flops",
                               "select_matmul_kernel", "default_registry"]),
            ("repro.tensor", ["Tensor", "Property", "eye", "zeros", "diag",
                              "tridiag", "block_diag", "random_general",
                              "random_lower_triangular", "random_orthogonal",
                              "random_spd", "detect_properties"]),
            ("repro.ir", ["Graph", "Node", "trace", "run_graph", "Interpreter",
                          "SymbolicTensor", "render_graph", "graph_to_dot",
                          "validate_graph", "matmul", "transpose", "loop"]),
            ("repro.passes", ["PassPipeline", "default_pipeline",
                              "aware_pipeline", "CommonSubexpressionElimination",
                              "ChainReordering", "PropertyDispatch",
                              "DistributivityRewrite", "PartialOperandAccess",
                              "LoopInvariantCodeMotion"]),
            ("repro.chain", ["optimal_parenthesization", "catalan",
                             "enumerate_parenthesizations", "evaluate_chain"]),
            ("repro.rewrite", ["Symbol", "MatMul", "Add", "Transpose", "Scale",
                               "Identity", "Zero", "expr_flops", "variants",
                               "best_variant", "DerivationGraph"]),
            ("repro.frameworks", ["tfsim", "pytsim", "CompiledFunction",
                                  "FrameworkProfile"]),
            ("repro.api", ["Session", "Options", "Compiled", "Concrete",
                           "FrameworkProfile", "backend", "register_backend",
                           "available_backends", "current_session",
                           "default_session", "SessionStats", "PlanStats"]),
            ("repro.runtime", ["Plan", "PlanCache", "CacheStats",
                               "compile_plan", "BatchResult",
                               "PinnedBinding", "graph_signature"]),
            ("repro.bench", ["measure", "bootstrap_compare", "TimingSample",
                             "ExperimentTable", "format_seconds"]),
        ],
    )
    def test_names_importable(self, module, names):
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_tfsim_api(self):
        from repro.frameworks import tfsim

        for name in ("function", "constant", "eye", "zeros", "matmul",
                     "transpose", "concat", "fori_loop", "linalg", "grappler"):
            assert hasattr(tfsim, name)
        assert hasattr(tfsim.linalg, "tridiagonal_matmul")

    def test_pytsim_api(self):
        from repro.frameworks import pytsim

        for name in ("jit", "tensor", "eye", "matmul", "t", "cat", "linalg"):
            assert hasattr(pytsim, name)
        assert hasattr(pytsim.linalg, "multi_dot")
        assert hasattr(pytsim.jit, "script")

    def test_version_is_semver(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_all_lists_are_accurate(self):
        """Every name in __all__ must actually exist."""
        for modname in ("repro", "repro.kernels", "repro.tensor", "repro.ir",
                        "repro.passes", "repro.chain", "repro.rewrite",
                        "repro.bench", "repro.frameworks", "repro.api",
                        "repro.runtime"):
            mod = importlib.import_module(modname)
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"{modname}.__all__ lists {name}"

    def test_docstrings_on_public_callables(self):
        """Every public callable in the kernel layer is documented."""
        import repro.kernels as k

        for name in k.__all__:
            obj = getattr(k, name)
            if callable(obj):
                assert obj.__doc__, f"repro.kernels.{name} lacks a docstring"


class TestBenchmarkProbeSurface:
    """``benchmarks/e2e/laab_e2e/layers.py`` attributes a call's time to
    layers by calling these runtime entry points with these keywords; a
    later collapse must not silently null the per-layer metrics."""

    @staticmethod
    def _params(fn):
        return inspect.signature(fn).parameters

    def _assert_keywords(self, fn, positional, keywords):
        params = self._params(fn)
        assert list(params)[:len(positional)] == positional
        for name in keywords:
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY, name

    def test_compile_and_cache(self):
        from repro.runtime import PlanCache, compile_plan

        self._assert_keywords(compile_plan, ["graph"], ["fusion"])
        self._assert_keywords(PlanCache.get, ["self", "graph"], ["fusion"])

    def test_plan_execution(self):
        from repro.runtime import PinnedBinding, Plan, PlanArena

        self._assert_keywords(Plan.execute, ["self", "feeds"],
                              ["record", "arena"])
        # Feeds bind by one rule; there is no mode to ask for.
        assert "donate" not in self._params(Plan.execute)
        assert list(self._params(Plan.new_arena)) == ["self"]
        assert list(self._params(Plan.bind_pinned)) == ["self", "feeds", "arena"]
        assert list(self._params(PinnedBinding.execute)) == ["self"]
        assert "slot_orders" in Plan.__slots__
        assert "bytes_copied" in PlanArena.__slots__

    def test_plan_store(self):
        from repro.runtime import PlanStore

        self._assert_keywords(
            PlanStore.trace_key, ["self", "graph"],
            ["backend", "pipeline", "fold_constants", "fusion"],
        )
        assert list(self._params(PlanStore.put_plan))[:2] == ["self", "plan"]
        assert list(self._params(PlanStore.put_alias))[:3] == [
            "self", "trace_key", "plan_key"
        ]
        assert list(self._params(PlanStore.load_graph))[:2] == [
            "self", "trace_key"
        ]

    def test_shard_pool(self):
        from repro.runtime import ShardPool

        self._assert_keywords(ShardPool.__init__, ["self", "plan"],
                              ["shards", "dtype"])
        assert list(self._params(ShardPool.run)) == ["self", "feed_sets"]

    def test_retired_entry_points_do_not_import(self):
        import repro.runtime

        for name in ("execute_batch", "default_plan_cache"):
            assert not hasattr(repro.runtime, name)
        with pytest.raises(ImportError):
            importlib.import_module("repro.runtime.persist")
        with pytest.raises(ImportError):
            importlib.import_module("repro.runtime.batch")
