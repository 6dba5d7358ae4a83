"""PlanCache and graph-signature correctness.

The satellite contract: two structurally identical graphs built
independently must collide in the cache; graphs differing only in a
property annotation or an attr (e.g. ``trans_a``) must not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.frameworks import pytsim, tfsim
from repro.ir import Graph, builder, trace
from repro.runtime import PlanCache, compile_plan, graph_signature
from repro.runtime.signature import signature_digest
from repro.tensor import random_general
from repro.tensor.properties import Property


def _inputs(n=8, dtype="float32"):
    a = builder.input_node((n, n), dtype, name="a")
    b = builder.input_node((n, n), dtype, name="b")
    return a, b


class TestGraphSignature:
    def test_independent_traces_collide(self, operands):
        """Same Python function, two traces → different node names/ids,
        same signature."""
        fn = lambda a, b: (a.T @ b).T @ (a.T @ b)  # noqa: E731
        g1 = trace(fn, [operands["A"], operands["B"]])
        g2 = trace(fn, [operands["A"], operands["B"]])
        assert g1 is not g2
        assert graph_signature(g1) == graph_signature(g2)

    def test_attr_difference_separates(self):
        a1, b1 = _inputs()
        a2, b2 = _inputs()
        g_plain = Graph([builder.matmul(a1, b1)], inputs=[a1, b1])
        g_trans = Graph(
            [builder.matmul(a2, b2, trans_a=True)], inputs=[a2, b2]
        )
        assert graph_signature(g_plain) != graph_signature(g_trans)

    def test_property_annotation_separates(self):
        n = 8
        plain = builder.input_node((n, n), "float32", name="p")
        annotated = builder.input_node(
            (n, n), "float32", name="p",
            props=frozenset({Property.SYMMETRIC}),
        )
        g1 = Graph([builder.matmul(plain, plain)], inputs=[plain])
        g2 = Graph([builder.matmul(annotated, annotated)], inputs=[annotated])
        assert graph_signature(g1) != graph_signature(g2)

    def test_shape_and_dtype_separate(self, operands):
        fn = lambda a: a @ a  # noqa: E731
        g1 = trace(fn, [operands["A"]])
        g2 = trace(fn, [random_general(8, seed=1)])
        assert graph_signature(g1) != graph_signature(g2)

    def test_const_payload_separates(self):
        a1, _ = _inputs()
        a2, _ = _inputs()
        c1 = builder.const(np.ones((8, 8), dtype=np.float32))
        c2 = builder.const(np.zeros((8, 8), dtype=np.float32))
        g1 = Graph([builder.add(a1, c1)], inputs=[a1])
        g2 = Graph([builder.add(a2, c2)], inputs=[a2])
        assert graph_signature(g1) != graph_signature(g2)

    def test_loop_bodies_compared_structurally(self, operands):
        """Bodies with equal op histograms but different wiring must not
        collide (a repr()-based key would)."""
        a, b = operands["A"], operands["B"]

        def make(body):
            def fn(p, q):
                return tfsim.fori_loop(2, body, tfsim.zeros(*p.shape), [p, q])

            return trace(fn, [a, b])

        g_ab = make(lambda i, acc, aa, bb: acc + aa @ bb)
        g_ba = make(lambda i, acc, aa, bb: acc + bb @ aa)
        g_ab2 = make(lambda i, acc, aa, bb: acc + aa @ bb)
        assert graph_signature(g_ab) != graph_signature(g_ba)
        assert graph_signature(g_ab) == graph_signature(g_ab2)

    def test_output_selection_separates(self):
        a, b = _inputs()
        prod = builder.matmul(a, b)
        total = builder.add(prod, prod)
        g_one = Graph([total], inputs=[a, b])
        g_two = Graph([prod, total], inputs=[a, b])
        assert graph_signature(g_one) != graph_signature(g_two)

    def test_signature_is_walked_once_per_graph(self, monkeypatch):
        """A graph never changes, so its signature is kept on it (loop
        bodies included): cache hits, ``contains`` and every other
        re-keying of the same graph object cost a hash, not a walk."""
        idx = builder.input_node((1, 1), name="i")
        x = builder.input_node((4, 4), name="x")
        c = builder.input_node((4, 4), name="c")
        body = Graph([builder.matmul(c, x)], inputs=[idx, x, c])
        a, b = _inputs(4)
        graph = Graph([builder.loop(body, a, [b], trip_count=2)], inputs=[a, b])
        cache = PlanCache()
        plan = cache.get(graph)
        sig = graph_signature(graph)

        def walked(self):
            raise AssertionError("the graph was walked again")

        monkeypatch.setattr(Graph, "topological", walked)
        assert graph_signature(graph) is sig
        assert graph_signature(body) is graph_signature(body)
        assert cache.get(graph) is plan
        assert cache.contains(graph)
        assert cache.stats.hits == 1


class TestSignatureDigest:
    """The digest the plan store names artifacts by must be stable
    across processes, i.e. independent of hash randomization."""

    @staticmethod
    def _graph(scale=2.0):
        ops = [random_general(8, seed=1), random_general(8, seed=2)]
        return trace(lambda a, b: scale * (a @ b) + a, ops)

    def test_equal_signatures_equal_digests(self):
        s1 = compile_plan(self._graph()).signature
        s2 = compile_plan(self._graph()).signature
        assert s1 == s2
        assert signature_digest(s1) == signature_digest(s2)

    def test_different_graphs_differ(self):
        s1 = compile_plan(self._graph(scale=2.0)).signature
        s2 = compile_plan(self._graph(scale=3.0)).signature
        assert signature_digest(s1) != signature_digest(s2)

    def test_frozenset_order_independent(self):
        # Property sets iterate in hash-randomized order; the digest must
        # not depend on it (this is what makes digests stable across
        # interpreter invocations).
        a = ("x", frozenset({Property.SPD, Property.SYMMETRIC,
                             Property.SQUARE}))
        b = ("x", frozenset({Property.SQUARE, Property.SYMMETRIC,
                             Property.SPD}))
        assert signature_digest(a) == signature_digest(b)


class TestPlanCache:
    def test_structural_hit(self, operands):
        cache = PlanCache(maxsize=8)
        fn = lambda a, b: a.T @ b + a.T @ b  # noqa: E731
        g1 = trace(fn, [operands["A"], operands["B"]])
        g2 = trace(fn, [operands["A"], operands["B"]])
        p1 = cache.get(g1)
        p2 = cache.get(g2)
        assert p1 is p2
        assert len(cache) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_attr_and_props_miss(self, operands):
        cache = PlanCache(maxsize=8)
        a1, b1 = _inputs()
        a2, b2 = _inputs()
        cache.get(Graph([builder.matmul(a1, b1)], inputs=[a1, b1]))
        cache.get(Graph([builder.matmul(a2, b2, trans_a=True)],
                        inputs=[a2, b2]))
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert len(cache) == 2

    def test_lru_eviction(self, operands):
        cache = PlanCache(maxsize=2)
        graphs = [
            trace(lambda a: a @ a, [random_general(n, seed=n)])
            for n in (4, 5, 6)
        ]
        for g in graphs:
            cache.get(g)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert not cache.contains(graphs[0])  # oldest evicted
        assert cache.contains(graphs[1]) and cache.contains(graphs[2])

    def test_lru_order_refreshed_by_hits(self):
        cache = PlanCache(maxsize=2)
        g4 = trace(lambda a: a @ a, [random_general(4, seed=1)])
        g5 = trace(lambda a: a @ a, [random_general(5, seed=1)])
        g6 = trace(lambda a: a @ a, [random_general(6, seed=1)])
        cache.get(g4)
        cache.get(g5)
        cache.get(g4)  # refresh g4 → g5 becomes LRU
        cache.get(g6)
        assert cache.contains(g4) and cache.contains(g6)
        assert not cache.contains(g5)

    def test_fold_constants_keys_separately(self):
        a, b = _inputs()
        g = Graph([builder.matmul(a, b)], inputs=[a, b])
        cache = PlanCache(maxsize=8)
        p1 = cache.get(g)
        p2 = cache.get(g, fold_constants=True)
        assert p1 is not p2
        assert len(cache) == 2

    def test_clear_resets(self):
        cache = PlanCache(maxsize=8)
        cache.get(trace(lambda a: a @ a, [random_general(4, seed=1)]))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestPlanCacheConcurrency:
    def test_same_signature_compiles_exactly_once(self, monkeypatch):
        """Two threads racing one signature must trigger a single compile
        (single-flight): the loser waits for the leader's plan instead of
        compiling a duplicate that gets thrown away."""
        import threading
        import time as _time

        from repro.runtime import cache as cache_module

        compile_calls = []
        real_compile = cache_module.compile_plan

        def slow_compile(graph, **kwargs):
            compile_calls.append(threading.get_ident())
            _time.sleep(0.05)  # widen the race window
            return real_compile(graph, **kwargs)

        monkeypatch.setattr(cache_module, "compile_plan", slow_compile)
        cache = PlanCache(maxsize=8)
        fn = lambda a: a @ a + a  # noqa: E731
        graphs = [trace(fn, [random_general(8, seed=1)]) for _ in range(2)]
        plans: list = [None, None]
        barrier = threading.Barrier(2)

        def worker(i):
            barrier.wait()
            plans[i] = cache.get(graphs[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(compile_calls) == 1
        assert plans[0] is plans[1]
        assert cache.stats.misses == 1  # misses == compiles performed
        assert cache.stats.hits == 1
        assert len(cache) == 1

    def test_failed_compile_releases_waiters(self, monkeypatch):
        """If the leading compile raises, waiters retry (electing a new
        leader) instead of deadlocking on the in-flight event."""
        import threading

        from repro.errors import GraphError
        from repro.runtime import cache as cache_module

        real_compile = cache_module.compile_plan
        calls = []

        def flaky_compile(graph, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise GraphError("injected failure")
            return real_compile(graph, **kwargs)

        monkeypatch.setattr(cache_module, "compile_plan", flaky_compile)
        cache = PlanCache(maxsize=8)
        g = trace(lambda a: a @ a, [random_general(8, seed=2)])
        with pytest.raises(GraphError):
            cache.get(g)
        plan = cache.get(g)  # retry succeeds, no stale in-flight entry
        assert plan is not None
        assert len(calls) == 2

    def test_clear_during_inflight_compile_stays_cleared(self, monkeypatch):
        """A compile that started before clear() must not publish into
        the cleared cache or corrupt its fresh counters."""
        import threading

        from repro.runtime import cache as cache_module

        real_compile = cache_module.compile_plan
        started = threading.Event()
        release = threading.Event()

        def gated_compile(graph, **kwargs):
            started.set()
            release.wait(timeout=5)
            return real_compile(graph, **kwargs)

        monkeypatch.setattr(cache_module, "compile_plan", gated_compile)
        cache = PlanCache(maxsize=8)
        g = trace(lambda a: a @ a, [random_general(8, seed=3)])
        plans = []
        t = threading.Thread(target=lambda: plans.append(cache.get(g)))
        t.start()
        started.wait(timeout=5)
        cache.clear()  # reset while the compile is in flight
        release.set()
        t.join()
        assert plans[0] is not None  # the caller still got its plan...
        assert len(cache) == 0  # ...but the cleared cache stayed empty
        assert cache.stats.misses == 0 and cache.stats.hits == 0
        monkeypatch.setattr(cache_module, "compile_plan", real_compile)
        cache.get(g)  # post-clear compile publishes normally
        assert len(cache) == 1
        assert cache.stats.misses == 1

    def test_many_threads_distinct_signatures_not_serialized(self):
        """Distinct keys compile concurrently (compile happens outside the
        lock); smoke-check correctness under churn."""
        import threading

        cache = PlanCache(maxsize=16)
        sizes = (4, 5, 6, 7)
        results: dict[int, object] = {}

        def worker(n):
            g = trace(lambda a: a @ a, [random_general(n, seed=n)])
            results[n] = cache.get(g)

        threads = [threading.Thread(target=worker, args=(n,)) for n in sizes]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == len(sizes)
        assert all(results[n] is not None for n in sizes)


class TestFrameworkIntegration:
    def test_same_expression_shares_plan_across_frameworks(self, operands):
        """tfsim and pytsim traces of one expression land on one plan in
        the process-wide cache — the cross-trace dedup the tentpole asks
        for."""

        @tfsim.function
        def f(a, b):
            return (a.T @ b).T @ (a.T @ b)

        @pytsim.jit.script
        def g(a, b):
            return (a.T @ b).T @ (a.T @ b)

        a, b = operands["A"], operands["B"]
        plan_tf = f.get_concrete(a, b).plan
        plan_pyt = g.get_concrete(a, b).plan
        assert plan_tf is plan_pyt

    def test_call_results_unchanged_by_cache_hits(self, operands):
        @tfsim.function
        def f(a, b):
            return a @ b

        a, b = operands["A"], operands["B"]
        first = f(a, b)
        second = f(a, b)
        assert first.numpy().tobytes() == second.numpy().tobytes()
        ref = a.numpy() @ b.numpy()
        np.testing.assert_allclose(first.numpy(), ref, rtol=1e-5)
