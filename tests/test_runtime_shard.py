"""Multi-process sharded execution: ShardPool, graph serialization, and
plan pickling-by-reconstruction.

Contracts under test:

* :mod:`repro.runtime.serialize` round-trips a graph structurally —
  same :func:`graph_signature`, same execution results — including
  const payloads, property annotations, loop bodies and detached
  inputs; a corrupted payload fails loudly.
* ``pickle.dumps(plan)`` reconstructs an equivalent plan (recompiled
  from the graph payload) — the mechanism shard workers rely on.
* :class:`~repro.runtime.ShardPool` produces bit-identical outputs to
  in-process execution across waves and worker counts, with **zero**
  worker-side staged bytes in steady state.
* Failure paths: a mid-batch worker exception surfaces as
  :class:`ShardWorkerError` while the pool stays usable; a *dead*
  worker either breaks the pool (default) or is respawned
  (``respawn=True``); shared-memory segments are always unlinked —
  close, GC, and broken-pool paths alike (so ``pytest -x`` reruns never
  trip over leftovers).
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle
import signal

import numpy as np
import pytest

from repro import api, faults
from repro.errors import ConfigError, GraphError
from repro.frameworks import tfsim
from repro.ir import trace
from repro.passes import default_pipeline
from repro.runtime import (
    ShardPool,
    ShardWorkerError,
    compile_plan,
    graph_from_payload,
    graph_to_payload,
    graph_signature,
)
from repro.tensor import Property, random_general, random_spd, random_vector

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture
def fault_plan():
    """Install a fault plan for one test; always deactivated afterwards."""
    yield faults.install
    faults.clear()


def _workload(loops: int = 4):
    ops = [random_general(16, seed=s) for s in (1, 2, 3)]

    def fn(a, b, c):
        acc = a
        for _ in range(loops):
            acc = (acc @ b + c - a) @ a.T
        return acc + acc.T

    graph = default_pipeline().run(trace(fn, ops))
    return graph, [t.data for t in ops]


@pytest.fixture(scope="module")
def workload():
    return _workload()


@pytest.fixture(scope="module")
def plan(workload):
    graph, _ = workload
    return compile_plan(graph)


# -- serialization ------------------------------------------------------------


class TestGraphSerialization:
    def test_round_trip_signature_and_results(self, workload):
        graph, feeds = workload
        rebuilt = graph_from_payload(graph_to_payload(graph))
        assert graph_signature(rebuilt) == graph_signature(graph)
        out_a, _ = compile_plan(graph).execute(feeds)
        out_b, _ = compile_plan(rebuilt).execute(feeds)
        for a, b in zip(out_a, out_b):
            assert np.array_equal(a, b)

    def test_round_trip_const_and_props(self):
        a = random_spd(8, seed=3)
        v = random_vector(8, seed=4)

        def fn(m, x):
            return m @ x + tfsim.constant(np.ones((8, 1), dtype=np.float32))

        graph = default_pipeline().run(trace(fn, [a, v]))
        rebuilt = graph_from_payload(graph_to_payload(graph))
        assert graph_signature(rebuilt) == graph_signature(graph)
        # Property annotations survive (they live in input attrs).
        assert any(
            Property.SPD in n.attrs.get("props", frozenset())
            for n in rebuilt.inputs
        )

    def test_round_trip_loop_body(self):
        a = random_general(8, seed=1)
        v = random_vector(8, seed=2)

        def fn(p, q):
            return tfsim.fori_loop(3, lambda i, x, aa: 0.5 * (aa @ x), q, [p])

        graph = default_pipeline().run(trace(fn, [a, v]))
        rebuilt = graph_from_payload(graph_to_payload(graph))
        assert graph_signature(rebuilt) == graph_signature(graph)
        feeds = [a.data, v.data]
        out_a, _ = compile_plan(graph).execute(feeds)
        out_b, _ = compile_plan(rebuilt).execute(feeds)
        assert np.array_equal(out_a[0], out_b[0])

    def test_version_mismatch_rejected(self, workload):
        graph, _ = workload
        payload = graph_to_payload(graph)
        payload["version"] = 999
        with pytest.raises(GraphError, match="version"):
            graph_from_payload(payload)

    def test_detached_input_keeps_feed_slot(self):
        ops = [random_general(8, seed=1), random_general(8, seed=2)]
        graph = default_pipeline().run(trace(lambda a, b: a @ a, ops))
        rebuilt = graph_from_payload(graph_to_payload(graph))
        assert len(rebuilt.inputs) == len(graph.inputs) == 2
        out_a, _ = compile_plan(graph).execute([t.data for t in ops])
        out_b, _ = compile_plan(rebuilt).execute([t.data for t in ops])
        assert np.array_equal(out_a[0], out_b[0])


class TestPlanPickling:
    def test_pickle_round_trip_parity(self, plan, workload):
        _, feeds = workload
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.signature == plan.signature
        assert clone.describe() == plan.describe()
        out_a, _ = plan.execute(feeds)
        out_b, _ = clone.execute(feeds)
        for a, b in zip(out_a, out_b):
            assert np.array_equal(a, b)

    def test_hand_built_plan_refuses_pickle(self, plan):
        from repro.runtime.plan import Plan

        bare = Plan(
            instructions=plan.instructions,
            inputs=plan.inputs,
            output_slots=plan.output_slots,
            num_slots=plan.num_slots,
            signature=plan.signature,
        )
        with pytest.raises(TypeError, match="cannot be pickled"):
            pickle.dumps(bare)


# -- the pool -----------------------------------------------------------------


class TestShardPool:
    def test_outputs_match_in_process_execution(self, plan, workload):
        _, feeds = workload
        ref, _ = plan.execute(feeds, record=False)
        with ShardPool(plan, shards=2, ring_slots=4,
                       dtype=np.float32) as pool:
            # 11 feeds over 2 workers with ring 4 → multiple waves, odd
            # remainder chunk.
            result = pool.run([feeds] * 11)
            assert len(result) == 11
            for outs in result.outputs:
                assert np.array_equal(outs[0], ref[0])

    def test_zero_worker_bytes_in_steady_state(self, plan, workload):
        _, feeds = workload
        with ShardPool(plan, shards=2, ring_slots=4,
                       dtype=np.float32) as pool:
            pool.run([feeds] * 8)  # warmup: const staging may copy once
            pool.run([feeds] * 8)
            assert pool.bytes_copied_last_run == 0

    def test_empty_batch(self, plan):
        with ShardPool(plan, shards=2, dtype=np.float32) as pool:
            result = pool.run([])
            assert len(result) == 0

    def test_feed_shape_checked_in_parent(self, plan, workload):
        _, feeds = workload
        with ShardPool(plan, shards=1, dtype=np.float32) as pool:
            bad = [feeds[0], feeds[1], np.ones((3, 3), dtype=np.float32)]
            with pytest.raises(GraphError, match="shape"):
                pool.run([bad])

    def test_shard_count_validated(self, plan):
        with pytest.raises(GraphError, match="shards"):
            ShardPool(plan, shards=0)

    def test_closed_pool_rejects_runs_and_close_is_idempotent(
        self, plan, workload
    ):
        _, feeds = workload
        pool = ShardPool(plan, shards=1, dtype=np.float32)
        pool.run([feeds])
        pool.close()
        pool.close()
        with pytest.raises(ShardWorkerError, match="closed"):
            pool.run([feeds])

    def test_shared_memory_unlinked_on_close(self, plan, workload):
        from multiprocessing import shared_memory

        _, feeds = workload
        pool = ShardPool(plan, shards=2, dtype=np.float32)
        pool.run([feeds] * 2)
        names = [shm.name for shm in pool._shms]
        pool.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_shared_memory_unlinked_on_gc(self, plan, workload):
        from multiprocessing import shared_memory

        _, feeds = workload
        pool = ShardPool(plan, shards=1, dtype=np.float32)
        pool.run([feeds])
        names = [shm.name for shm in pool._shms]
        del pool
        gc.collect()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestWorkerFailure:
    def test_worker_death_breaks_pool_by_default(self, plan, workload):
        _, feeds = workload
        with ShardPool(plan, shards=2, dtype=np.float32) as pool:
            pool.run([feeds] * 4)
            pool._procs[0].kill()
            pool._procs[0].join()
            with pytest.raises(ShardWorkerError, match="died") as ei:
                pool.run([feeds] * 4)
            # Structured fields, not just a formatted string.
            assert ei.value.cause == "crash"
            assert ei.value.worker == 0
            assert ei.value.exitcode == -signal.SIGKILL
            # Broken is sticky: no half-working pools.
            with pytest.raises(ShardWorkerError, match="broken"):
                pool.run([feeds] * 4)

    def test_worker_death_respawns_when_asked(self, plan, workload):
        _, feeds = workload
        ref, _ = plan.execute(feeds, record=False)
        with ShardPool(plan, shards=2, dtype=np.float32,
                       respawn=True) as pool:
            pool.run([feeds] * 4)
            pool._procs[1].kill()
            pool._procs[1].join()
            result = pool.run([feeds] * 4)
            assert all(np.array_equal(o[0], ref[0]) for o in result.outputs)
            # Health counters record the recovery.
            assert pool.respawns == 1
            assert pool.waves_replayed == 1
            assert pool.hangs_detected == 0
            # Same pool keeps serving afterwards.
            result = pool.run([feeds] * 6)
            assert len(result) == 6

    def test_broken_pool_still_unlinks_shared_memory(self, plan, workload):
        from multiprocessing import shared_memory

        _, feeds = workload
        pool = ShardPool(plan, shards=1, dtype=np.float32)
        pool.run([feeds])
        names = [shm.name for shm in pool._shms]
        pool._procs[0].kill()
        pool._procs[0].join()
        with pytest.raises(ShardWorkerError):
            pool.run([feeds])
        pool.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_parent_side_feed_error_mid_wave_keeps_pool_aligned(
        self, plan, workload
    ):
        # Worker 0's chunk is written and dispatched before worker 1's
        # feeds fail validation in the parent: the in-flight reply must
        # be drained, or the next run() would read stale waves.
        _, feeds = workload
        ref, _ = plan.execute(feeds, record=False)
        with ShardPool(plan, shards=2, dtype=np.float32) as pool:
            bad = [feeds[0], feeds[1],
                   np.ones((3, 3), dtype=np.float32)]
            with pytest.raises(GraphError, match="shape"):
                pool.run([feeds, feeds, bad, feeds])
            for _ in range(2):  # aligned and correct afterwards
                result = pool.run([feeds] * 4)
                assert all(
                    np.array_equal(o[0], ref[0]) for o in result.outputs
                )

    @pytest.mark.skipif(not HAVE_FORK, reason="fork keeps these fast")
    def test_multi_shard_exception_drains_all_replies(
        self, fault_plan, workload
    ):
        graph, feeds = workload
        plan = compile_plan(graph)
        ref, _ = plan.execute(feeds, record=False)

        # Each worker raises InjectedFault on its second ring entry.
        fault_plan("worker.exec:error@2")
        with ShardPool(plan, shards=2, start_method="fork",
                       dtype=np.float32) as pool:
            # Both workers serve 2 items and fault on their second:
            # both error replies must be consumed (first one raised).
            with pytest.raises(ShardWorkerError, match="injected fault") \
                    as ei:
                pool.run([feeds] * 4)
            assert ei.value.cause == "exec"
            assert ei.value.exitcode is None  # worker survived
            # One item per worker stays under the faulting hit — the
            # pool is still wave-aligned and serves correct results.
            result = pool.run([feeds] * 2)
            assert all(
                np.array_equal(o[0], ref[0]) for o in result.outputs
            )

    @pytest.mark.skipif(not HAVE_FORK, reason="fork keeps these fast")
    def test_mid_batch_exception_reports_and_pool_survives(
        self, fault_plan, workload
    ):
        graph, feeds = workload
        plan = compile_plan(graph)

        # The worker's second ring entry explodes inside the worker.
        fault_plan("worker.exec:error@2")
        with ShardPool(plan, shards=1, start_method="fork",
                       dtype=np.float32) as pool:
            with pytest.raises(ShardWorkerError, match="injected fault"):
                pool.run([feeds] * 3)
            # The worker caught the exception and kept its loop: later
            # hits fall outside the fault's trigger window and serve.
            result = pool.run([feeds])
            assert len(result) == 1

    @pytest.mark.skipif(not HAVE_FORK, reason="fork keeps these fast")
    def test_hung_worker_detected_and_kill_escalated(
        self, fault_plan, workload
    ):
        # The hang action ignores SIGTERM, so plain terminate() leaves a
        # live process — this exercises the terminate→kill escalation
        # and the full detect/kill/respawn/replay cycle.  The trigger
        # fires on exec hit 3 (second run): the replayed wave's fresh
        # worker counts 1..2 and stays under it.
        graph, feeds = workload
        plan = compile_plan(graph)
        ref, _ = plan.execute(feeds, record=False)
        fault_plan("worker.exec:hang(60)@3")
        with ShardPool(plan, shards=1, start_method="fork",
                       dtype=np.float32, respawn=True,
                       wave_deadline=0.5) as pool:
            pool.run([feeds] * 2)
            hung = pool._procs[0]
            result = pool.run([feeds] * 2)
            assert all(
                np.array_equal(o[0], ref[0]) for o in result.outputs
            )
            assert pool.hangs_detected == 1
            assert pool.respawns == 1
            assert pool.waves_replayed == 1
            # terminate() was ignored; only the kill escalation reaped it.
            assert not hung.is_alive()
            assert hung.exitcode == -signal.SIGKILL

    @pytest.mark.skipif(not HAVE_FORK, reason="fork keeps these fast")
    def test_hang_without_respawn_breaks_pool_with_cause(
        self, fault_plan, workload
    ):
        graph, feeds = workload
        plan = compile_plan(graph)
        fault_plan("worker.exec:hang(60)@1")
        with ShardPool(plan, shards=1, start_method="fork",
                       dtype=np.float32, wave_deadline=0.5) as pool:
            with pytest.raises(ShardWorkerError, match="hung") as ei:
                pool.run([feeds])
            assert ei.value.cause == "hang"
            assert ei.value.worker == 0
            assert ei.value.exitcode == -signal.SIGKILL
            with pytest.raises(ShardWorkerError, match="broken"):
                pool.run([feeds])

    @pytest.mark.skipif(not HAVE_FORK, reason="fork keeps these fast")
    def test_corrupt_reply_recovers_via_respawn(self, fault_plan, workload):
        # A garbled wave reply (pipe.send corruption in the worker) is
        # classified "protocol"; the worker is reaped and the wave
        # replayed on a replacement with correct results.
        graph, feeds = workload
        plan = compile_plan(graph)
        ref, _ = plan.execute(feeds, record=False)
        fault_plan("pipe.send:corrupt@2")
        with ShardPool(plan, shards=1, start_method="fork",
                       dtype=np.float32, respawn=True) as pool:
            pool.run([feeds])
            result = pool.run([feeds])
            assert np.array_equal(result.outputs[0][0], ref[0])
            assert pool.respawns == 1
            assert pool.waves_replayed == 1


# -- session integration ------------------------------------------------------


class TestSessionSharding:
    def test_options_validation(self):
        with pytest.raises(ConfigError, match="shards"):
            api.Options(shards=0).validate()
        api.Options(shards=2).validate()

    def test_run_sharded_matches_run_batch(self):
        A, B, C = (random_general(16, seed=s) for s in (1, 2, 3))

        def fn(a, b, c):
            return (a @ b + c) @ a.T

        with api.Session() as s:
            f = s.compile(fn)
            ref = s.run_batch(f, [[A, B, C]] * 5)
            sharded = s.run_sharded(f, [[A, B, C]] * 5, shards=2)
            for r, sh in zip(ref.outputs, sharded.outputs):
                assert np.array_equal(r[0], sh[0])

    def test_sharded_batches_report_like_in_process_ones(self, fault_plan):
        """``BatchResult.reports`` is the plan's report once per feed set
        whichever path ran the batch — the in-process loop, the shard
        pool, or its inline fallback after a worker died — so
        ``total_flops`` agrees across the three."""
        A, B, C = (random_general(16, seed=s) for s in (1, 2, 3))

        def fn(a, b, c):
            return (a @ b + c) @ a.T

        paths = ({}, {"shards": 2},
                 {"shards": 2, "shard_fallback": "inline",
                  "faults": "worker.exec:crash@1w0"})
        flops = []
        for opts in paths:
            with api.Session(**opts) as s:
                f = s.compile(fn)
                batch = s.run_batch(f, [[A, B, C]] * 4)
                report = f.get_concrete(A, B, C).plan.report
                fallbacks = s.stats().shard_fallback_runs
            assert all(r == report for r in batch.reports)
            flops.append(batch.total_flops)
        assert fallbacks == 1
        assert flops == [4 * report.total_flops] * 3 and flops[0] > 0

    def test_options_shards_routes_run_batch_and_caches_pool(self):
        A, B, C = (random_general(16, seed=s) for s in (4, 5, 6))

        def fn(a, b, c):
            return a @ b - c

        with api.Session(shards=2) as s:
            f = s.compile(fn)
            s.run_batch(f, [[A, B, C]] * 3)
            assert len(s._shard_pools) == 1
            pool = next(iter(s._shard_pools.values()))
            s.run_batch(f, [[A, B, C]] * 3)
            assert next(iter(s._shard_pools.values())) is pool
        # Context exit reclaimed the workers and segments.
        assert pool._closed

    def test_pool_cache_is_bounded_and_evicts_closed(self, monkeypatch):
        from repro.api import session as session_module

        monkeypatch.setattr(session_module, "_MAX_SHARD_POOLS", 1)
        A, B = random_general(8, seed=1), random_general(8, seed=2)
        with api.Session(shards=2) as s:
            f1 = s.compile(lambda a, b: a @ b)
            f2 = s.compile(lambda a, b: a @ b + a)
            s.run_batch(f1, [[A, B]] * 2)
            first = next(iter(s._shard_pools.values()))
            s.run_batch(f2, [[A, B]] * 2)
            # The LRU bound evicted (and closed) the first plan's pool.
            assert len(s._shard_pools) == 1
            assert first._closed
            assert next(iter(s._shard_pools.values())) is not first


class TestSessionCloseLifecycle:
    """A Session is single-lifetime: close tears down shard pools and
    run_sharded on a closed session fails loudly at entry."""

    def _session_and_fn(self):
        A, B = random_general(8, seed=1), random_general(8, seed=2)
        s = api.Session(shards=2)
        return s, s.compile(lambda a, b: a @ b), [[A, B]] * 3

    def test_run_sharded_after_close_raises(self):
        s, f, feed_sets = self._session_and_fn()
        with s:
            s.run_batch(f, feed_sets)
        with pytest.raises(RuntimeError, match="session closed"):
            s.run_sharded(f, feed_sets, shards=2)

    def test_run_sharded_after_explicit_close_raises(self):
        s, f, feed_sets = self._session_and_fn()
        s.run_batch(f, feed_sets)
        s.close()
        with pytest.raises(RuntimeError, match="session closed"):
            s.run_batch(f, feed_sets)  # routes to run_sharded

    def test_close_and_close_shard_pools_are_idempotent(self):
        s, f, feed_sets = self._session_and_fn()
        s.run_batch(f, feed_sets)
        pool = next(iter(s._shard_pools.values()))
        s.close_shard_pools()
        s.close_shard_pools()  # second call is a no-op, not an error
        s.close()
        s.close()
        assert pool._closed
        assert s.closed
        assert not s._shard_pools

    def test_reentering_closed_session_raises(self):
        s, _, _ = self._session_and_fn()
        with s:
            pass
        with pytest.raises(RuntimeError, match="session closed"):
            with s:
                pass  # pragma: no cover

    def test_stats_render_sharding_line(self):
        s, f, feed_sets = self._session_and_fn()
        with s:
            s.run_batch(f, feed_sets)
            st = s.stats()
            assert st.shard_pools_open == 1
            assert st.shard_workers == 2
            assert st.shard_waves_served >= 1
            text = st.render()
            assert "sharding: 1 pool(s) open" in text
            assert "2 worker process(es)" in text
            assert "wave(s) served" in text
        # After close the pools are gone but served waves are remembered.
        st = s.stats()
        assert st.shard_pools_open == 0
        assert st.shard_waves_served >= 1

    def test_unsharded_session_stats_omit_sharding_line(self):
        A, B = random_general(8, seed=1), random_general(8, seed=2)
        with api.Session() as s:
            f = s.compile(lambda a, b: a @ b)
            f(A, B)
            assert "sharding:" not in s.stats().render()
