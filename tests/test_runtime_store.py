"""Persistent plan store: content addressing, warm starts, corruption.

Contracts under test (the PR-8 perf tentpole):

* **Bit identity** — a plan rebuilt from a store artifact produces
  outputs, FLOP reports and instructions identical to a fresh compile,
  through an arena or arena-less, both at the runtime layer
  (``put_plan``/``load_plan``) and through a cold ``Session``
  warm-starting from disk.
* **Accounting** — artifacts are content-addressed (re-put is a no-op),
  store hits/misses/writes and the plan cache's ``via_store`` channel
  keep ``misses`` meaning "cold compiles performed": a fully warm
  session shows ``misses == 0``.
* **mmap consts** — large const payloads leave the artifact body for
  ``.npy`` sidecars and come back as read-only memory maps, counted in
  ``bytes_mapped``.
* **Corruption robustness** — truncated artifacts, garbage bytes,
  missing sidecars, stale format versions and stale runtime
  fingerprints all degrade to a silent recompile (``corrupt_evicted``),
  never an exception out of a ``Session`` or a shard worker.
* **Warm-started shard workers** — ``ShardPool(store=...)`` workers
  rebuild their plan from the store (fork and spawn), report it via the
  ready handshake, and still run copy-free waves.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro import api
from repro.errors import GraphError
from repro.frameworks import tfsim
from repro.ir import trace
from repro.passes import default_pipeline
from repro.runtime import (
    PlanStore,
    ShardPool,
    compile_plan,
    graph_from_payload,
    graph_signature,
    graph_to_payload,
    runtime_fingerprint,
)
from repro.runtime.serialize import join_payload_consts, split_payload_consts
from repro.runtime.store import STORE_FORMAT_VERSION
from repro.tensor import random_general

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _traced(loops: int = 3):
    """A pre-optimization traced graph (what ``Session._build`` keys
    aliases by) plus its feed arrays."""
    ops = [random_general(16, seed=s) for s in (1, 2, 3)]

    def fn(a, b, c):
        acc = a
        for _ in range(loops):
            acc = (acc @ b + c - a) @ a.T
        return acc + acc.T

    return trace(fn, ops), [t.data for t in ops]


def _big_const_graph():
    """An optimized graph holding a 16 KiB const — above the default
    4 KiB sidecar threshold."""
    ops = [random_general(64, seed=7)]
    weight = (np.arange(64 * 64, dtype=np.float32) / 4096.0).reshape(64, 64)

    def fn(a):
        return a @ tfsim.constant(weight) + a

    return default_pipeline().run(trace(fn, ops)), [t.data for t in ops]


@pytest.fixture(scope="module")
def traced():
    return _traced()


@pytest.fixture(scope="module")
def optimized(traced):
    graph, feeds = traced
    return default_pipeline().run(graph), feeds


def _corrupt(path: str, blob: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(blob)


# -- fingerprint ---------------------------------------------------------------


class TestRuntimeFingerprint:
    def test_stable_within_process(self):
        assert runtime_fingerprint() == runtime_fingerprint()

    def test_is_a_hex_digest(self):
        fp = runtime_fingerprint()
        assert len(fp) == 40 and int(fp, 16) >= 0


# -- payload const splitting ---------------------------------------------------


class TestConstSplit:
    def test_large_const_leaves_payload(self):
        graph, _ = _big_const_graph()
        payload = graph_to_payload(graph)
        stripped, arrays = split_payload_consts(payload, 4096)
        assert len(arrays) == 1 and arrays[0].nbytes >= 4096
        assert b"ndarray_ref" in pickle.dumps(stripped)

    def test_small_consts_stay_inline(self):
        graph, _ = _big_const_graph()
        payload = graph_to_payload(graph)
        _, arrays = split_payload_consts(payload, 1 << 20)
        assert arrays == []

    def test_join_round_trip_parity(self):
        graph, feeds = _big_const_graph()
        payload = graph_to_payload(graph)
        stripped, arrays = split_payload_consts(payload, 4096)
        rebuilt = graph_from_payload(join_payload_consts(stripped, arrays))
        assert graph_signature(rebuilt) == graph_signature(graph)
        out_a, _ = compile_plan(graph).execute(feeds)
        out_b, _ = compile_plan(rebuilt).execute(feeds)
        assert np.array_equal(out_a[0], out_b[0])

    def test_dangling_ref_fails_loudly(self):
        graph, _ = _big_const_graph()
        stripped, arrays = split_payload_consts(
            graph_to_payload(graph), 4096
        )
        with pytest.raises(GraphError):
            join_payload_consts(stripped, [])  # ref with no array
        with pytest.raises(GraphError):
            graph_from_payload(stripped)  # refs never joined


# -- artifact round trips ------------------------------------------------------


class TestArtifactRoundTrip:
    @pytest.mark.parametrize("fold_constants", [False, True])
    @pytest.mark.parametrize("arena", [None, "preallocated"])
    def test_load_plan_parity_all_combos(
        self, tmp_path, optimized, fold_constants, arena
    ):
        graph, feeds = optimized
        fresh = compile_plan(graph, fold_constants=fold_constants)
        store = PlanStore(tmp_path)
        key = store.put_plan(fresh, cold_seconds=0.01)
        assert key is not None and store.stats.writes == 1

        reader = PlanStore(tmp_path)  # a different process, in spirit
        warm = reader.load_plan(key)
        assert warm is not None
        assert reader.stats.hits == 1 and reader.stats.misses == 0
        assert warm.signature == fresh.signature
        assert warm.describe() == fresh.describe()

        kw = {}
        if arena is not None:
            kw = {"arena_fresh": fresh.new_arena(),
                  "arena_warm": warm.new_arena()}
        out_a, rep_a = fresh.execute(
            feeds, **({"arena": kw["arena_fresh"]} if kw else {})
        )
        out_b, rep_b = warm.execute(
            feeds, **({"arena": kw["arena_warm"]} if kw else {})
        )
        for a, b in zip(out_a, out_b):
            assert np.array_equal(a, b)
        assert rep_a.total_flops == rep_b.total_flops
        assert rep_a.peak_bytes == rep_b.peak_bytes
        assert rep_a.calls == rep_b.calls

    def test_content_addressing_skips_existing(self, tmp_path, optimized):
        graph, _ = optimized
        plan = compile_plan(graph)
        store = PlanStore(tmp_path)
        key1 = store.put_plan(plan)
        key2 = store.put_plan(plan)
        assert key1 == key2
        assert store.stats.writes == 1
        plans, nbytes = store.disk_stats()
        assert plans == 1 and nbytes > 0

    def test_fold_constants_keys_separately(self, tmp_path, optimized):
        graph, _ = optimized
        store = PlanStore(tmp_path)
        k_plain = store.put_plan(compile_plan(graph))
        k_folded = store.put_plan(compile_plan(graph, fold_constants=True))
        assert k_plain != k_folded
        assert store.disk_stats()[0] == 2

    def test_alias_jump_returns_optimized_graph(
        self, tmp_path, traced, optimized
    ):
        raw, _ = traced
        graph, _ = optimized
        store = PlanStore(tmp_path)
        tkey = store.trace_key(
            raw, backend="tfsim", pipeline="default", fold_constants=False,
        )
        pkey = store.put_plan(compile_plan(graph))
        store.put_alias(tkey, pkey)
        store.put_alias(tkey, store.put_plan(compile_plan(graph)))
        assert store._load_alias(tkey) == pkey  # the first write wins

        reader = PlanStore(tmp_path)
        loaded = reader.load_graph(tkey)
        assert loaded is not None
        assert graph_signature(loaded) == graph_signature(graph)
        assert reader.stats.hits == 1

    def test_trace_key_varies_with_pipeline_identity(self, tmp_path, traced):
        raw, _ = traced
        store = PlanStore(tmp_path)
        base = dict(backend="tfsim", pipeline="default", fold_constants=False)
        keys = {
            store.trace_key(raw, **base),
            store.trace_key(raw, **{**base, "pipeline": "aware"}),
            store.trace_key(raw, **{**base, "backend": "pytsim"}),
            store.trace_key(raw, **{**base, "fold_constants": True}),
        }
        assert len(keys) == 4

    def test_miss_on_unknown_trace_key(self, tmp_path):
        store = PlanStore(tmp_path)
        assert store.load_graph("no-such-alias") is None
        assert store.stats.misses == 1 and store.stats.hits == 0

    def test_load_graph_arg_validation(self, tmp_path):
        store = PlanStore(tmp_path)
        with pytest.raises(TypeError):
            store.load_graph()
        with pytest.raises(TypeError):
            store.load_graph("a", plan_key="b")

    def test_hand_built_plan_not_persisted(self, tmp_path, optimized):
        from repro.runtime.plan import Plan

        graph, _ = optimized
        plan = compile_plan(graph)
        bare = Plan(
            instructions=plan.instructions,
            inputs=plan.inputs,
            output_slots=plan.output_slots,
            num_slots=plan.num_slots,
            signature=plan.signature,
        )
        store = PlanStore(tmp_path)
        assert bare.source is None
        assert store.put_plan(bare) is None
        assert store.stats.writes == 0


# -- mmap const sidecars -------------------------------------------------------


class TestMmapConsts:
    def test_sidecar_written_and_mapped_back(self, tmp_path):
        graph, feeds = _big_const_graph()
        store = PlanStore(tmp_path)
        key = store.put_plan(compile_plan(graph))
        sidecars = [
            n for n in os.listdir(tmp_path / "objects")
            if n.startswith(f"{key}.c") and n.endswith(".npy")
        ]
        assert len(sidecars) == 1

        reader = PlanStore(tmp_path)
        loaded = reader.load_graph(plan_key=key)
        assert loaded is not None
        assert reader.stats.bytes_mapped >= 64 * 64 * 4
        mapped = [
            v
            for node in loaded
            for v in node.attrs.values()
            if isinstance(v, np.memmap)
        ]
        assert mapped and not mapped[0].flags.writeable

    def test_mapped_plan_executes_with_parity(self, tmp_path):
        graph, feeds = _big_const_graph()
        store = PlanStore(tmp_path)
        key = store.put_plan(compile_plan(graph))
        warm = PlanStore(tmp_path).load_plan(key)
        out_a, _ = compile_plan(graph).execute(feeds)
        out_b, _ = warm.execute(feeds)
        assert np.array_equal(out_a[0], out_b[0])

    def test_threshold_is_tunable(self, tmp_path):
        graph, _ = _big_const_graph()
        store = PlanStore(tmp_path, mmap_threshold=1 << 24)
        key = store.put_plan(compile_plan(graph))
        names = os.listdir(tmp_path / "objects")
        assert names == [f"{key}.plan"]  # nothing crossed the bar
        assert PlanStore(tmp_path).load_graph(plan_key=key) is not None


# -- corruption robustness -----------------------------------------------------


class TestCorruption:
    def _stored(self, tmp_path):
        graph, feeds = _big_const_graph()
        store = PlanStore(tmp_path)
        key = store.put_plan(compile_plan(graph))
        return key, str(tmp_path / "objects" / f"{key}.plan")

    def test_truncated_artifact_evicted(self, tmp_path):
        key, path = self._stored(tmp_path)
        with open(path, "rb") as fh:
            head = fh.read(10)
        _corrupt(path, head)
        reader = PlanStore(tmp_path)
        assert reader.load_plan(key) is None
        assert reader.stats.corrupt_evicted == 1
        assert reader.stats.hits == 0
        assert not os.path.exists(path)  # evicted, next write recreates

    def test_garbage_bytes_evicted(self, tmp_path):
        key, path = self._stored(tmp_path)
        _corrupt(path, b"\x00not a pickle at all")
        reader = PlanStore(tmp_path)
        assert reader.load_graph(plan_key=key) is None
        assert reader.stats.corrupt_evicted == 1

    def test_missing_sidecar_evicted(self, tmp_path):
        key, path = self._stored(tmp_path)
        os.unlink(tmp_path / "objects" / f"{key}.c0.npy")
        reader = PlanStore(tmp_path)
        assert reader.load_plan(key) is None
        assert reader.stats.corrupt_evicted == 1
        assert not os.path.exists(path)

    # Format 2, whose aliases may name a rewrite gated bit-identical only
    # on its race feeds; format 3, whose keys and headers carry a kernel
    # fusion component; and a format no release writes (constants, so
    # the test ids do not move when STORE_FORMAT_VERSION is bumped).
    @pytest.mark.parametrize("field,value", [
        ("format", 2),
        ("format", 3),
        ("format", 1000),
        ("fingerprint", "f" * 40),
    ])
    def test_stale_header_evicted(self, tmp_path, field, value):
        assert (field, value) != ("format", STORE_FORMAT_VERSION)
        key, path = self._stored(tmp_path)
        with open(path, "rb") as fh:
            artifact = pickle.loads(fh.read())
        artifact[field] = value
        _corrupt(path, pickle.dumps(artifact))
        reader = PlanStore(tmp_path)
        assert reader.load_plan(key) is None
        assert reader.stats.corrupt_evicted == 1
        assert reader.stats.misses == 1

    def test_garbage_alias_dropped(self, tmp_path, optimized):
        graph, _ = optimized
        store = PlanStore(tmp_path)
        alias_path = tmp_path / "aliases" / "deadbeef"
        _corrupt(str(alias_path), b"{not json")
        assert store.load_graph("deadbeef") is None
        assert store.stats.corrupt_evicted == 1
        assert not alias_path.exists()  # next build rewrites it

    def test_alias_to_missing_artifact_is_a_miss(self, tmp_path):
        store = PlanStore(tmp_path)
        store.put_alias("orphan", "no-such-artifact-00")
        assert store.load_graph("orphan") is None
        assert store.stats.misses == 1
        assert store.stats.corrupt_evicted == 0


# -- Session integration -------------------------------------------------------


def _model(a, b, c):
    return (a @ b + c) @ a.T


class TestSessionWarmStart:
    @pytest.fixture()
    def feeds(self):
        return [random_general(16, seed=s) for s in (4, 5, 6)]

    def test_cold_then_warm_zero_compiles(self, tmp_path, feeds):
        cold = api.Session(plan_store=str(tmp_path))
        ref = cold.compile(_model)(*feeds)
        st = cold.stats()
        assert st.misses == 1          # one cold compile...
        assert st.store_misses >= 1    # ...after the store came up empty
        assert st.store_writes == 1
        cold.close()

        warm = api.Session(plan_store=str(tmp_path))
        out = warm.compile(_model)(*feeds)
        st = warm.stats()
        assert st.misses == 0          # the acceptance criterion
        assert st.store_hits == 1
        assert st.store_writes == 0
        assert np.array_equal(out.data, ref.data)
        warm.close()

    @pytest.mark.parametrize("fold_constants", [False, True])
    @pytest.mark.parametrize("reference", ["per-call", "preallocated"])
    def test_warm_session_parity_all_combos(self, tmp_path, feeds,
                                            fold_constants, reference):
        """A warm start answers like the cold session, and like the
        restored plan executed at plan level — arena-less
        (``"per-call"``) or through a fresh arena — with constant folding
        off and on."""
        opts = dict(fold_constants=fold_constants, plan_store=str(tmp_path))
        cold = api.Session(**opts)
        f = cold.compile(_model)
        ref = f(*feeds)
        ref_report = f.last_report
        ref_plan = f.get_concrete(*feeds).plan.describe()
        cold.close()

        warm = api.Session(**opts)
        g = warm.compile(_model)
        out = g(*feeds)
        st = warm.stats()
        assert st.misses == 0 and st.store_hits == 1
        assert np.array_equal(out.data, ref.data)
        assert g.last_report.total_flops == ref_report.total_flops
        assert g.last_report.peak_bytes == ref_report.peak_bytes
        assert g.last_report.calls == ref_report.calls
        plan = g.get_concrete(*feeds).plan
        assert plan.describe() == ref_plan
        arena = plan.new_arena() if reference == "preallocated" else None
        outs, report = plan.execute([t.data for t in feeds], arena=arena)
        assert np.array_equal(outs[0], out.data)
        assert report == g.last_report
        warm.close()

    def test_corrupt_store_never_crashes_session(self, tmp_path, feeds):
        cold = api.Session(plan_store=str(tmp_path))
        ref = cold.compile(_model)(*feeds)
        cold.close()
        for name in os.listdir(tmp_path / "objects"):
            _corrupt(str(tmp_path / "objects" / name), b"\xde\xad\xbe\xef")

        hurt = api.Session(plan_store=str(tmp_path))
        out = hurt.compile(_model)(*feeds)
        st = hurt.stats()
        assert np.array_equal(out.data, ref.data)
        assert st.misses == 1                   # silent recompile
        assert st.store_corrupt_evicted >= 1
        assert st.store_writes == 1             # artifact re-published
        hurt.close()

    def test_stats_render_has_plan_store_line(self, tmp_path, feeds):
        session = api.Session(plan_store=str(tmp_path))
        session.compile(_model)(*feeds)
        text = session.stats().render()
        assert "plan store:" in text and str(tmp_path) in text
        session.close()
        bare = api.Session()
        assert "plan store:" not in bare.stats().render()
        bare.close()


# -- shard-worker warm starts --------------------------------------------------


class TestShardWarmStart:
    @pytest.fixture(scope="class")
    def plan_and_feeds(self):
        graph, feeds = _traced()
        return compile_plan(default_pipeline().run(graph)), feeds

    @pytest.mark.skipif(not HAVE_FORK, reason="fork unavailable")
    def test_fork_workers_warm_start(self, tmp_path, plan_and_feeds):
        plan, feeds = plan_and_feeds
        ref, _ = plan.execute(feeds, record=False)
        # First pool populates the store; artifacts exist, so the next
        # pool's workers load instead of unpickling+recompiling.
        store = PlanStore(tmp_path)
        store.put_plan(plan)
        with ShardPool(plan, shards=2, dtype=np.float32,
                       store=PlanStore(tmp_path),
                       start_method="fork") as pool:
            assert pool.workers_warm_started == 2
            pool.run([feeds] * 8)
            result = pool.run([feeds] * 8)
            assert pool.bytes_copied_last_run == 0
            assert all(
                np.array_equal(o[0], ref[0]) for o in result.outputs
            )

    def test_spawn_workers_warm_start(self, tmp_path, plan_and_feeds):
        plan, feeds = plan_and_feeds
        ref, _ = plan.execute(feeds, record=False)
        store = PlanStore(tmp_path)
        store.put_plan(plan)
        with ShardPool(plan, shards=1, dtype=np.float32,
                       store=PlanStore(tmp_path),
                       start_method="spawn") as pool:
            assert pool.workers_warm_started == 1
            pool.run([feeds] * 4)
            result = pool.run([feeds] * 4)
            assert pool.bytes_copied_last_run == 0
            assert np.array_equal(result.outputs[0][0], ref[0])

    @pytest.mark.skipif(not HAVE_FORK, reason="fork unavailable")
    def test_corrupt_artifact_falls_back_to_blob(
        self, tmp_path, plan_and_feeds
    ):
        plan, feeds = plan_and_feeds
        ref, _ = plan.execute(feeds, record=False)
        store = PlanStore(tmp_path)
        key = store.plan_key(plan.signature, fold_constants=False)
        # Content addressing makes the pool's own put_plan skip the
        # existing (garbage) file — every worker's load fails and the
        # pickle-blob path must carry the pool.
        _corrupt(str(tmp_path / "objects" / f"{key}.plan"), b"garbage")
        with ShardPool(plan, shards=2, dtype=np.float32,
                       store=store, start_method="fork") as pool:
            assert pool.workers_warm_started == 0
            result = pool.run([feeds] * 4)
            assert all(
                np.array_equal(o[0], ref[0]) for o in result.outputs
            )


# -- serve-layer aggregation ---------------------------------------------------


class TestServerAggregation:
    def test_fleet_plan_store_stats(self, tmp_path):
        import asyncio

        from repro import serve

        feeds = [random_general(16, seed=s) for s in (1, 2, 3)]

        async def main():
            opts = api.Options(plan_store=str(tmp_path))
            async with serve.Server(opts) as server:
                await server.submit(_model, feeds, tenant="alice")
                await server.submit(_model, feeds, tenant="bob")
                stats = server.stats()
            assert stats.plan_store is not None
            assert stats.plan_store["tenants"] == 2
            # alice compiled cold and wrote; bob warm-started from her
            # artifact through his own session's store handle.
            assert stats.plan_store["writes"] == 1
            assert stats.plan_store["hits"] == 1
            assert "plan store (fleet):" in stats.render()

        asyncio.run(main())

    def test_no_store_no_fleet_line(self):
        import asyncio

        from repro import serve

        feeds = [random_general(16, seed=s) for s in (1, 2, 3)]

        async def main():
            async with serve.Server() as server:
                await server.submit(_model, feeds)
                stats = server.stats()
            assert stats.plan_store is None
            assert "plan store (fleet):" not in stats.render()

        asyncio.run(main())


# -- garbage collection (PR 10) ------------------------------------------------


def _age(path: str, seconds: float = 3600.0) -> None:
    """Push a file's atime *and* mtime past the GC grace window."""
    import time

    past = time.time() - seconds
    os.utime(path, (past, past))


class TestGC:
    """``PlanStore.gc``: orphan sweep, dangling aliases, LRU size cap."""

    def _obj(self, store, name):
        return os.path.join(store.root, "objects", name)

    def _alias(self, store, name):
        return os.path.join(store.root, "aliases", name)

    def test_stale_tmp_and_orphan_sidecars_removed(self, tmp_path, optimized):
        graph, _ = optimized
        store = PlanStore(tmp_path)
        key = store.put_plan(compile_plan(graph))
        for name in ("dead.plan.123.0.tmp", "deadbeef.c0.npy"):
            with open(self._obj(store, name), "wb") as fh:
                fh.write(b"x" * 64)
            _age(self._obj(store, name))
        stats = store.gc()
        assert stats.orphans_removed == 2
        assert stats.bytes_freed == 128
        assert not os.path.exists(self._obj(store, "dead.plan.123.0.tmp"))
        assert os.path.exists(self._obj(store, f"{key}.plan"))

    def test_grace_window_protects_fresh_files(self, tmp_path):
        store = PlanStore(tmp_path)
        # Fresh garbage — possibly a publish in flight — must survive.
        with open(self._obj(store, "inflight.c0.npy"), "wb") as fh:
            fh.write(b"x")
        store.put_alias("mid-publish", "not-yet-there")
        stats = store.gc()
        assert stats.orphans_removed == 0
        assert stats.aliases_swept == 0
        assert os.path.exists(self._obj(store, "inflight.c0.npy"))

    def test_dangling_and_garbage_aliases_swept(self, tmp_path, optimized):
        graph, _ = optimized
        store = PlanStore(tmp_path)
        key = store.put_plan(compile_plan(graph))
        store.put_alias("live", key)
        store.put_alias("dangling", "no-such-artifact")
        with open(self._alias(store, "garbage"), "wb") as fh:
            fh.write(b"\x80not json")
        for name in ("live", "dangling", "garbage"):
            _age(self._alias(store, name))
        stats = store.gc()
        assert stats.aliases_swept == 2
        assert os.path.exists(self._alias(store, "live"))
        assert not os.path.exists(self._alias(store, "dangling"))
        assert not os.path.exists(self._alias(store, "garbage"))

    def test_size_cap_evicts_lru_by_atime(self, tmp_path, traced, optimized):
        import time

        raw, _ = traced
        graph, _ = optimized
        store = PlanStore(tmp_path)
        keys = [
            store.put_plan(compile_plan(graph)),
            store.put_plan(compile_plan(raw)),
            store.put_plan(compile_plan(graph, fold_constants=True)),
        ]
        store.put_alias("hot-alias", keys[2])
        store.put_alias("cold-alias", keys[0])
        # Age everything past the grace window, with keys[2] the most
        # recently *accessed* (atime drives eviction order, not mtime).
        now = time.time()
        for i, key in enumerate(keys):
            path = self._obj(store, f"{key}.plan")
            os.utime(path, (now - 3600 + i, now - 3600))
        for name in ("hot-alias", "cold-alias"):
            _age(self._alias(store, name))
        keep = os.path.getsize(self._obj(store, f"{keys[2]}.plan"))
        stats = store.gc(max_bytes=keep)
        assert stats.artifacts_evicted == 2
        assert os.path.exists(self._obj(store, f"{keys[2]}.plan"))
        assert not os.path.exists(self._obj(store, f"{keys[0]}.plan"))
        assert not os.path.exists(self._obj(store, f"{keys[1]}.plan"))
        # Aliases of evicted artifacts went with them; the hot one stays.
        assert os.path.exists(self._alias(store, "hot-alias"))
        assert not os.path.exists(self._alias(store, "cold-alias"))
        assert stats.aliases_swept == 1
        assert stats.bytes_after <= stats.bytes_before

    def test_put_plan_auto_gcs_past_the_cap(self, tmp_path, optimized):
        graph, _ = optimized
        store = PlanStore(tmp_path, gc_grace_seconds=0.0)
        first = store.put_plan(compile_plan(graph))
        _age(self._obj(store, f"{first}.plan"))
        _, one_artifact = store.disk_stats()
        store.max_bytes = one_artifact
        second = store.put_plan(compile_plan(graph, fold_constants=True))
        plans, nbytes = store.disk_stats()
        assert plans == 1
        assert not os.path.exists(self._obj(store, f"{first}.plan"))
        assert os.path.exists(self._obj(store, f"{second}.plan"))

    def test_older_format_artifacts_and_aliases_evicted(
        self, tmp_path, optimized
    ):
        """A format-3 store spelled plan keys ``<digest>-00``: no current
        load asks for them, so only gc can reclaim them."""
        import json

        graph, _ = optimized
        store = PlanStore(tmp_path)
        key = store.put_plan(compile_plan(graph))
        store.put_alias("current", key)
        with open(self._obj(store, f"{key}.plan"), "rb") as fh:
            artifact = pickle.loads(fh.read())
        old_key = f"{key.rsplit('-', 1)[0]}-00"
        artifact.update(format=3, key=old_key)
        _corrupt(self._obj(store, f"{old_key}.plan"), pickle.dumps(artifact))
        _corrupt(self._alias(store, "format3"), json.dumps({
            "format": 3, "fingerprint": artifact["fingerprint"],
            "target": old_key,
        }).encode())
        # A current-format alias still pointing at the old artifact goes
        # with it; one in the current format but of an older fingerprint
        # goes although its target is current.
        store.put_alias("to-old", old_key)
        _corrupt(self._alias(store, "old-fingerprint"), json.dumps({
            "format": STORE_FORMAT_VERSION, "fingerprint": "f" * 40,
            "target": key,
        }).encode())
        stats = store.gc(grace_seconds=0)
        assert stats.artifacts_evicted == 1
        assert stats.aliases_swept == 3
        assert not os.path.exists(self._obj(store, f"{old_key}.plan"))
        for name in ("format3", "to-old", "old-fingerprint"):
            assert not os.path.exists(self._alias(store, name))
        assert os.path.exists(self._obj(store, f"{key}.plan"))
        assert os.path.exists(self._alias(store, "current"))
        assert store.load_graph("current") is not None

    def test_gc_stats_render(self, tmp_path):
        stats = PlanStore(tmp_path).gc()
        assert "store gc:" in stats.render()
        assert stats.artifacts_before == 0

    def test_sidecars_evicted_with_their_plan(self, tmp_path):
        graph, _ = _big_const_graph()
        store = PlanStore(tmp_path)
        key = store.put_plan(compile_plan(graph))
        sidecar = self._obj(store, f"{key}.c0.npy")
        assert os.path.exists(sidecar)
        for name in (f"{key}.plan", f"{key}.c0.npy"):
            _age(self._obj(store, name))
        stats = store.gc(max_bytes=0)
        assert stats.artifacts_evicted == 1
        assert not os.path.exists(sidecar)
        assert not os.path.exists(self._obj(store, f"{key}.plan"))
