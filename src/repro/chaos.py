"""Scripted recovery drills: the ``laab chaos`` harness.

:mod:`repro.faults` can make any wired site misbehave; this module turns
that into a *verdict*.  :func:`chaos_run` executes a fixed schedule of
fault scenarios — worker crash, SIGTERM-ignoring hang, garbled wave
reply, in-worker exception, serve-dispatch failure, torn store artifact,
mid-run pool loss with inline fallback — against one known workload and
checks, for every phase, the only two outcomes robustness allows:

* **bit-correct answers** (``np.array_equal`` against the in-process
  reference — no silently wrong results after a recovery), or
* a **typed error** (:class:`~repro.runtime.ShardWorkerError`,
  :class:`~repro.faults.InjectedFault`, …) — never a hang, never a
  garbage value.

Each phase also audits for leaks: after its pool closes, every
shared-memory segment must be unlinked and every worker process dead.
Schedules are deterministic — trigger counts are chosen so a replayed
wave on a fresh worker (whose per-process hit counters restart at zero)
stays under the trigger, so each fault fires exactly once per run.

Entry points: :func:`chaos_run` (the test suite), ``laab chaos`` (CI
smoke, exit code ``0`` iff every phase passes).
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time

import numpy as np

from . import faults
from .ir import trace
from .passes import default_pipeline
from .runtime import ShardPool, ShardWorkerError, compile_plan
from .runtime.store import PlanStore
from .tensor import random_general

__all__ = ["ChaosPhase", "ChaosReport", "chaos_run"]


@dataclasses.dataclass
class ChaosPhase:
    """Outcome of one scripted fault scenario."""

    name: str
    ok: bool
    detail: str
    seconds: float = 0.0
    hangs: int = 0
    respawns: int = 0
    waves_replayed: int = 0


@dataclasses.dataclass
class ChaosReport:
    """All phases of one :func:`chaos_run`, plus the run parameters."""

    phases: list
    shards: int
    feeds: int
    start_method: str

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.phases)

    def render(self) -> str:
        lines = [
            f"== chaos drill ({self.shards} shard(s), {self.feeds} feeds/"
            f"round, start_method={self.start_method}) ==",
        ]
        for p in self.phases:
            status = "PASS" if p.ok else "FAIL"
            counters = ""
            if p.hangs or p.respawns or p.waves_replayed:
                counters = (
                    f"  [hangs={p.hangs} respawns={p.respawns} "
                    f"replayed={p.waves_replayed}]"
                )
            lines.append(
                f"  {status}  {p.name:<14} {p.seconds:6.2f}s  "
                f"{p.detail}{counters}"
            )
        passed = sum(1 for p in self.phases if p.ok)
        lines.append(
            f"  {passed}/{len(self.phases)} phase(s) passed — "
            + ("no lost or wrong answers" if self.ok else "FAULTS SURVIVED")
        )
        return "\n".join(lines)


def _workload(n: int, loops: int):
    ops = [random_general(n, seed=s) for s in (11, 12, 13)]

    def fn(a, b, c):
        acc = a
        for _ in range(loops):
            acc = (acc @ b + c - a) @ a.T
        return acc + acc.T

    graph = default_pipeline().run(trace(fn, ops))
    return graph, [t.data for t in ops]


def _leaks(pool) -> list:
    """Post-close audit: every segment unlinked, every worker dead."""
    from multiprocessing import shared_memory

    problems = []
    for shm in pool._shms:
        try:
            leaked = shared_memory.SharedMemory(name=shm.name)
        except FileNotFoundError:
            continue
        leaked.close()
        problems.append(f"shm {shm.name} still linked")
    for w, proc in enumerate(pool._procs):
        if proc.is_alive():
            proc.kill()
            proc.join()
            problems.append(f"worker {w} still alive")
    return problems


def _verify(result, ref) -> "str | None":
    for i, outs in enumerate(result.outputs):
        for out, want in zip(outs, ref):
            if not np.array_equal(out, want):
                return f"output {i} diverged from the in-process reference"
    return None


def chaos_run(
    *,
    shards: int = 2,
    feeds: int = 8,
    loops: int = 4,
    n: int = 16,
    ring_slots: "int | None" = None,
    wave_deadline: float = 1.0,
    hang_seconds: float = 30.0,
    start_method: "str | None" = None,
) -> ChaosReport:
    """Run every scripted fault scenario once; see the module docstring.

    ``feeds`` must divide evenly over ``shards`` with the per-worker
    chunk fitting one ring wave — the schedules assume each worker
    serves exactly one wave of ``feeds // shards`` entries per round, so
    trigger counts are exact.
    """
    if feeds % shards != 0:
        raise ValueError(f"feeds ({feeds}) must be divisible by shards "
                         f"({shards})")
    per_worker = feeds // shards
    if ring_slots is None:
        ring_slots = per_worker
    if per_worker > ring_slots:
        raise ValueError(
            f"feeds/shards ({per_worker}) must fit one ring wave "
            f"({ring_slots} slots)"
        )
    if start_method is None:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else methods[0]

    graph, feed_list = _workload(n, loops)
    plan = compile_plan(graph)
    ref, _ = plan.execute(feed_list, record=False)
    feed_sets = [feed_list] * feeds

    phases = []

    def run_phase(name, fn):
        faults.clear()
        start = time.perf_counter()
        try:
            phase = fn()
        except Exception as exc:  # a drill must never take the suite down
            phase = ChaosPhase(
                name, False, f"unexpected {type(exc).__name__}: {exc}"
            )
        finally:
            faults.clear()
        phase.seconds = time.perf_counter() - start
        phases.append(phase)

    def pool_kwargs(**extra):
        kw = dict(shards=shards, ring_slots=ring_slots, dtype=np.float32,
                  start_method=start_method)
        kw.update(extra)
        return kw

    def finish(name, pool, detail, *, wrong=None, want=(0, 0, 0)):
        counters = (pool.hangs_detected, pool.respawns, pool.waves_replayed)
        pool.close()
        problems = _leaks(pool)
        if wrong:
            problems.insert(0, wrong)
        if want is not None and counters != want:
            problems.append(f"health counters {counters}, expected {want}")
        ok = not problems
        return ChaosPhase(
            name, ok, detail if ok else "; ".join(problems),
            hangs=counters[0], respawns=counters[1],
            waves_replayed=counters[2],
        )

    # -- phase 1: no faults — the drill's own plumbing is sound ----------------
    def phase_clean():
        pool = ShardPool(plan, **pool_kwargs())
        wrong = _verify(pool.run(feed_sets), ref) \
            or _verify(pool.run(feed_sets), ref)
        return finish("clean", pool, "2 rounds bit-correct, zero recoveries",
                      wrong=wrong)

    # -- phase 2: parent-side SIGKILL between rounds (crash recovery) ----------
    def phase_crash():
        pool = ShardPool(plan, **pool_kwargs(respawn=True))
        wrong = _verify(pool.run(feed_sets), ref)
        pool._procs[0].kill()
        pool._procs[0].join()
        wrong = wrong or _verify(pool.run(feed_sets), ref)
        return finish("crash", pool,
                      "killed worker respawned, wave replayed bit-correct",
                      wrong=wrong, want=(0, 1, 1))

    # -- phase 3: SIGTERM-ignoring hang → deadline, kill escalation, replay ----
    def phase_hang():
        # Worker 0's counter reaches per_worker in round 1; its first
        # entry of round 2 is hit per_worker+1 → hang.  The replayed
        # wave's fresh worker counts 1..per_worker and stays under it.
        faults.install(
            f"worker.exec:hang({hang_seconds:g})@{per_worker + 1}w0"
        )
        pool = ShardPool(plan, **pool_kwargs(
            respawn=True, wave_deadline=wave_deadline))
        wrong = _verify(pool.run(feed_sets), ref)
        hung = pool._procs[0]
        wrong = wrong or _verify(pool.run(feed_sets), ref)
        if not wrong and hung.is_alive():
            wrong = "hung worker still alive after recovery"
        return finish("hang", pool,
                      "hung worker killed after deadline, replay bit-correct",
                      wrong=wrong, want=(1, 1, 1))

    # -- phase 4: garbled wave reply (protocol) → reap, respawn, replay --------
    def phase_protocol():
        faults.install("pipe.send:corrupt@2w0")
        pool = ShardPool(plan, **pool_kwargs(respawn=True))
        wrong = _verify(pool.run(feed_sets), ref) \
            or _verify(pool.run(feed_sets), ref)
        return finish("protocol", pool,
                      "corrupt reply reaped + replayed bit-correct",
                      wrong=wrong, want=(0, 1, 1))

    # -- phase 5: in-worker exception → typed error, pool stays aligned --------
    def phase_exec_error():
        faults.install(f"worker.exec:error@{per_worker + 1}w0")
        pool = ShardPool(plan, **pool_kwargs())
        wrong = _verify(pool.run(feed_sets), ref)
        try:
            pool.run(feed_sets)
            wrong = wrong or "injected exec error was swallowed"
        except ShardWorkerError as exc:
            if exc.cause != "exec":
                wrong = wrong or f"cause {exc.cause!r}, expected 'exec'"
        # The worker survived and later hits fall outside the window.
        wrong = wrong or _verify(pool.run(feed_sets), ref)
        return finish("exec-error", pool,
                      "typed ShardWorkerError, pool aligned afterwards",
                      wrong=wrong)

    # -- phase 6: serve dispatch failure → typed error, next request serves ----
    def phase_serve():
        import asyncio

        from . import api, serve

        faults.install("serve.dispatch:error@1")

        async def drill():
            async with serve.Server(
                api.Options(),
                coalesce=serve.CoalesceConfig(max_wave=4, max_delay=0.001),
            ) as server:
                def model(a, b, c):
                    return (a @ b + c) @ a.T

                args = [random_general(n, seed=s) for s in (21, 22, 23)]
                want = ((args[0].data @ args[1].data + args[2].data)
                        @ args[0].data.T)
                try:
                    await server.submit(model, args)
                    return "injected dispatch fault was swallowed"
                except faults.InjectedFault:
                    pass
                out = await server.submit(model, args)
                if not np.allclose(out.data, want):
                    return "post-fault serve answer diverged"
                if server.metrics.failure_causes.get("InjectedFault", 0) != 1:
                    return "dispatch failure not counted in ServeMetrics"
                return None

        wrong = asyncio.run(drill())
        return ChaosPhase(
            "serve", wrong is None,
            wrong or "typed error surfaced, next request served correctly",
        )

    # -- phase 7: torn store artifact → accounted eviction, then clean load ----
    def phase_store():
        tmp = tempfile.mkdtemp(prefix="repro-chaos-store-")
        try:
            store = PlanStore(tmp)
            key = store.put_plan(plan)
            faults.install("store.load:corrupt@1")
            if store.load_plan(key) is not None:
                return ChaosPhase(
                    "store", False, "torn artifact load did not degrade"
                )
            if store.stats.corrupt_evicted != 1:
                return ChaosPhase(
                    "store", False,
                    f"corrupt_evicted={store.stats.corrupt_evicted}, "
                    "expected 1",
                )
            # The eviction removed the artifact; a re-put republishes it
            # and the next load (hit 2, outside the window) is clean.
            store.put_plan(plan)
            reloaded = store.load_plan(key)
            if reloaded is None:
                return ChaosPhase(
                    "store", False, "clean reload after eviction failed"
                )
            out, _ = reloaded.execute(feed_list, record=False)
            if not all(np.array_equal(o, w) for o, w in zip(out, ref)):
                return ChaosPhase(
                    "store", False, "reloaded plan produced wrong answers"
                )
            return ChaosPhase(
                "store", True,
                "torn artifact evicted + accounted, clean reload bit-correct",
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # -- phase 8: pool lost mid-run → inline fallback completes the batch ------
    def phase_fallback():
        from . import api

        with api.Session(
            shards=shards,
            shard_fallback="inline",
            faults=f"worker.exec:crash@{per_worker + 1}w0",
        ) as session:
            args = [random_general(n, seed=s) for s in (11, 12, 13)]

            def fn(a, b, c):
                acc = a
                for _ in range(loops):
                    acc = (acc @ b + c - a) @ a.T
                return acc + acc.T

            f = session.compile(fn)
            wrong = _verify(session.run_batch(f, [args] * feeds), ref)
            # Round 2: worker 0 crashes at hit per_worker+1, the pool
            # breaks (no respawn) and the batch completes in-process.
            wrong = wrong or _verify(session.run_batch(f, [args] * feeds),
                                     ref)
            stats = session.stats()
            if not wrong and stats.shard_fallback_runs != 1:
                wrong = (f"shard_fallback_runs="
                         f"{stats.shard_fallback_runs}, expected 1")
        return ChaosPhase(
            "fallback", wrong is None,
            wrong or "broken pool downgraded inline, batch bit-correct",
        )

    run_phase("clean", phase_clean)
    run_phase("crash", phase_crash)
    run_phase("hang", phase_hang)
    run_phase("protocol", phase_protocol)
    run_phase("exec-error", phase_exec_error)
    run_phase("serve", phase_serve)
    run_phase("store", phase_store)
    run_phase("fallback", phase_fallback)

    return ChaosReport(
        phases=phases, shards=shards, feeds=feeds, start_method=start_method
    )
