"""``serve_mixed`` — ``repro.serve.Server`` under closed- and open-loop load.

The only workload where ``serve`` (admission, coalescer timer, per-key lock,
dispatch thread, fan-out) and ``runtime.shard`` (ring write, pipe round-trip)
are on the blocking path.  The closed loop shows capacity; the open loop
shows the latency independent users see and the coalescer's
throughput-against-delay trade.

One generator process, no sockets, no generator threads: clients are
coroutines on the one event-loop thread.  The server keeps its default two
dispatch threads and its default admission and coalescing configuration.

* phase A — closed loop, 8 clients, one tenant, the n=16 chain, in-process;
* phase B — the same through ``Options(shards=1)`` (one worker process);
* phase C — open loop, seeded Poisson arrivals at 1000 req/s, two tenants,
  3:1 mix of the chain and ``(A@B)@x`` at n=128, each request timed from the
  time it was *due*; latency limit 10 ms;
* phases D, E (traced run only) — the same at 2000 and 3000 req/s.

The phases do not run one after the other: the run is cut into cycles of a
few seconds and every cycle holds a slice of each phase, so that all of them
see the same machine phases (the round-robin rule of :mod:`stats`, one level
up).  A slice is cut into windows; a metric is estimated over the windows of
all its slices.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import itertools
import statistics

import numpy as np

from . import inputs, refs
from .base import Checks, Context, MachineRefs, derived
from .compat import SERVING, Missing, make_options, make_tensor, resolve
from .layers import BulkProbes, LayerSet
from .stats import Sampler, bin_by_time, estimate, iqr, percentile, timed

CLIENTS = 8
WAVE = 8
POOL = 8  # distinct feed sets per expression
RATES = (1000.0, 2000.0, 3000.0)
LIMIT_S = 0.010
TENANTS = ("t0", "t1")
MIX = (3.0, 1.0)
CYCLE_S = 4.0
WINDOW_S = 0.3
#: Share of a cycle per slice.
_CYCLE = {"replay": 0.06, "A": 0.30, "B": 0.30, "C": 0.34}
#: Share of ``--seconds`` the traced run spends outside the cycles.
_TRACED_EXTRA = {"D": 0.08, "E": 0.08, "layers": 0.10}


@dataclasses.dataclass
class Closed:
    """Windows of the closed-loop slices of one phase."""

    rps: list = dataclasses.field(default_factory=list)
    p50: list = dataclasses.field(default_factory=list)
    p99: list = dataclasses.field(default_factory=list)
    requests: int = 0

    def add(self, other: "Closed") -> None:
        self.rps += other.rps
        self.p50 += other.p50
        self.p99 += other.p99
        self.requests += other.requests


@dataclasses.dataclass
class Open:
    """Windows and totals of the open-loop slices of one rate."""

    sent: int = 0
    within_limit: int = 0
    #: latency from the due time of every request that completed correctly
    latencies: list = dataclasses.field(default_factory=list)
    p50: list = dataclasses.field(default_factory=list)
    late: list = dataclasses.field(default_factory=list)
    #: no slice ended with a backlog growing
    keeps_up: bool = True

    def add(self, other: "Open") -> None:
        self.sent += other.sent
        self.within_limit += other.within_limit
        self.latencies += other.latencies
        self.p50 += other.p50
        self.late += other.late
        self.keeps_up &= other.keeps_up


class Workload:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.checks = Checks()
        self.sampler = Sampler(window_s=0.05)  # the direct replays
        self.missing: dict = {}
        self.loop = None
        self.server = self.sharded = self.direct = self.bulk = None

    # -- set-up -------------------------------------------------------------------

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        ctx = self.ctx
        server_cls = resolve("repro.serve:Server")
        session_cls = resolve("repro.api:Session")
        self.cases = [inputs.chain_case(ctx.seed),
                      inputs.chain128_case(ctx.seed, 32 if ctx.quick else 128)]
        self.feeds, self.references = [], []
        for case in self.cases:
            pool = inputs.feed_pool(case, ctx.seed, POOL)
            self.feeds.append([[make_tensor(a) for a in arrays] for arrays in pool])
            self.references.append([
                refs.oracle(dataclasses.replace(case, arrays=arrays)) for arrays in pool
            ])
        self.server = await server_cls().start()
        self.sharded = await server_cls(make_options(shards=1, **SERVING)).start()
        for _ in range(3):
            for tenant in TENANTS:
                await asyncio.gather(*(
                    self.server.submit(case.fn, self.feeds[kind][k], tenant=tenant)
                    for kind, case in enumerate(self.cases) for k in range(POOL)
                ))
            await asyncio.gather(*(
                self.sharded.submit(self.cases[0].fn, self.feeds[0][k], tenant=TENANTS[0])
                for k in range(POOL)
            ))
        # A wave executed directly: what the server's requests cost without
        # the server.
        self.direct = session_cls(make_options(**SERVING))
        compiled = self.direct.compile(self.cases[0].fn)
        wave = self.feeds[0][:WAVE]
        self.wave_exec = lambda: self.direct.run_batch(compiled, wave)
        self.wave_exec()
        self.machine = MachineRefs(ctx.quick)
        if ctx.trace:
            chain = dataclasses.replace(self.cases[0], arrays=[
                t.data for t in self.feeds[0][0]])
            self.layers = LayerSet([chain], [1.0], ctx.work_dir, self.missing)
            self.bulk = BulkProbes(self.layers.probes[0].fused, chain.arrays,
                                   self.missing)

    def close(self) -> None:
        if self.loop is None:
            return
        for server in (self.server, self.sharded):
            if server is not None:
                self.loop.run_until_complete(server.stop())
        if self.direct is not None:
            self.direct.close()
        if self.bulk is not None:
            self.bulk.close()
        self.loop.close()
        self.loop = None

    # -- load slices ----------------------------------------------------------------

    async def _closed(self, server, seconds: float, label: str,
                      traced: bool = True) -> Closed:
        now = asyncio.get_running_loop().time
        fn, feeds = self.cases[0].fn, self.feeds[0]
        spans = self.ctx.spans if traced else None
        verify = Verifier(label, self.references, self.checks)
        window_s = min(WINDOW_S, seconds / 2)
        events: list[tuple[float, float]] = []
        refused = [0]
        counter = itertools.count()
        gc.collect()
        gc.disable()
        start = now()
        end = start + seconds
        windows = []
        if spans is not None:
            windows = [
                spans.add("loadgen.window", start + i * window_s,
                          start + (i + 1) * window_s)
                for i in range(int(seconds / window_s) + 1)
            ]

        async def client() -> None:
            while True:
                t0 = now()
                if t0 >= end:
                    return
                k = next(counter) % POOL
                try:
                    out = await server.submit(fn, feeds[k], tenant=TENANTS[0])
                except Exception:  # noqa: BLE001 - a refusal is a failed operation
                    refused[0] += 1
                    continue
                t1 = now()
                events.append((t1, t1 - t0))
                if spans is not None:
                    spans.add("serve.submit", t0, t1,
                              windows[int((t0 - start) / window_s)], spans.new_op())
                verify(0, k, out)

        try:
            await asyncio.gather(*(client() for _ in range(CLIENTS)))
        finally:
            gc.enable()
        self.checks.attempted += refused[0]
        for _ in range(refused[0]):
            self.checks.fail(f"{label}: request refused or failed")
        bins = bin_by_time(events, start, end, window_s)
        return Closed(
            rps=[len(b) / window_s for b in bins],
            p50=[statistics.median(b) for b in bins if b],
            p99=[percentile(b, 0.99) for b in bins if b],
            requests=len(events) + refused[0],
        )

    async def _open(self, rate: float, seconds: float, label: str, cycle: int) -> Open:
        loop = asyncio.get_running_loop()
        now = loop.time
        spans = self.ctx.spans
        schedule = inputs.arrival_schedule(
            self.ctx.seed + 7919 * cycle, rate, seconds, MIX, len(TENANTS))
        verify = Verifier(label, self.references, self.checks)
        done: list[tuple[float, float]] = []
        late: list[float] = []
        failed = [0]

        async def one(due: float, kind: int, tenant: int, k: int) -> None:
            try:
                out = await self.server.submit(
                    self.cases[kind].fn, self.feeds[kind][k], tenant=TENANTS[tenant])
            except Exception:  # noqa: BLE001 - refused, expired or failed
                failed[0] += 1
                return
            t1 = now()
            if verify(kind, k, out):
                done.append((due, t1 - due))
            if spans is not None:
                spans.add("serve.submit", due, t1, 0, spans.new_op())

        gc.collect()
        gc.disable()
        tasks = []
        start = now() + 0.005
        try:
            for i, (offset, kind, tenant) in enumerate(schedule):
                due = start + offset
                delay = due - now()
                if delay > 0:
                    await asyncio.sleep(delay)
                late.append(max(0.0, now() - due))
                tasks.append(loop.create_task(one(due, kind, tenant, i % POOL)))
            await asyncio.gather(*tasks)
        finally:
            gc.enable()
        self.checks.attempted += failed[0]
        for _ in range(failed[0]):
            self.checks.fail(f"{label}: request refused, expired or failed")
        bins = bin_by_time(done, start, start + seconds, min(WINDOW_S, seconds / 2))
        # No growing backlog: the last third no slower than twice the first.
        third = seconds / 3
        first = [lat for due, lat in done if due < start + third]
        last = [lat for due, lat in done if due >= start + 2 * third]
        return Open(
            sent=len(schedule),
            within_limit=sum(1 for _, latency in done if latency <= LIMIT_S),
            latencies=[latency for _, latency in done],
            p50=[statistics.median(b) for b in bins if b],
            late=late,
            keeps_up=bool(first and last)
            and statistics.median(last) <= 2 * statistics.median(first),
        )

    def _replay(self, seconds: float) -> None:
        """Direct executions between the slices: a wave of 8 through
        ``Session.run_batch`` and the machine references."""
        self.sampler.run(
            seconds, lambda buf: timed(self.wave_exec, 4, buf["wave_exec"]),
            self.machine.window)

    def _cycles(self, seconds: float) -> None:
        run = self.loop.run_until_complete
        traced = self.ctx.trace
        n = max(1, round(seconds / CYCLE_S))
        per = seconds / n
        self.closed, self.closed_plain, self.closed_sharded = Closed(), Closed(), Closed()
        self.open = {rate: Open() for rate in RATES}
        self.checks.check("wave_exec", self.wave_exec().outputs[0], self.references[0][0])
        for cycle in range(n):
            self._replay(_CYCLE["replay"] * per)
            a = _CYCLE["A"] * per
            if not traced:
                self.closed.add(run(self._closed(self.server, a, "A")))
            else:
                # Half the slice with a span per request, half without, in
                # alternating order: the difference is the tracing overhead.
                halves = [(self.closed_plain, False), (self.closed, True)]
                for into, with_spans in halves[::1 if cycle % 2 else -1]:
                    into.add(run(self._closed(self.server, a / 2, "A", with_spans)))
            self.closed_sharded.add(run(self._closed(self.sharded, _CYCLE["B"] * per, "B")))
            self.open[RATES[0]].add(run(self._open(RATES[0], _CYCLE["C"] * per, "C", cycle)))
        self.checks.check("wave_exec", self.wave_exec().outputs[-1],
                          self.references[0][WAVE - 1])

    def measure(self) -> None:
        self._cycles(self.ctx.seconds)

    def trace(self) -> None:
        total = self.ctx.seconds
        self._cycles(total * (1.0 - sum(_TRACED_EXTRA.values())))
        for rate, phase in zip(RATES[1:], "DE"):
            self.open[rate].add(self.loop.run_until_complete(
                self._open(rate, _TRACED_EXTRA[phase] * total, phase, 0)))
        self.bulk.verify(self.checks, self.references[0][0])
        self.layer_sampler = Sampler()

        def round_fn(buf):
            self.layers.round(buf)
            self.bulk.round(buf)

        self.layer_sampler.run(_TRACED_EXTRA["layers"] * total, round_fn)
        self._autotune()

    def _autotune(self) -> None:
        """A tuning session on ``(A@B)@x`` float feeds: promotions are
        expected to be 0 (reassociation is inexact there)."""
        self.autotune = None
        try:
            budget = 0.02 if self.ctx.quick else 0.25
            session = resolve("repro.api:Session")(make_options(
                autotune={"budget_seconds": budget}, **SERVING))
        except Missing as exc:
            self.missing["runtime.autotune.tuning_ms"] = str(exc)
            return
        try:
            call = session.compile(self.cases[1].fn)
            tensors = self.feeds[1][0]
            for _ in range(40):
                out = call(*tensors)
            self.checks.check("autotune", out, self.references[1][0])
            self.autotune = session.stats().autotune
        finally:
            session.close()
        if self.autotune is None:
            self.missing["runtime.autotune.tuning_ms"] = "Options has no autotune"

    # -- read-out --------------------------------------------------------------------

    def attempted(self) -> int:
        return self.checks.attempted

    @staticmethod
    def _quiet(values: list, scale: float, n_samples: int, higher: bool = False) -> dict:
        """Quiet-window estimate of window values: their first decile, or
        their ninth for a rate."""
        value = -estimate([-v for v in values], "quiet") if higher else estimate(values, "quiet")
        return {
            "value": value * scale,
            "estimator": "quiet",
            "n_windows": len(values),
            "n_samples": n_samples,
            "window_iqr": iqr(values) * scale,
            "global_median": statistics.median(values) * scale,
        }

    def end_to_end(self) -> dict:
        closed, sharded = self.closed, self.closed_sharded
        open_phase = self.open[RATES[0]]
        rps = self._quiet(closed.rps, 1.0, closed.requests, higher=True)
        wave_us = self.sampler.seconds("wave_exec", "quiet") * 1e6
        return {
            "op_p50_us": self._quiet(open_phase.p50, 1e6, open_phase.sent),
            "op_alt_p50_us": self._quiet(sharded.p50, 1e6, sharded.requests),
            "bulk_items_per_s": rps,
            "vs_reference_x": derived(rps, (1e6 / rps["value"]) / (wave_us / WAVE)),
        }

    def per_layer(self) -> dict:
        out = self.layers.metrics(self.layer_sampler)
        out.update(self.machine.metrics(self.sampler))
        out.update(self.bulk.metrics(self.layer_sampler))
        closed, sharded = self.closed, self.closed_sharded
        rps = self._quiet(closed.rps, 1.0, 0, higher=True)["value"]
        plain = self._quiet(self.closed_plain.rps, 1.0, 0, higher=True)["value"]
        wave_us = self.sampler.seconds("wave_exec", "quiet") * 1e6
        out["serve.wave_exec_us"] = wave_us
        out["serve.overhead_us_per_req"] = 1e6 / plain - wave_us / WAVE
        out["serve.sharded_rps"] = self._quiet(sharded.rps, 1.0, 0, higher=True)["value"]
        out["serve.closed_p50_ms"] = estimate(closed.p50, "quiet") * 1e3
        out["serve.closed_p99_ms"] = estimate(closed.p99, "quiet") * 1e3
        c = self.open[RATES[0]]
        out["serve.open_within_limit_share"] = c.within_limit / c.sent
        out["serve.open_p99_ms"] = percentile(c.latencies, 0.99) * 1e3
        out["serve.open_p999_ms"] = percentile(c.latencies, 0.999) * 1e3
        out["serve.loadgen_late_p99_ms"] = percentile(c.late, 0.99) * 1e3
        out["serve.open2000_p50_ms"] = estimate(self.open[RATES[1]].p50, "quiet") * 1e3
        e = self.open[RATES[2]]
        out["serve.open3000_within_limit_share"] = e.within_limit / e.sent
        out["serve.max_ok_rate_rps"] = max(
            (rate for rate, phase in self.open.items()
             if phase.keeps_up and phase.within_limit >= 0.99 * phase.sent),
            default=0.0)
        snap = self.server.metrics.snapshot()
        for key in ("waves", "rejected", "deadline_expired", "breaker_trips",
                    "queue_depth_high_water"):
            out[f"serve.{key}"] = float(snap[key])
        out["serve.wave_occupancy_mean"] = float(snap["wave_occupancy"]["mean"])
        if self.autotune is not None:
            out["runtime.autotune.tuning_ms"] = self.autotune.tuning_seconds * 1e3
            out["runtime.autotune.promotions"] = float(self.autotune.promotions)
            out["runtime.autotune.rejected"] = float(self.autotune.candidates_rejected)
        stats = self.server.session(TENANTS[0]).stats()
        out["runtime.cache.hits"] = float(stats.hits)
        out["runtime.cache.misses"] = float(stats.misses)
        pinned = out.get("runtime.plan.exec_pinned_us")
        if pinned is not None:
            out["api.call_overhead_us"] = wave_us / WAVE - pinned
        out["trace.overhead_pct"] = (plain - rps) / plain * 100.0
        return out


class Verifier:
    """Checks every response as it arrives, without keeping it.

    Holding tens of thousands of responses until the slice ends makes the
    allocator hand out cold memory for every new one, and the measured rate
    decays over the slice.  So the first response to each feed set is checked
    against the float64 oracle and kept; a later one must equal it bit for
    bit (one plan, one feed set) or go through the oracle itself.
    """

    def __init__(self, label: str, references: list, checks: Checks) -> None:
        self.label = label
        self.references = references
        self.checks = checks
        self.known: dict[tuple[int, int], np.ndarray] = {}

    def __call__(self, kind: int, k: int, out) -> bool:
        self.checks.attempted += 1
        data = out.data
        known = self.known.get((kind, k))
        if known is not None and np.array_equal(data, known):
            return True
        if refs.matches(data, self.references[kind][k]):
            if known is None:
                self.known[kind, k] = data
            return True
        self.checks.fail(f"{self.label}: response to feed set {k} of expression {kind}")
        return False
