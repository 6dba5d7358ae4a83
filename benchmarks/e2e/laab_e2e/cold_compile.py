"""``cold_compile`` — 24 seeded graphs, each compiled from scratch.

The same layers as the other workloads, used the other way round: the
write/compile side beside the execute side.  ``ir.tracing``, ``passes``,
``runtime.compiler``, ``runtime.fusion``, ``runtime.cache`` and
``runtime.store`` do the work and steady-state dispatch does none.  It shows
work moved from steady state into set-up, and a store change that speeds
reads but slows publishes.

Per round and graph: a fresh ``Session``, ``compile`` and the first call
(cold); the same on a pre-populated ``plan_store`` (warm); the same with an
empty store attached (publish).  A round's value is the mean over the
graphs; rounds are the windows.
"""

from __future__ import annotations

import collections
import itertools
import os
import shutil
import time

from . import inputs, refs
from .base import Checks, Context, MachineRefs, derived, rate_of, value_of
from .compat import SERVING, Missing, make_options, make_tensor, resolve
from .layers import LayerSet
from .stats import Sampler

KINDS = ("cold", "warm", "publish")


class Workload:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.checks = Checks()
        # One round takes about a window, so a window holds one round.
        self.sampler = Sampler(window_s=0.05)
        self.missing: dict = {}
        self._dirs = itertools.count()

    def setup(self) -> None:
        ctx = self.ctx
        self.session_cls = resolve("repro.api:Session")
        self.cases = cases = inputs.draw_graphs(ctx.seed, 6 if ctx.quick else 24)
        self.tensors = [
            [make_tensor(a, p) for a, p in zip(c.arrays, c.props)] for c in cases
        ]
        self.references = [refs.oracle(c) for c in cases]
        self.options = [make_options(pipeline=c.pipeline, **SERVING) for c in cases]
        self.warm_dir = os.path.join(ctx.work_dir, f"warm{os.getpid()}_{id(self)}")
        self.warm_options = [
            make_options(pipeline=c.pipeline, plan_store=self.warm_dir, **SERVING)
            for c in cases
        ]
        # Populate the warm store, and keep each kind's last output per graph
        # for the oracle.
        self.outputs = {kind: [None] * len(cases) for kind in KINDS}
        self.stats = {"misses": 0, "store_hits": 0, "hits": 0}
        for i in range(len(cases)):
            self._first_call(i, self.warm_options[i])
        self.machine = MachineRefs(ctx.quick)
        if ctx.trace:
            n = len(cases)
            self.layers = LayerSet(cases, [1.0 / n] * n, ctx.work_dir, self.missing)

    def close(self) -> None:
        shutil.rmtree(self.warm_dir, ignore_errors=True)

    def _first_call(self, i: int, options) -> tuple[float, object, object]:
        """Fresh Session → compile → first call; ``(seconds, output, stats)``."""
        case, tensors = self.cases[i], self.tensors[i]
        t0 = time.perf_counter()
        session = self.session_cls(options)
        out = session.compile(case.fn)(*tensors)
        seconds = time.perf_counter() - t0
        stats = session.stats()
        session.close()
        return seconds, out, stats

    def _round(self, buf: dict, traced: bool = False) -> None:
        """One first call of every kind for every graph.  ``traced`` adds a
        second cold call with a span around it, in alternating order, so the
        pair differs by the tracing overhead alone."""
        n = len(self.cases)
        spans = self.ctx.spans
        totals = dict.fromkeys((*KINDS, "cold_traced", "numpy_ref"), 0.0)

        def cold(i):
            seconds, self.outputs["cold"][i], _ = self._first_call(i, self.options[i])
            totals["cold"] += seconds

        def cold_traced(i):
            with spans.span("api.first_call", 0, spans.new_op()):
                totals["cold_traced"] += self._first_call(i, self.options[i])[0]

        for i, case in enumerate(self.cases):
            if not traced:
                cold(i)
            elif (self.rounds + i) % 2:
                cold(i), cold_traced(i)
            else:
                cold_traced(i), cold(i)
            seconds, self.outputs["warm"][i], stats = self._first_call(
                i, self.warm_options[i])
            totals["warm"] += seconds
            for key in self.stats:
                self.stats[key] += getattr(stats, key)
            root = os.path.join(self.ctx.work_dir, f"pub{next(self._dirs)}")
            options = make_options(pipeline=case.pipeline, plan_store=root, **SERVING)
            seconds, self.outputs["publish"][i], _ = self._first_call(i, options)
            totals["publish"] += seconds
            shutil.rmtree(root, ignore_errors=True)
            t0 = time.perf_counter()
            case.fn(*case.arrays)
            totals["numpy_ref"] += time.perf_counter() - t0
        for kind, total in totals.items():
            if traced or kind != "cold_traced":
                buf[kind].append(total / n)
        self.rounds += 1

    def verify(self) -> None:
        """Every graph's latest cold, warm and publish output, and the eager
        numpy evaluation the cold call is compared with."""
        for i, case in enumerate(self.cases):
            for kind in KINDS:
                if self.outputs[kind][i] is not None:
                    self.checks.check(f"{case.name}/{kind}", self.outputs[kind][i],
                                      self.references[i])
            self.checks.check(f"{case.name}/numpy_ref", case.fn(*case.arrays),
                              self.references[i])

    def _run(self, round_fn, window_fn) -> None:
        self.rounds = 0
        self._round(collections.defaultdict(list))  # every graph's first outputs
        self.verify()
        self.rounds = 0
        self.sampler.run(self.ctx.seconds, round_fn, window_fn)
        self.verify()

    def measure(self) -> None:
        self._run(self._round, self.machine.window)

    # -- the traced run ----------------------------------------------------------------

    def _staged(self, label: str, stages) -> float:
        """Run ``stages`` — ``(span name, fn(previous result))`` — under one
        root span, one child span each; returns the seconds they took."""
        spans = self.ctx.spans
        clock = time.perf_counter
        op = spans.new_op()
        total, value = 0.0, None
        with spans.span(label, 0, op) as root:
            for name, fn in stages:
                t0 = clock()
                value = fn(value)
                t1 = clock()
                spans.add(name, t0, t1, root, op)
                total += t1 - t0
        return total

    def _by_hand(self, entry: dict, buf: dict) -> None:
        """The cold and the warm first call decomposed by hand at the
        boundaries the public API exposes."""
        trace_fn, compile_plan, store = entry["trace"], entry["compile_plan"], entry["store"]
        cold = 0.0
        for case, tensors in zip(self.cases, self.tensors):
            knobs = dict(backend="tfsim", pipeline=case.pipeline,
                         fold_constants=False, fusion=True)
            trace = ("ir.trace", lambda _: trace_fn(case.fn, tensors))
            lower = ("runtime.compiler.compile_plan",
                     lambda graph: compile_plan(graph, fusion=True))
            execute = ("runtime.plan.execute",
                       lambda plan: plan.execute(case.arrays, arena=plan.new_arena()))
            cold += self._staged("first_call[cold]", [
                trace,
                ("passes.run", lambda graph: entry[case.pipeline]().run(graph)),
                lower, execute,
            ])
            self._staged("first_call[warm]", [
                trace,
                ("runtime.store.load",
                 lambda graph: store.load_graph(store.trace_key(graph, **knobs))),
                lower, execute,
            ])
        buf["cold_by_hand"].append(cold / len(self.cases))

    def trace(self) -> None:
        try:
            entry = {
                "trace": resolve("repro.ir:trace"),
                "compile_plan": resolve("repro.runtime:compile_plan"),
                "default": resolve("repro.passes:default_pipeline"),
                "aware": resolve("repro.passes:aware_pipeline"),
                "store": resolve("repro.runtime:PlanStore")(self.warm_dir),
            }
        except Missing as exc:
            self.missing["api.first_call_residual_us"] = str(exc)
            entry = None
        # The layer probes of 24 graphs take several rounds' time; one pass
        # per window keeps the first calls the bulk of the run.
        self.sampler.window_s = 1.0

        def round_fn(buf):
            self._round(buf, traced=True)
            if entry is not None:
                self._by_hand(entry, buf)

        def window_fn(buf):
            self.machine.window(buf)
            self.layers.round(buf)

        self._run(round_fn, window_fn)

    # -- read-out --------------------------------------------------------------------

    def attempted(self) -> int:
        return self.checks.attempted + self.rounds * len(self.cases) * len(KINDS)

    def end_to_end(self) -> dict:
        s = self.sampler
        cold = value_of(s, "cold", "quiet")
        return {
            "op_p50_us": cold,
            "op_alt_p50_us": value_of(s, "warm", "quiet"),
            "bulk_items_per_s": rate_of(s, "publish", "quiet", 1.0),
            "vs_reference_x": derived(
                cold, cold["value"] / value_of(s, "numpy_ref", "quiet")["value"]),
        }

    def per_layer(self) -> dict:
        s = self.sampler
        out = self.layers.metrics(s)
        out.update(self.machine.metrics(s))
        cold = s.seconds("cold", "quiet") * 1e6
        out["kernels.ref_expr_us"] = s.seconds("numpy_ref", "quiet") * 1e6
        if "cold_by_hand" in s.samples:
            out["api.first_call_residual_us"] = (
                cold - s.seconds("cold_by_hand", "quiet") * 1e6)
        traced = s.seconds("cold_traced", "quiet") * 1e6
        out["trace.overhead_pct"] = (traced - cold) / cold * 100.0
        rounds = max(1, self.rounds)
        for key in ("hits", "misses", "store_hits"):
            out[f"runtime.cache.{key}"] = self.stats[key] / rounds
        return out
