"""``paper_dense`` — ten LAAB expressions from Tables II-VI at n=512, float32.

Kernel- and copy-bound: ``passes``/``rewrite`` decide the FLOPs, ``kernels``
and the feed/output layout copies decide the time; per-call Python dispatch
is under 5 %.  This is the paper's own measurement — each expression through
the framework against the hand-written BLAS optimum, timed in the same
windows — and the workload on which a dispatch optimisation must show no
change.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

from . import inputs, refs
from .base import Checks, Context, MachineRefs, derived, rate_of
from .compat import SERVING, make_options, make_tensor, resolve
from .layers import LayerSet
from .stats import Sampler, iqr, percentile, timed

BATCH = 4
#: Expressions whose optimum is n³-class: an aware call minus the optimum is
#: mostly layout copies there.
_GEMM_BOUND = ("cse_sum", "cse_gram", "dist", "trmm")


class Workload:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.checks = Checks()
        self.sampler = Sampler(window_s=0.5)
        self.missing: dict = {}

    def setup(self) -> None:
        ctx = self.ctx
        n = 96 if ctx.quick else 512
        session_cls = resolve("repro.api:Session")
        # The headline is the aware pipeline, so the layer probes follow it.
        self.suite = suite = [
            dataclasses.replace(case, pipeline="aware")
            for case in inputs.paper_suite(ctx.seed, n)
        ]
        self.gemm = gemm = inputs.gemm_case(ctx.seed, n)
        self.sessions = {
            pipe: session_cls(make_options(pipeline=pipe, **SERVING))
            for pipe in ("default", "aware")
        }
        self.exprs = []
        for case in suite + [gemm]:
            tensors = [make_tensor(a, p) for a, p in zip(case.arrays, case.props)]
            optimum, flops = refs.optimum(case)
            calls = {pipe: s.compile(case.fn) for pipe, s in self.sessions.items()}
            for call in calls.values():
                call(*tensors)
                call(*tensors)
            self.exprs.append({
                "case": case, "tensors": tensors, "calls": calls,
                "optimum": optimum, "flops_optimal": flops,
                "reference": refs.oracle(case),
            })
        self.gemm_expr = self.exprs.pop()
        self.gemm_feeds = [self.gemm_expr["tensors"]] * BATCH
        self.sessions["aware"].run_batch(self.gemm_expr["calls"]["aware"], self.gemm_feeds)
        self.machine = MachineRefs(ctx.quick)
        if ctx.trace:
            self.layers = LayerSet(suite, [1.0] * len(suite), ctx.work_dir, self.missing)

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()

    def verify(self) -> None:
        checks = self.checks
        for e in self.exprs:
            name = e["case"].name
            for pipe, call in e["calls"].items():
                checks.check(f"{name}/{pipe}", call(*e["tensors"]), e["reference"])
            checks.check(f"{name}/optimum", e["optimum"](), e["reference"])
        g = self.gemm_expr
        batch = self.sessions["aware"].run_batch(g["calls"]["aware"], self.gemm_feeds)
        for i in (0, BATCH - 1):
            checks.check(f"gemm/batch[{i}]", batch.outputs[i], g["reference"])

    def _round(self, buf: dict) -> None:
        for e in self.exprs:
            name, t = e["case"].name, e["tensors"]
            aware, default = e["calls"]["aware"], e["calls"]["default"]
            timed(lambda: aware(*t), 1, buf[f"aware.{name}"])
            timed(lambda: default(*t), 1, buf[f"default.{name}"])
            timed(e["optimum"], 1, buf[f"optimum.{name}"])
        g = self.gemm_expr
        session, call, feeds = self.sessions["aware"], g["calls"]["aware"], self.gemm_feeds
        timed(lambda: session.run_batch(call, feeds), 1, buf["gemm_batch"])

    def measure(self) -> None:
        self.verify()
        self.sampler.run(self.ctx.seconds, self._round, self.machine.window)
        self.verify()

    def trace(self) -> None:
        spans, layers = self.ctx.spans, self.layers
        clock = time.perf_counter

        def traced_pass(buf):
            op = spans.new_op()
            with spans.span("suite_pass", 0, op) as root:
                for e in self.exprs:
                    name, t, aware = e["case"].name, e["tensors"], e["calls"]["aware"]
                    t0 = clock()
                    aware(*t)
                    t1 = clock()
                    spans.add(f"api.call[{name}]", t0, t1, root, op)
                    buf[f"aware_traced.{name}"].append(t1 - t0)

        order = [self._round, traced_pass]

        def round_fn(buf):
            order.reverse()  # alternate, so position favours neither
            for part in order:
                part(buf)
            layers.round(buf)

        self.verify()
        self.sampler.run(self.ctx.seconds, round_fn, self.machine.window)
        self.verify()

    # -- read-out --------------------------------------------------------------------

    def attempted(self) -> int:
        return self.checks.attempted + sum(
            len(w) for n, ws in self.sampler.samples.items()
            if n.startswith(("aware.", "default.", "gemm_batch", "aware_traced."))
            for w in ws
        )

    def _suite(self, prefix: str) -> dict:
        """Sum over the ten expressions of their quiet-window estimates."""
        s = self.sampler
        names = [f"{prefix}.{e['case'].name}" for e in self.exprs]
        spreads = [s.spread(n, "quiet") for n in names]
        per_window = [sum(ws) for ws in zip(*(s.window_medians(n) for n in names))]
        return {
            "value": sum(sp["seconds"] for sp in spreads) * 1e6,
            "estimator": "quiet",
            "n_windows": len(per_window),
            "n_samples": sum(sp["n_samples"] for sp in spreads),
            "window_iqr": iqr(per_window) * 1e6,
            "global_median": sum(sp["global_median_seconds"] for sp in spreads) * 1e6,
        }

    def _slowdown(self) -> float:
        """Geometric mean over the expressions of aware call / optimum."""
        s = self.sampler
        return statistics.geometric_mean(
            s.seconds(f"aware.{e['case'].name}", "quiet")
            / s.seconds(f"optimum.{e['case'].name}", "quiet")
            for e in self.exprs
        )

    def end_to_end(self) -> dict:
        aware = self._suite("aware")
        return {
            "op_p50_us": aware,
            "op_alt_p50_us": self._suite("default"),
            "bulk_items_per_s": rate_of(self.sampler, "gemm_batch", "quiet", BATCH),
            "vs_reference_x": derived(aware, self._slowdown()),
        }

    def per_layer(self) -> dict:
        s = self.sampler
        out = self.layers.metrics(s)
        out.update(self.machine.metrics(s))
        aware = self._suite("aware")["value"]
        traced = self._suite("aware_traced")["value"]
        optimum = self._suite("optimum")["value"]
        out["kernels.ref_expr_us"] = optimum
        out["kernels.blas_floor_us"] = optimum
        out["passes.flops_optimal"] = float(sum(e["flops_optimal"] for e in self.exprs))
        if out.get("passes.flops_aware") is not None:
            out["passes.flops_ratio_aware"] = (
                out["passes.flops_aware"] / out["passes.flops_optimal"])
        out["api.copy_overhead_us"] = sum(
            s.seconds(f"aware.{n}", "quiet") - s.seconds(f"optimum.{n}", "quiet")
            for n in _GEMM_BOUND
        ) * 1e6
        out["api.call_p99_us"] = sum(
            percentile(s.window_percentiles(f"aware.{e['case'].name}", 0.99), 0.5)
            for e in self.exprs
        ) * 1e6
        pinned = out.get("runtime.plan.exec_pinned_us")
        if pinned is not None:
            out["api.call_overhead_us"] = aware - pinned
            out["runtime.plan.dispatch_residual_us"] = pinned - optimum
        out["trace.overhead_pct"] = (traced - aware) / aware * 100.0
        stats = self.sessions["aware"].stats()
        out["runtime.cache.hits"] = float(stats.hits)
        out["runtime.cache.misses"] = float(stats.misses)
        return out
