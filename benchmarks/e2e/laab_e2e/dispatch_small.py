"""``dispatch_small`` — the legacy 53-node chain at n=16, float32.

Dispatch-bound: the ``api`` call path and ``runtime.plan`` instruction
dispatch do almost all the work, BLAS and copies almost none (3 KiB staged
per call).  It bypasses passes quality and layout copies, and is the
workload on which a kernel or copy optimisation must show no change.
Closed loop, one client, in-process.
"""

from __future__ import annotations

import time

from . import inputs, refs
from .base import Checks, Context, MachineRefs, derived, rate_of, value_of
from .compat import SERVING, make_options, make_tensor, resolve
from .layers import BATCH, BulkProbes, LayerSet
from .stats import Sampler, percentile, timed

_CALLS = 16  # calls per timer per round


class Workload:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.checks = Checks()
        self.sampler = Sampler()
        self.missing: dict = {}
        self.bulk = None

    # -- set-up -------------------------------------------------------------------

    def setup(self) -> None:
        ctx = self.ctx
        session_cls = resolve("repro.api:Session")
        self.case = case = inputs.chain_case(ctx.seed)
        self.reference = refs.oracle(case)
        self.tensors = tensors = [make_tensor(a) for a in case.arrays]
        self.serving = session_cls(make_options(**SERVING))
        self.default = session_cls(make_options())
        self.call = self.serving.compile(case.fn)
        self.call_default = self.default.compile(case.fn)
        self.feed_sets = [tensors] * BATCH
        for _ in range(10):
            self.call(*tensors)
            self.call_default(*tensors)
        self.serving.run_batch(self.call, self.feed_sets)
        self.machine = MachineRefs(ctx.quick)
        a, b, c = case.arrays
        self.numpy_ref = lambda: refs.chain_numpy(a, b, c)
        if ctx.trace:
            self.layers = LayerSet([case], [1.0], ctx.work_dir, self.missing)
            self.blas_floor = refs.chain_blas(case.arrays)
            self.bulk = BulkProbes(self.layers.probes[0].fused, list(case.arrays),
                                   self.missing)

    def close(self) -> None:
        if self.bulk is not None:
            self.bulk.close()
        self.serving.close()
        self.default.close()

    # -- correctness ---------------------------------------------------------------

    def verify(self) -> None:
        """One output of every timed path against the float64 oracle."""
        t, ref, checks = self.tensors, self.reference, self.checks
        checks.check("call", self.call(*t), ref)
        checks.check("call_default", self.call_default(*t), ref)
        batch = self.serving.run_batch(self.call, self.feed_sets)
        for i in (0, BATCH - 1):
            checks.check(f"batch[{i}]", batch.outputs[i], ref)
        checks.check("numpy_ref", self.numpy_ref(), ref)
        if self.ctx.trace:
            checks.check("blas_floor", self.blas_floor(), ref)
            self.bulk.verify(checks, ref)

    # -- measurement ---------------------------------------------------------------

    def measure(self) -> None:
        t = self.tensors
        call, call_default = self.call, self.call_default
        serving, feed_sets, numpy_ref = self.serving, self.feed_sets, self.numpy_ref

        def round_fn(buf):
            timed(lambda: call(*t), _CALLS, buf["call"])
            timed(lambda: call_default(*t), _CALLS, buf["call_default"])
            timed(lambda: serving.run_batch(call, feed_sets), 1, buf["batch"])
            timed(numpy_ref, _CALLS, buf["numpy_ref"])

        self.verify()
        self.sampler.run(self.ctx.seconds, round_fn, self.machine.window)
        self.verify()

    def trace(self) -> None:
        t = self.tensors
        call = self.call
        spans, layers, bulk = self.ctx.spans, self.layers, self.bulk
        blas_floor, numpy_ref = self.blas_floor, self.numpy_ref
        clock = time.perf_counter

        def traced_calls(buf):
            # The same loop as "call" with each call recorded as a span, the
            # recording inside the timed interval: the difference between
            # the two is the tracing overhead.
            out = buf["call_traced"]
            for _ in range(_CALLS):
                t0 = clock()
                call(*t)
                spans.add("api.call", t0, clock(), 0, spans.new_op())
                out.append(clock() - t0)

        order = [lambda buf: timed(lambda: call(*t), _CALLS, buf["call"]),
                 traced_calls]

        def round_fn(buf):
            order.reverse()  # alternate, so position favours neither
            for block in order:
                block(buf)
            timed(blas_floor, _CALLS, buf["blas_floor"])
            timed(numpy_ref, _CALLS, buf["numpy_ref"])
            layers.round(buf)
            bulk.round(buf)

        self.verify()
        self.sampler.run(self.ctx.seconds, round_fn, self.machine.window)
        self.verify()

    # -- read-out --------------------------------------------------------------------

    def attempted(self) -> int:
        names = ("call", "call_default", "batch", "call_traced")
        return self.checks.attempted + sum(
            len(w) for n in names for w in self.sampler.samples.get(n, ())
        )

    def end_to_end(self) -> dict:
        s = self.sampler
        call = value_of(s, "call", "quiet")
        return {
            "op_p50_us": call,
            "op_alt_p50_us": value_of(s, "call_default", "quiet"),
            "bulk_items_per_s": rate_of(s, "batch", "quiet", BATCH),
            "vs_reference_x": derived(
                call, call["value"] / value_of(s, "numpy_ref", "quiet")["value"]),
        }

    def per_layer(self) -> dict:
        s = self.sampler
        out = self.layers.metrics(s)
        out.update(self.machine.metrics(s))
        out.update(self.bulk.metrics(s))
        call = s.seconds("call", "quiet") * 1e6
        traced = s.seconds("call_traced", "quiet") * 1e6
        floor = s.seconds("blas_floor", "quiet") * 1e6
        pinned = out.get("runtime.plan.exec_pinned_us")
        out["kernels.blas_floor_us"] = floor
        out["kernels.ref_expr_us"] = s.seconds("numpy_ref", "quiet") * 1e6
        out["api.call_p99_us"] = percentile(s.window_percentiles("call", 0.99), 0.5) * 1e6
        out["trace.overhead_pct"] = (traced - call) / call * 100.0
        if pinned is not None:
            out["api.call_overhead_us"] = call - pinned
            out["runtime.plan.dispatch_residual_us"] = pinned - floor
        stats = self.serving.stats()
        out["runtime.cache.hits"] = float(stats.hits)
        out["runtime.cache.misses"] = float(stats.misses)
        return out
