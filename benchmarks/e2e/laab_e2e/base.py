"""What the four workloads share: the run context, the machine references
and the bookkeeping of checked outputs."""

from __future__ import annotations

import dataclasses

from . import refs
from .spans import SpanRecorder
from .stats import Sampler, iqr, percentile, quiet_share, timed


@dataclasses.dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    quick: bool
    #: Scratch directory for plan stores; inside the checkout, removed on exit.
    work_dir: str
    spans: "SpanRecorder | None" = None


class MachineRefs:
    """sgemm and C→F copy at n=512, sampled at the start of every window.

    They must not move with the program's code: ``compare.py`` reports a pair
    of runs whose references differ by more than 10 % as unresolved.
    """

    def __init__(self, quick: bool) -> None:
        n = 128 if quick else 512
        self.gemm, self.copy, self.flops, self.bytes = refs.machine_refs(n)

    def window(self, buf: dict) -> None:
        timed(self.gemm, 3, buf["machine.gemm"])
        timed(self.copy, 3, buf["machine.copy"])

    def metrics(self, sampler: Sampler) -> dict:
        gemm = sampler.window_medians("machine.gemm")
        copy = sampler.window_medians("machine.copy")
        return {
            "kernels.gemm_gflops": self.flops / percentile(gemm, 0.10) / 1e9,
            "kernels.copy_gbps": self.bytes / percentile(copy, 0.10) / 1e9,
            "stats.quiet_window_share": quiet_share(gemm),
        }


def value_of(sampler: Sampler, name: str, estimator: str, scale: float = 1e6) -> dict:
    """One reported value (duration × ``scale``) with its spread fields."""
    s = sampler.spread(name, estimator)
    return {
        "value": s["seconds"] * scale,
        "estimator": estimator,
        "n_windows": s["n_windows"],
        "n_samples": s["n_samples"],
        "window_iqr": s["window_iqr_seconds"] * scale,
        "global_median": s["global_median_seconds"] * scale,
    }


def rate_of(sampler: Sampler, name: str, estimator: str, items: float) -> dict:
    """A rate (``items`` per duration) with its spread fields."""
    s = sampler.spread(name, estimator)
    rates = [items / m for m in sampler.window_medians(name)]
    return {
        "value": items / s["seconds"],
        "estimator": estimator,
        "n_windows": s["n_windows"],
        "n_samples": s["n_samples"],
        "window_iqr": iqr(rates),
        "global_median": items / s["global_median_seconds"],
    }


def derived(base: dict, value: float) -> dict:
    """A value computed from estimates (a ratio of two of them): it keeps
    ``base``'s sample counts and has no window spread of its own."""
    return {**base, "value": value, "window_iqr": None, "global_median": None}


class Checks:
    """Outputs checked against the float64 oracle, outside the timed region."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, result, reference) -> None:
        self.attempted += 1
        if not refs.matches(result, reference):
            self.fail(label)

    def fail(self, label: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(label)


def derive_floor(layer: dict) -> None:
    """``kernels.flops_floor_us``: the plan's modelled FLOPs at the machine's
    measured sgemm rate — a computed lower bound, not a measurement."""
    flops, gflops = layer.get("runtime.plan.flops"), layer.get("kernels.gemm_gflops")
    if flops is not None and gflops:
        layer["kernels.flops_floor_us"] = flops / (gflops * 1e9) * 1e6
