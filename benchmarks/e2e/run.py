"""The LAAB runtime benchmark: one command that prints every metric by name
with its unit and checks every output against an independent reference.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds N]
                                  [--trace 0|1] [--quick] [--out FILE]
                                  [--trace-out FILE] [--work-dir DIR]

With ``--trace 0`` (the default) the run measures the end-to-end metrics,
tracing off.  With ``--trace 1`` it re-runs the workload decomposed by hand
at the boundaries the public API exposes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--quick`` is for the smoke test only; its timings are never compared.
See ``README.md`` next to this file.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: ``setup_s`` is the median of the run's set-ups: at least three, then as
#: many as fit the budget (a cheap set-up is noisier and gets more samples).
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 40, 1.5
#: Spans written to ``--trace-out`` at most (the earliest ones).
MAX_SPANS_WRITTEN = 50_000
DEFAULT_SECONDS = 24.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   help="one of the four workloads, or 'all' (default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per workload (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=(0, 1))
    p.add_argument("--quick", action="store_true",
                   help="small sizes, 1 s per workload; smoke test only")
    p.add_argument("--out", default=None, help="write the full report here")
    p.add_argument("--trace-out", default=None,
                   help="write the spans of a traced run here as JSON lines")
    p.add_argument("--work-dir", default=".bench_work",
                   help="scratch directory for plan stores (removed on exit)")
    return p.parse_args(argv)


def _default_seconds() -> float:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return float(json.load(fh)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return DEFAULT_SECONDS


def _provenance(args, machine: dict) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_vendor = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_vendor = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "blas_vendor": blas_vendor,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": bool(args.trace),
        **machine,
    }


def run_workload(name: str, args, import_s: float, work_dir: str) -> dict:
    """One workload: set up, measure, verify; returns its report."""
    from laab_e2e import metrics
    from laab_e2e.base import Context, derive_floor
    from laab_e2e.spans import SpanRecorder

    module = importlib.import_module(f"laab_e2e.{name}")
    spans = SpanRecorder() if args.trace else None
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  quick=args.quick, work_dir=work_dir, spans=spans)
    setups: list[float] = []
    workload = None
    while True:
        if workload is not None:
            workload.close()
        gc.collect()
        workload = module.Workload(ctx)
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        # The traced run reports no set-up time, so it sets up once.
        if args.trace or len(setups) >= MAX_SETUPS or (
                len(setups) >= MIN_SETUPS
                and (args.quick or sum(setups) >= SETUP_BUDGET_S)):
            break
    try:
        if args.trace:
            workload.trace()
            layer = workload.per_layer()
            derive_floor(layer)
        else:
            workload.measure()
            e2e = workload.end_to_end()
    finally:
        workload.close()
    checks = workload.checks
    attempted = max(1, workload.attempted())
    report = {
        "workload": name,
        "attempted": attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "missing": dict(workload.missing),
    }
    if args.trace:
        layer["setup.import_s"] = import_s
        layer["fail_share"] = checks.failed / attempted
        layer["trace.spans"] = float(len(spans.spans))
        report["metrics"] = {
            key: {"value": layer.get(key), "unit": unit}
            for key, (unit, _) in metrics.PER_LAYER.items()
        }
        report["self_seconds"] = spans.self_seconds()
        if args.trace_out:
            path = args.trace_out
            if args.workload == "all":
                stem, ext = os.path.splitext(path)
                path = f"{stem}.{name}{ext}"
            report["spans_written"] = spans.write_jsonl(path, MAX_SPANS_WRITTEN)
            report["trace_out"] = path
    else:
        e2e["setup_s"] = {"value": statistics.median(setups), "estimator": "median",
                          "n_samples": len(setups), "samples": setups}
        e2e["peak_rss_mib"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "estimator": "ru_maxrss at the end of the run",
        }
        report["metrics"] = {
            key: {**e2e[key], "unit": unit, "alias": metrics.ROLES[name].get(
                key, (key,))[0]}
            for key, (unit, _, _) in metrics.END_TO_END.items()
        }
        report["machine"] = workload.machine.metrics(workload.sampler)
    return report


def _print_report(report: dict) -> None:
    name = report["workload"]
    for key, m in report["metrics"].items():
        value = m["value"]
        shown = "null" if value is None else f"{value:.6g}"
        alias = f" [{m['alias']}]" if m.get("alias") not in (None, key) else ""
        extra = ""
        if m.get("n_windows"):
            extra = f"  ({m['estimator']}, {m['n_windows']} windows, {m['n_samples']} samples)"
        print(f"{name:15s} {key}{alias} = {shown} {m['unit']}{extra}")
    for key, reason in report["missing"].items():
        print(f"{name:15s} {key} unavailable: {reason}")
    for label in report["failures"]:
        print(f"{name:15s} WRONG OUTPUT: {label}")
    print(f"{name:15s} attempted={report['attempted']} failed={report['failed']}")


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from repro.config import limit_threads
    except ImportError:
        print(f"the program under test is not at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    # Before numpy loads: BLAS reads its thread count when it is loaded.
    limit_threads(1)
    import numpy  # noqa: F401
    import scipy.linalg.blas  # noqa: F401
    import repro.api  # noqa: F401
    import repro.serve  # noqa: F401
    from laab_e2e import WORKLOADS

    import_s = time.perf_counter() - _T_START
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else _default_seconds()
    work_dir = os.path.join(os.path.abspath(args.work_dir), f"run{os.getpid()}")
    os.makedirs(work_dir)
    affinity = _pin_to_one_cpu()
    try:
        reports = [run_workload(n, args, import_s, work_dir) for n in names]
    finally:
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run is using it
    for report in reports:
        _print_report(report)
    if args.out:
        machine = reports[0].get("machine", {})
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"provenance": _provenance(args, machine),
                       "workloads": {r["workload"]: r for r in reports}},
                      fh, indent=1)
    failed = sum(r["failed"] for r in reports)
    metrics_out = {}
    for r in reports:
        prefix = f"{r['workload']}." if len(reports) > 1 else ""
        for key, m in r["metrics"].items():
            value = m["value"]
            metrics_out[prefix + key] = {
                "value": 0 if value is None else value, "unit": m["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics_out,
    }))
    return 0 if failed == 0 else 1


def _pin_to_one_cpu() -> "set[int] | None":
    """Run every thread and worker process of the benchmark on one CPU;
    returns the affinity to restore.

    In the sandbox a wake-up that crosses to an idle virtual CPU costs about
    0.4 ms, and whether the event loop, the dispatch thread and the shard
    worker share a CPU changes with the scheduler's mood every few seconds:
    closed-loop serving flips between 4300 and 7400 req/s with every wave
    full.  On one CPU it stays at the upper figure.  The paper's own
    measurements are single-core for the same reason BLAS is pinned here.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def _stop_resource_tracker() -> None:
    """The shard pools' shared memory starts multiprocessing's resource
    tracker process; stop it and wait, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_resource_tracker()
    sys.exit(code)
