"""Compare two sides of benchmark reports, one row per metric × workload.

    python3 benchmarks/e2e/compare.py A B

``A`` (the base) and ``B`` are each a report written by ``run.py --out``, or
a directory of such reports (several runs of one side).  A side's value is
the median over its runs; its spread is the distance between the quartiles
of its runs, or of its windows when there is one run.

Verdict per end-to-end metric, with the bounds of ``BENCHMARK.json``:

``ok``          B is no worse than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  the spread of either side, or the difference between the two
                sides' machine references (sgemm rate, copy bandwidth), is
                wider than what the verdict would rest on (``setup_s`` is
                judged on its medians alone)

Per-layer metrics of traced reports are listed without a verdict.  Exits 1
when any row is ``worse``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MACHINE_REFS = ("kernels.gemm_gflops", "kernels.copy_gbps")
MACHINE_TOLERANCE = 0.10
#: Judged on the medians alone: a set-up of tens of milliseconds spreads
#: wider than any bound run to run, and the benchmark's contract exempts it
#: from the spread rule for that reason.
SPREAD_EXEMPT = ("setup_s",)


def load_side(path: str) -> list[dict]:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    if not files:
        raise SystemExit(f"{path}: no reports")
    reports = []
    for name in files:
        with open(name, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return reports


def _quartile_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def side_values(reports: list[dict], workload: str, metric: str):
    """``(median, spread, runs)`` of one metric on one side, or ``None``."""
    entries = [
        r["workloads"][workload]["metrics"][metric]
        for r in reports
        if workload in r["workloads"]
        and r["workloads"][workload]["metrics"].get(metric, {}).get("value") is not None
    ]
    if not entries:
        return None
    values = [e["value"] for e in entries]
    if len(values) >= 4:
        spread = _quartile_spread(values)
    else:
        spread = max((e.get("window_iqr") or 0.0) for e in entries)
    return statistics.median(values), spread, len(values)


def machine_values(reports: list[dict], workload: str, ref: str):
    values = []
    for r in reports:
        w = r["workloads"].get(workload, {})
        value = w.get("machine", {}).get(ref)
        if value is None:
            value = w.get("metrics", {}).get(ref, {}).get("value")
        if value:
            values.append(value)
    return statistics.median(values) if values else None


def verdict(base, new, metric: dict, machine_ok: bool) -> str:
    (a, spread_a, _), (b, spread_b, _) = base, new
    bound = metric["bound"]
    change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    too_wide = max(spread_a / a, spread_b / b) > bound
    if not machine_ok or (too_wide and metric["name"] not in SPREAD_EXEMPT):
        return "unresolved"
    return "worse" if change > bound else "ok"


def compare(side_a: list[dict], side_b: list[dict], spec: dict) -> tuple[list[str], bool]:
    rows, any_worse = [], False
    workloads = [w["name"] for w in spec["workloads"]]
    header = (f"{'workload':15s} {'metric':34s} {'A (base)':>14s} {'iqr':>10s} "
              f"{'B':>14s} {'iqr':>10s} {'B/A':>7s} {'bound':>6s}  verdict")
    rows.append(header)
    for workload in workloads:
        machine_ok = True
        for ref in MACHINE_REFS:
            a, b = (machine_values(s, workload, ref) for s in (side_a, side_b))
            if a and b and abs(b - a) / a > MACHINE_TOLERANCE:
                machine_ok = False
                rows.append(f"{workload:15s} {ref}: {a:.4g} against {b:.4g} — the "
                            "machine moved; rows below are unresolved")
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                base = side_values(side_a, workload, m["name"])
                new = side_values(side_b, workload, m["name"])
                if base is None or new is None or base[0] == 0:
                    continue
                if kind == "end_to_end":
                    word = verdict(base, new, m, machine_ok)
                    any_worse |= word == "worse"
                    bound = f"{m['bound']:.2f}"
                else:
                    word, bound = "-", "-"
                rows.append(
                    f"{workload:15s} {m['name']:34s} {base[0]:14.6g} {base[1]:10.3g} "
                    f"{new[0]:14.6g} {new[1]:10.3g} {new[0] / base[0]:7.3f} "
                    f"{bound:>6s}  {word} ({m['unit']}, {m['better']} is better, "
                    f"n={base[2]}/{new[2]})"
                )
    return rows, any_worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rows, any_worse = compare(load_side(argv[0]), load_side(argv[1]), spec)
    print("\n".join(rows))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
