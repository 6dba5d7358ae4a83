"""Where, if anywhere, does sharding beat the in-process loop?

Times ``Session.run_batch`` of ``(a @ b) @ c + a`` over a batch of feed
sets three ways — inline (``Session()``), ``Session(shards=1)`` and
``Session(shards=2)`` — for every matrix size and BLAS thread count
asked for, unpinned, and prints one table row per (n, BLAS threads)
with the median feeds/s and its interquartile range per configuration::

    PYTHONPATH=src python benchmarks/shard_crossover.py
    PYTHONPATH=src python benchmarks/shard_crossover.py --sizes 16 512 \\
        --blas-threads 1 --reps 9 --json crossover.json

Each BLAS thread count runs in its own child process, because the BLAS
pool size is fixed when numpy first loads it; shard workers inherit the
child's setting.  Within a child the three configurations alternate
(forward order on even reps, reversed on odd ones) after one untimed
warm-up batch each, so drift hits them alike.  Every output of every
timed batch must equal the inline reference bit for bit, or the script
exits non-zero.  The batch cycles through four distinct feed sets.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

SIZES = (16, 64, 128, 256, 512)
BLAS_THREADS = (1, 2)
CONFIGS = (("inline", None), ("shards=1", 1), ("shards=2", 2))
DISTINCT_FEEDS = 4


def _expr(a, b, c):
    return (a @ b) @ c + a


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    import numpy as np

    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def _child(args: argparse.Namespace) -> int:
    """Measure every size at one BLAS thread count; print JSON rows."""
    from repro import limit_threads

    limit_threads(args.blas_threads[0])  # before numpy loads BLAS
    import time

    import numpy as np

    from repro import api
    from repro.tensor import random_general

    rows = []
    for n in args.sizes:
        distinct = [
            [random_general(n, seed=3 * i + j) for j in range(3)]
            for i in range(DISTINCT_FEEDS)
        ]
        feed_sets = [distinct[i % DISTINCT_FEEDS] for i in range(args.feeds)]
        sessions = {
            name: api.Session(shards=shards) for name, shards in CONFIGS
        }
        try:
            fns = {name: s.compile(_expr) for name, s in sessions.items()}
            warm = sessions["inline"].run_batch(fns["inline"], feed_sets)
            reference = [np.array(o[0]) for o in warm.outputs[:DISTINCT_FEEDS]]
            for name, session in sessions.items():
                session.run_batch(fns[name], feed_sets)  # spawn + warm up
            rates: dict[str, list[float]] = {name: [] for name, _ in CONFIGS}
            for rep in range(args.reps):
                order = list(sessions) if rep % 2 == 0 else list(sessions)[::-1]
                for name in order:
                    start = time.perf_counter()
                    result = sessions[name].run_batch(fns[name], feed_sets)
                    elapsed = time.perf_counter() - start
                    rates[name].append(args.feeds / elapsed)
                    for i, outs in enumerate(result.outputs):
                        if not np.array_equal(outs[0], reference[i % DISTINCT_FEEDS]):
                            print(f"n={n} {name}: output {i} differs from inline",
                                  file=sys.stderr)
                            return 1
                    del result
        finally:
            for session in sessions.values():
                session.close()
        rows.append({
            "n": n,
            "blas_threads": args.blas_threads[0],
            "feeds": args.feeds,
            "reps": args.reps,
            "feeds_per_s": {name: _quartiles(r) for name, r in rates.items()},
        })
    print(json.dumps(rows))
    return 0


def _render(rows: list[dict]) -> str:
    names = [name for name, _ in CONFIGS]
    head = "| n | BLAS threads | " + " | ".join(names) + " | best |"
    lines = [head, "|" + "---|" * (len(names) + 3)]
    for row in rows:
        rates = row["feeds_per_s"]
        cells = [
            f"{rates[name][1]:,.0f} ({rates[name][0]:,.0f}–{rates[name][2]:,.0f})"
            for name in names
        ]
        best = max(names, key=lambda name: rates[name][1])
        lines.append(
            f"| {row['n']} | {row['blas_threads']} | " + " | ".join(cells)
            + f" | {best} |"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--blas-threads", type=int, nargs="+",
                        default=list(BLAS_THREADS))
    parser.add_argument("--feeds", type=int, default=64,
                        help="feed sets per run_batch call")
    parser.add_argument("--reps", type=int, default=7,
                        help="timed batches per configuration (>= 5)")
    parser.add_argument("--json", default=None,
                        help="also write the rows to this file")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.reps < 5:
        parser.error("--reps must be >= 5")
    if args.child:
        return _child(args)
    rows = []
    for threads in args.blas_threads:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--child",
            "--blas-threads", str(threads), "--feeds", str(args.feeds),
            "--reps", str(args.reps), "--sizes", *map(str, args.sizes),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"BLAS threads {threads}: child failed "
                  f"(exit {proc.returncode})", file=sys.stderr)
            return proc.returncode
        rows.extend(json.loads(proc.stdout.strip().splitlines()[-1]))
    print(f"run_batch of (a @ b) @ c + a, {args.feeds} feed sets per batch, "
          f"{args.reps} alternating reps; median feeds/s (IQR)")
    print(_render(rows))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
