"""End-to-end smoke of the persistent plan store across two processes.

Run this script **twice** with the same store directory::

    python benchmarks/store_smoke.py /tmp/plan-store

The first invocation finds an empty store: every workload function is a
cold compile (plan-cache miss + store write), and the build wall time
plus the output digests land in a marker file inside the store dir.
The second invocation is a brand-new process with nothing in memory —
exactly a service restart — and must:

* compile **zero** plans (plan-cache ``misses == 0``; every build is a
  ``store_hits`` warm start — one per workload signature);
* produce bit-identical outputs (digests match the cold run's);
* build faster than the cold run's recorded wall time.

Any violated invariant exits non-zero — this is the CI ``store-smoke``
job's assertion surface.  The workload is the dispatch-bound chain the
runtime bench uses (many tiny kernels — the regime where the skipped
optimization pipeline dominates the build) plus a second expression so
the store serves more than one signature.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from repro import api
from repro.tensor import random_general

MARKER = "store_smoke_cold.json"


def _chain(a, b, c):
    acc = a
    for _ in range(12):
        acc = (acc @ b + c - a) @ a.T
    return acc + acc.T


def _gram(a, b, c):
    return (a.T @ b).T @ (a.T @ b) + c


WORKLOAD = (_chain, _gram)


def _build_and_run(store_dir: str):
    """Compile + execute every workload fn in one session; returns
    (session stats, build wall seconds, output digests)."""
    feeds = [random_general(16, seed=s) for s in (1, 2, 3)]
    session = api.Session(plan_store=store_dir)
    digests = []
    t0 = time.perf_counter()
    for fn in WORKLOAD:
        out = session.compile(fn)(*feeds)
        digests.append(hashlib.sha1(out.data.tobytes()).hexdigest())
    wall = time.perf_counter() - t0
    stats = session.stats()
    session.close()
    return stats, wall, digests


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("store_dir", help="plan store directory shared "
                                          "by both invocations")
    args = parser.parse_args(argv)
    marker = os.path.join(args.store_dir, MARKER)
    warm_phase = os.path.exists(marker)

    stats, wall, digests = _build_and_run(args.store_dir)
    n = len(WORKLOAD)
    failures = []

    if not warm_phase:
        if stats.misses != n:
            failures.append(
                f"cold run expected {n} compiles, saw {stats.misses}"
            )
        if stats.store_writes != n:
            failures.append(
                f"cold run expected {n} store writes, saw "
                f"{stats.store_writes}"
            )
        with open(marker, "w") as fh:
            json.dump({"wall_seconds": wall, "digests": digests}, fh)
        print(
            f"store-smoke COLD: {stats.misses} compile(s), "
            f"{stats.store_writes} artifact(s) written, build wall "
            f"{wall:.4f}s"
        )
    else:
        with open(marker) as fh:
            cold = json.load(fh)
        if stats.misses != 0:
            failures.append(
                f"warm run compiled {stats.misses} plan(s); expected 0"
            )
        if stats.store_hits != n:
            failures.append(
                f"warm run expected {n} store hits, saw {stats.store_hits}"
            )
        if digests != cold["digests"]:
            failures.append("warm outputs differ from the cold run's")
        if wall >= cold["wall_seconds"]:
            failures.append(
                f"warm build wall {wall:.4f}s not below cold "
                f"{cold['wall_seconds']:.4f}s"
            )
        print(
            f"store-smoke WARM: 0 compiles expected "
            f"({stats.misses} seen), {stats.store_hits}/{n} warm starts, "
            f"build wall {wall:.4f}s vs cold {cold['wall_seconds']:.4f}s "
            f"({cold['wall_seconds'] / wall:.2f}x)"
        )
    print(stats.render())

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
