"""``laab`` — command-line entry point for the benchmark suite.

Examples::

    laab list                       # show available experiments
    laab run all                    # every table and figure, default size
    laab run exp2 --n 2000          # one experiment at a custom size
    laab run all --paper-scale      # n = 3000 like the paper (slow)
    laab run exp3 --json out.json   # machine-readable results
    laab run all --cache-stats      # + plan-cache hit/miss/eviction report
    laab cache-stats exp1           # run one experiment, print cache stats
    laab cache-stats exp1 --store D # + persistent plan store (warm starts)
    laab graphs                     # print Fig. 3 / Fig. 4 DAGs
    laab serve-bench --shards 2     # async serving front-end under load
    laab chaos --shards 2           # scripted fault-injection drill
    laab store-gc DIR --max-bytes N # bound a plan store (LRU eviction)

Every ``run`` executes inside its own :class:`repro.api.Session`, so the
plan-cache counters and per-plan compile/exec timings printed by
``--cache-stats`` (and the ``cache-stats`` subcommand) are scoped to that
run — the ROADMAP's "cache observability" item.
"""

from __future__ import annotations

import argparse
import sys

from ..config import config, limit_threads


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laab",
        description="Linear-Algebra-Awareness Benchmarks (IPDPSW'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment or 'all'")
    run.add_argument("experiment", help="experiment name or 'all'")
    run.add_argument("--n", type=int, default=None, help="problem size")
    run.add_argument("--reps", type=int, default=None, help="timed repetitions")
    run.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's n = 3000 (overrides --n)",
    )
    run.add_argument("--threads", type=int, default=1,
                     help="BLAS threads (paper: 1)")
    run.add_argument("--json", default=None, help="also write results as JSON")
    run.add_argument("--markdown", default=None,
                     help="also write results as markdown")
    run.add_argument(
        "--cache-stats",
        action="store_true",
        help="print plan-cache hits/misses/evictions and per-plan timings "
             "after the run",
    )
    _add_mode_flags(run)

    cache = sub.add_parser(
        "cache-stats",
        help="run one experiment (default exp1) and print the session's "
             "plan-cache statistics",
    )
    cache.add_argument("experiment", nargs="?", default="exp1",
                       help="experiment name or 'all'")
    cache.add_argument("--n", type=int, default=256, help="problem size")
    cache.add_argument("--reps", type=int, default=3,
                       help="timed repetitions")
    cache.add_argument("--threads", type=int, default=1,
                       help="BLAS threads (paper: 1)")
    _add_mode_flags(cache)

    serve = sub.add_parser(
        "serve-bench",
        help="drive the async serving front-end (repro.serve) with a "
             "closed-loop load and report coalescing speedup, wave "
             "occupancy and latency percentiles",
    )
    serve.add_argument("--requests", type=int, default=256,
                       help="total requests per timed run")
    serve.add_argument("--concurrency", type=int, default=8,
                       help="closed-loop clients in the coalesced run "
                            "(the baseline always uses 1)")
    serve.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="dispatch waves through N worker processes (0 or omitted: "
             "in-process execution)",
    )
    serve.add_argument("--max-wave", type=int, default=8,
                       help="coalescer occupancy flush threshold")
    serve.add_argument("--max-delay", type=float, default=0.002,
                       help="upper bound on time queued behind a "
                            "running wave, seconds")
    serve.add_argument("--loops", type=int, default=12,
                       help="chain length of the dispatch-bound workload")
    serve.add_argument("--threads", type=int, default=1,
                       help="BLAS threads (paper: 1)")
    serve.add_argument(
        "--json", default=None, metavar="FILE",
        help="merge the serve_* numbers into FILE (read-modify-write, so "
             "other keys already in FILE are kept)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run the scripted fault-injection drill (repro.chaos): "
             "crash/hang/corrupt/store/serve scenarios, asserting "
             "bit-correct answers or typed errors and zero leaks",
    )
    chaos.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="worker processes per drill pool",
    )
    chaos.add_argument("--feeds", type=int, default=8,
                       help="feed sets per round (must divide by --shards)")
    chaos.add_argument("--wave-deadline", type=float, default=1.0,
                       help="hung-worker detection deadline, seconds")
    chaos.add_argument(
        "--start-method", default=None,
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method (default: fork if available)",
    )
    chaos.add_argument("--threads", type=int, default=1,
                       help="BLAS threads (paper: 1)")

    store_gc = sub.add_parser(
        "store-gc",
        help="garbage-collect a persistent plan store: remove orphan "
             "tmp/sidecar files, sweep dangling aliases, and (with "
             "--max-bytes) evict least-recently-accessed artifacts "
             "until the store fits",
    )
    store_gc.add_argument("dir", help="plan store directory")
    store_gc.add_argument("--max-bytes", type=int, default=None,
                          help="evict LRU artifacts until objects/ fits")
    store_gc.add_argument(
        "--grace", type=float, default=None, metavar="SECONDS",
        help="protect files younger than this (default 60s) — the "
             "window that keeps mid-publish artifacts safe",
    )

    sub.add_parser("list", help="list experiments")
    graphs = sub.add_parser("graphs",
                            help="print the Fig. 3 / Fig. 4 computational graphs")
    graphs.add_argument("--n", type=int, default=128)
    return parser


def _add_mode_flags(parser: argparse.ArgumentParser) -> None:
    """Execution-mode knobs shared by ``run`` and ``cache-stats``."""
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="route batched execution through N worker processes with "
             "shared-memory feed rings (the GIL-free dispatch path); the "
             "session caches one ShardPool per plan",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persistent plan store directory: warm-start plans from "
             "content-addressed on-disk artifacts (skipping the "
             "optimization passes and the cold compile), write misses "
             "back, and report store size, hit/miss/write counts and "
             "the build seconds warm starts saved",
    )


def _cmd_list() -> int:
    from ..bench.registry import EXPERIMENTS

    width = max(len(k) for k in EXPERIMENTS)
    for name, info in sorted(EXPERIMENTS.items()):
        print(f"{name.ljust(width)}  {info.paper_artifact:<10}  {info.description}")
    return 0


def _cmd_graphs(n: int) -> int:
    from ..frameworks import tfsim
    from ..ir.pretty import render_graph
    from ..tensor import random_general

    a = random_general(n, seed=1)
    b = random_general(n, seed=2)

    @tfsim.function
    def parenthesized(p, q):
        return tfsim.transpose(tfsim.transpose(p) @ q) @ (tfsim.transpose(p) @ q)

    @tfsim.function
    def unparenthesized(p, q):
        return tfsim.transpose(tfsim.transpose(p) @ q) @ tfsim.transpose(p) @ q

    print(render_graph(parenthesized.initial_graph(a, b),
                       title="Fig. 3 initial: (AᵀB)ᵀ(AᵀB)"))
    print()
    print(render_graph(parenthesized.optimized_graph(a, b),
                       title="Fig. 3 optimized: (AᵀB)ᵀ(AᵀB)"))
    print()
    print(render_graph(unparenthesized.optimized_graph(a, b),
                       title="Fig. 4: (AᵀB)ᵀAᵀB (no duplicates -> no CSE)"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    limit_threads(args.threads)
    # Experiments import numpy transitively; registration happens here so
    # limit_threads above is set before any BLAS pool spins up.
    from .. import experiments  # noqa: F401
    from ..api import Session
    from ..bench.registry import EXPERIMENTS, get_experiment

    n = 3000 if args.paper_scale else args.n
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    tables = []
    # One session per run: the experiments' graph-mode functions compile
    # into it (they resolve the ambient session), giving scoped, reportable
    # plan-cache statistics.
    quiet = getattr(args, "quiet_tables", False)
    # Session-level knobs reach every decorated function without touching
    # a single experiment: the decorators compile into the ambient session.
    with Session(
        shards=getattr(args, "shards", None),
        plan_store=getattr(args, "store", None),
    ) as session:
        for name in names:
            info = get_experiment(name)
            if quiet:
                print(f">>> {info.name}: warming plan cache "
                      f"(n = {n}, reps = {args.reps})")
            else:
                print(f"\n>>> {info.name} ({info.paper_artifact}): "
                      f"{info.description}")
            table = info.fn(n=n, repetitions=args.reps)
            tables.append(table)
            if not quiet:
                print(table.render())
        if getattr(args, "cache_stats", False):
            print("\n== plan-cache statistics ==")
            print(session.stats().render())
        if session.plan_store is not None:
            print("\n== persistent plan store ==")
            print(session.plan_store.render())
    if args.json:
        import json

        payload = [json.loads(t.to_json()) for t in tables]
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {args.json}")
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write("\n\n".join(t.to_markdown() for t in tables))
        print(f"wrote {args.markdown}")
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    limit_threads(args.threads)
    from ..serve.bench import serve_bench

    result = serve_bench(
        requests=args.requests,
        concurrency=args.concurrency,
        shards=args.shards,
        max_wave=args.max_wave,
        max_delay=args.max_delay,
        loops=args.loops,
    )
    print(result.render())
    if args.json:
        import json
        import os

        existing = {}
        if os.path.exists(args.json):
            with open(args.json) as fh:
                existing = json.load(fh)
        existing.update(result.numbers)
        with open(args.json, "w") as fh:
            json.dump(existing, fh, indent=2)
        print(f"\nmerged serve_* keys into {args.json}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    limit_threads(args.threads)
    from ..chaos import chaos_run

    report = chaos_run(
        shards=args.shards,
        feeds=args.feeds,
        wave_deadline=args.wave_deadline,
        start_method=args.start_method,
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_store_gc(args: argparse.Namespace) -> int:
    import os

    from ..runtime.store import PlanStore

    if not os.path.isdir(args.dir):
        print(f"error: {args.dir!r} is not a directory", file=sys.stderr)
        return 2
    store = PlanStore(args.dir)
    stats = store.gc(max_bytes=args.max_bytes, grace_seconds=args.grace)
    print(stats.render())
    print(store.render())
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    """``laab cache-stats`` ≡ ``laab run --cache-stats`` with result
    tables suppressed — one code path, no drift between the two."""
    return _cmd_run(argparse.Namespace(
        experiment=args.experiment,
        n=args.n,
        reps=args.reps,
        paper_scale=False,
        threads=args.threads,
        json=None,
        markdown=None,
        cache_stats=True,
        quiet_tables=True,
        shards=args.shards,
        store=args.store,
    ))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        from .. import experiments  # noqa: F401

        return _cmd_list()
    if args.command == "graphs":
        return _cmd_graphs(args.n)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "cache-stats":
        return _cmd_cache_stats(args)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "store-gc":
        return _cmd_store_gc(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
