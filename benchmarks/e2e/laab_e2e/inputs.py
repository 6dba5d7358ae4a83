"""Seeded inputs: operand values, the ``cold_compile`` graph draw and the
open-loop arrival schedule.  The same seed gives the same inputs; the
program under test receives only what is generated here.

Every expression is a plain Python function over objects that support
``@ + - * .T [i, j]`` — the program's tensors and numpy arrays alike — so the
float64 oracle in :mod:`refs` evaluates the *same* hand-written expression
in numpy, never the plan or the interpreter under test.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Callable

import numpy as np

DTYPE = np.float32

# Stream tags, so that adding a draw to one stream moves no other.
_TAG_CHAIN, _TAG_CHAIN128, _TAG_SUITE, _TAG_GRAPHS, _TAG_ARRIVALS = range(1, 6)


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *tags])


def dense(rng: np.random.Generator, m: int, n: int | None = None) -> np.ndarray:
    """Uniform [-1, 1) / sqrt(max(m, n)): products of long chains stay O(1)."""
    n = m if n is None else n
    scale = 1.0 / np.sqrt(max(m, n))
    return ((rng.random((m, n)) * 2.0 - 1.0) * scale).astype(DTYPE)


@dataclasses.dataclass
class Case:
    """One expression with its operands."""

    name: str
    fn: Callable
    arrays: list[np.ndarray]
    #: Property annotations per operand (names of ``repro.tensor.Property``).
    props: list[tuple[str, ...]]
    pipeline: str = "default"
    #: The expression as text — the graph's signature for the seed tests.
    descr: str = ""

    def signature(self) -> str:
        shapes = ",".join(f"{a.shape}{p}" for a, p in zip(self.arrays, self.props))
        return f"{self.name}|{self.pipeline}|{self.descr}|{shapes}"


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# -- the dispatch-bound chain ---------------------------------------------------

CHAIN_LOOPS = 12


def chain_fn(a, b, c):
    """The legacy 53-node chain of ``benchmarks/test_runtime_bench.py``."""
    acc = a
    for _ in range(CHAIN_LOOPS):
        acc = (acc @ b + c - a) @ a.T
    return acc + acc.T


def chain_case(seed: int, n: int = 16) -> Case:
    rng = rng_for(seed, _TAG_CHAIN)
    return Case(
        "chain", chain_fn, [dense(rng, n) for _ in range(3)], [()] * 3,
        descr=f"acc=(acc@b+c-a)@a.T x{CHAIN_LOOPS}; acc+acc.T",
    )


def chain128_fn(p, q, v):
    return (p @ q) @ v


def chain128_case(seed: int, n: int = 128) -> Case:
    """``(A@B)@x`` on float (non-integer) feeds: reassociation is inexact, so
    the autotuner's bit-identity gate should reject it (ROADMAP item 4)."""
    rng = rng_for(seed, _TAG_CHAIN128)
    return Case(
        "chain128", chain128_fn,
        [dense(rng, n), dense(rng, n), dense(rng, n, 1)], [()] * 3,
        descr="(p@q)@v",
    )


def feed_pool(case: Case, seed: int, count: int) -> list[list[np.ndarray]]:
    """``count`` distinct feed sets shaped like ``case.arrays``."""
    rng = rng_for(seed, _TAG_ARRIVALS, len(case.arrays[0]))
    return [[dense(rng, *a.shape) for a in case.arrays] for _ in range(count)]


# -- the paper's expressions (Tables II-VI) ---------------------------------------


def paper_suite(seed: int, n: int = 512) -> list[Case]:
    rng = rng_for(seed, _TAG_SUITE)
    a, b, c, h = (dense(rng, n) for _ in range(4))
    x, y = dense(rng, n, 1), dense(rng, n, 1)
    lower = np.tril(dense(rng, n))
    bands = [(rng.random(k) * 2 - 1).astype(DTYPE) for k in (n - 1, n, n - 1)]
    tri = (np.diag(bands[0], -1) + np.diag(bands[1]) + np.diag(bands[2], 1)).astype(DTYPE)
    diag = np.diag((rng.random(n) * 2 - 1).astype(DTYPE))
    g = ()
    return [
        Case("cse_sum", lambda p, q: p.T @ q + p.T @ q, [a, b], [g, g],
             descr="A.T@B + A.T@B"),
        Case("cse_gram", lambda p, q: (p.T @ q).T @ (p.T @ q), [a, b], [g, g],
             descr="(A.T@B).T @ (A.T@B)"),
        Case("chain_rl", lambda m, v: m.T @ m @ v, [h, x], [g, g],
             descr="H.T@H@x"),
        Case("chain_mixed", lambda m, u, v: m.T @ u @ v.T @ m, [h, y, x], [g, g, g],
             descr="H.T@y@x.T@H"),
        Case("dist", lambda p, q, r: p @ q + p @ r, [a, b, c], [g, g, g],
             descr="A@B + A@C"),
        Case("eq10", lambda p, m, v: (p - m.T @ m) @ v, [a, h, x], [g, g, g],
             descr="(A - H.T@H)@x"),
        Case("trmm", lambda l, q: l @ q, [lower, b], [("LOWER_TRIANGULAR",), g],
             descr="L@B"),
        Case("tridiag", lambda t, q: t @ q, [tri, b], [("TRIDIAGONAL",), g],
             descr="T@B"),
        Case("diag", lambda d, q: d @ q, [diag, b], [("DIAGONAL",), g],
             descr="D@B"),
        Case("partial", lambda p, q: (p @ q)[2, 2], [a, b], [g, g],
             descr="(A@B)[2,2]"),
    ]


def gemm_case(seed: int, n: int = 512) -> Case:
    """A plain ``A@B`` — what the feed/output layout copies cost on top of
    one GEMM (Motivation: 3.2 ms against 1.88 ms in numpy)."""
    rng = rng_for(seed, _TAG_SUITE, 1)
    return Case("gemm", lambda p, q: p @ q, [dense(rng, n), dense(rng, n)],
                [(), ()], descr="A@B")


# -- the cold_compile graph draw ------------------------------------------------------

_SCALES = (0.5, -1.0, 1.5, 0.25)


def _program_fn(start: int, steps: tuple) -> Callable:
    def fn(*ops):
        acc = ops[start]
        for kind, operand, arg in steps:
            x = ops[operand]
            if kind == "mm":
                acc = acc @ (x.T if arg else x)
            elif kind == "rmm":
                acc = x @ acc
            elif kind == "add":
                acc = acc + x
            elif kind == "sub":
                acc = acc - x
            elif kind == "scale":
                acc = acc * arg
            else:  # "t"
                acc = acc.T
        return acc

    return fn


def draw_graphs(seed: int, count: int = 24) -> list[Case]:
    """``count`` chains of 2-24 links (a product followed by up to three
    elementwise ops: ~10-100 nodes) over n in {16, 32, 48}.  Every fourth
    has a triangular and a tridiagonal operand and compiles under the aware
    pipeline.

    The *shape* of the set is a fixed ladder — graph ``i`` always has the
    same length, size and sequence of op kinds — so that every seed costs
    the same to compile and to evaluate eagerly; the seed draws which operand
    each op takes, on which side a product multiplies, the transposes, the
    scale factors and the values.  An operand is added or subtracted at most
    once between two products: ``acc + x - x`` cancels catastrophically in
    float32 and no implementation could pass the oracle.
    """
    rng = rng_for(seed, _TAG_GRAPHS)
    cases = []
    for i in range(count):
        n = (16, 32, 48)[i % 3]
        links = 2 + (i * 22) // max(1, count - 1)
        structured = i % 4 == 3
        steps: list[tuple] = []
        for link in range(links):
            steps.append((("mm", "rmm")[int(rng.integers(2))],
                          int(rng.integers(3)), bool(rng.integers(2))))
            unused = [0, 1, 2]
            for position in range((link + i) % 4):
                kind = ("add", "scale", "sub", "t")[(link + i + position) % 4]
                if kind in ("add", "sub"):
                    operand = unused.pop(int(rng.integers(len(unused))))
                    steps.append((kind, operand, None))
                elif kind == "t":
                    steps.append(("t", 0, None))
                else:
                    steps.append(("scale", 0, _SCALES[int(rng.integers(len(_SCALES)))]))
        start = int(rng.integers(3))
        arrays = [dense(rng, n) for _ in range(3)]
        props: list[tuple[str, ...]] = [(), (), ()]
        if structured:
            arrays[0] = np.tril(arrays[0])
            props[0] = ("LOWER_TRIANGULAR",)
            arrays[1] = np.triu(np.tril(arrays[1], 1), -1)
            props[1] = ("TRIDIAGONAL",)
        cases.append(Case(
            f"g{i:02d}", _program_fn(start, tuple(steps)), arrays, props,
            pipeline="aware" if structured else "default",
            descr=f"n={n} start={start} steps={steps}",
        ))
    return cases


# -- the open-loop arrival schedule -----------------------------------------------------


def arrival_schedule(
    seed: int, rate: float, seconds: float, weights: tuple[float, ...],
    tenants: int,
) -> list[tuple[float, int, int]]:
    """Poisson arrivals: ``(due offset in seconds, kind, tenant)``."""
    rng = rng_for(seed, _TAG_ARRIVALS, int(rate))
    count = int(rate * seconds * 1.2) + 16
    due = np.cumsum(rng.exponential(1.0 / rate, count))
    due = due[due < seconds]
    p = np.asarray(weights, dtype=float) / sum(weights)
    kinds = rng.choice(len(weights), size=len(due), p=p)
    who = rng.integers(tenants, size=len(due))
    return [(float(t), int(k), int(w)) for t, k, w in zip(due, kinds, who)]
