"""Shared fixtures for the test suite."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import settings

from repro.config import override
from repro.tensor import (
    random_diagonal,
    random_general,
    random_lower_triangular,
    random_orthogonal,
    random_spd,
    random_symmetric,
    random_tridiagonal,
    random_vector,
)

#: ``--hypothesis-profile=thorough``: the example budget for generated
#: tests that leave ``max_examples`` to the profile (the coalescer state
#: machine) — too slow for tier-1, run by CI's serve-smoke job.
settings.register_profile("thorough", max_examples=2500)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def n() -> int:
    """Default matrix size for functional tests (small, fast)."""
    return 24


@pytest.fixture
def operands(n):
    """A bundle of seeded operands at size ``n``."""
    return {
        "A": random_general(n, seed=1),
        "B": random_general(n, seed=2),
        "C": random_general(n, seed=3),
        "H": random_general(n, seed=4),
        "L": random_lower_triangular(n, seed=5),
        "S": random_symmetric(n, seed=6),
        "P": random_spd(n, seed=7),
        "Q": random_orthogonal(n, seed=8),
        "T": random_tridiagonal(n, seed=9),
        "D": random_diagonal(n, seed=10),
        "x": random_vector(n, seed=11),
        "y": random_vector(n, seed=12),
    }


@pytest.fixture
def tiny_bench_config():
    """Config override so timing-related code runs fast in tests."""
    with override(repetitions=3, warmup=1, bootstrap_samples=100):
        yield


@pytest.fixture
def hold_waves():
    """``gate, entered = hold_waves(server)`` parks every wave of a
    running ``serve.Server`` in front of the engine until the test sets
    ``gate`` — the way to hold a key busy so that later requests really
    queue behind a running wave.  ``entered`` is set once a wave is
    parked there."""

    def install(server):
        gate, entered = asyncio.Event(), asyncio.Event()
        engine = server._coalescer._dispatch

        async def held(key, items):
            entered.set()
            await gate.wait()
            return await engine(key, items)

        server._coalescer._dispatch = held
        return gate, entered

    return install
