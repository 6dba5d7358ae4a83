"""Operand generators for the experiments — one seeded bundle per run.

Every experiment draws its operands from a :class:`Workloads` instance so
that (a) regeneration is bit-reproducible, and (b) all implementations of
one test expression see the *same* data (paper methodology: only the
implementation varies).
"""

from __future__ import annotations

import numpy as np

from ..config import config
from ..tensor import (
    Tensor,
    random_diagonal,
    random_general,
    random_lower_triangular,
    random_orthogonal,
    random_spd,
    random_tridiagonal,
    random_vector,
)


class Workloads:
    """Seeded operand factory for one experiment run at size ``n``."""

    def __init__(self, n: int, *, seed: int | None = None) -> None:
        self.n = n
        self.seed = config.seed if seed is None else seed

    def _s(self, offset: int) -> int:
        return self.seed + offset

    # -- dense operands ---------------------------------------------------------

    def general(self, tag: int = 0) -> Tensor:
        """A dense n×n matrix (distinct ``tag`` → distinct data)."""
        return random_general(self.n, seed=self._s(100 + tag))

    def general_rect(self, rows: int, cols: int, tag: int = 0) -> Tensor:
        return random_general(rows, cols, seed=self._s(200 + tag))

    def vector(self, tag: int = 0) -> Tensor:
        """A dense n×1 column vector."""
        return random_vector(self.n, seed=self._s(300 + tag))

    # -- structured operands ------------------------------------------------------

    def lower_triangular(self) -> Tensor:
        return random_lower_triangular(self.n, seed=self._s(400))

    def tridiagonal(self) -> Tensor:
        return random_tridiagonal(self.n, seed=self._s(500))

    def diagonal(self) -> Tensor:
        return random_diagonal(self.n, seed=self._s(600))

    def orthogonal(self) -> Tensor:
        return random_orthogonal(self.n, seed=self._s(700))

    def spd(self) -> Tensor:
        return random_spd(self.n, seed=self._s(800))

    # -- blocked operands (Experiment 4) ----------------------------------------------

    def blocks(self) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """(A1, A2, B1, B2) with A_i ∈ R^{n/2×n/2}, B_i ∈ R^{n/2×n}."""
        half = self.n // 2
        a1 = random_general(half, seed=self._s(900))
        a2 = random_general(half, seed=self._s(901))
        b1 = random_general(half, self.n, seed=self._s(902))
        b2 = random_general(half, self.n, seed=self._s(903))
        return a1, a2, b1, b2

    # -- raw arrays for the reference columns ------------------------------------------

    @staticmethod
    def blas_operand(t: Tensor) -> np.ndarray:
        """C-ordered array for a BLAS reference call: the layout the
        kernel layer's row-major calls read in place, so no f2py copy
        lands inside the timed region."""
        return np.ascontiguousarray(t.data)

    @staticmethod
    def fortran(t: Tensor) -> np.ndarray:
        """Fortran-ordered copy for a LAPACK reference call (LAPACK stays
        column-major: what a hand-written harness passes, avoiding the
        f2py copy inside the timed region)."""
        return np.asfortranarray(t.data)
