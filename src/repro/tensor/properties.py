"""Matrix properties: the vocabulary of linear-algebra awareness.

The paper's Experiment 3 hinges on properties (triangular, symmetric,
diagonal, tridiagonal) enabling cheaper kernels, and its Sec. III-C
discussion sketches how a framework could propagate annotations through the
computational graph (e.g. orthogonal ``Q`` ⇒ ``QᵀQ = I``).  This module
defines the property vocabulary, the implication lattice between
properties, numeric verification, and detection.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

import numpy as np

from ..errors import PropertyError


class Property(enum.Enum):
    """Structural/algebraic properties a matrix may carry.

    ``Tensor.props`` holds a frozen set of these; :func:`closure` adds all
    implied properties so consumers can test membership directly.

    Members hash by identity, in C.  ``Enum``'s own ``__hash__`` hashes the
    member's name in Python, and tracing and property inference test and
    build these sets hundreds of times per graph.  Members are singletons
    per process (unpickling returns the existing member) and compare by
    identity, so the identity hash agrees with equality.  Set iteration
    order was never stable across processes (string hashes are seeded per
    process); whatever persists a set sorts it first —
    :func:`repro.runtime.signature.signature_digest` and the graph payload
    format both do.
    """

    __hash__ = object.__hash__

    GENERAL = "general"
    SQUARE = "square"
    VECTOR = "vector"  # column (n×1) or row (1×n)
    SCALAR = "scalar"  # 1×1
    LOWER_TRIANGULAR = "lower_triangular"
    UPPER_TRIANGULAR = "upper_triangular"
    SYMMETRIC = "symmetric"
    SPD = "spd"  # symmetric positive definite
    DIAGONAL = "diagonal"
    TRIDIAGONAL = "tridiagonal"
    ORTHOGONAL = "orthogonal"
    IDENTITY = "identity"
    ZERO = "zero"
    BLOCK_DIAGONAL = "block_diagonal"
    UNIT_DIAGONAL = "unit_diagonal"  # refines triangular

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Property.{self.name}"


#: A (frozen) set of properties.
PropertySet = frozenset

ALL_PROPERTIES: tuple[Property, ...] = tuple(Property)

#: Direct implications; :func:`closure` takes the transitive closure.
IMPLICATIONS: dict[Property, frozenset[Property]] = {
    Property.IDENTITY: frozenset(
        {Property.DIAGONAL, Property.ORTHOGONAL, Property.SPD, Property.UNIT_DIAGONAL}
    ),
    Property.ZERO: frozenset({Property.DIAGONAL}),
    Property.DIAGONAL: frozenset(
        {
            Property.LOWER_TRIANGULAR,
            Property.UPPER_TRIANGULAR,
            Property.SYMMETRIC,
            Property.TRIDIAGONAL,
            Property.BLOCK_DIAGONAL,
        }
    ),
    Property.SPD: frozenset({Property.SYMMETRIC}),
    Property.TRIDIAGONAL: frozenset({Property.SQUARE}),
    Property.SYMMETRIC: frozenset({Property.SQUARE}),
    Property.ORTHOGONAL: frozenset({Property.SQUARE}),
    Property.LOWER_TRIANGULAR: frozenset({Property.SQUARE}),
    Property.UPPER_TRIANGULAR: frozenset({Property.SQUARE}),
}


def closure(props: Iterable[Property]) -> PropertySet:
    """Transitive closure of ``props`` under :data:`IMPLICATIONS`.

    >>> Property.SYMMETRIC in closure({Property.IDENTITY})
    True
    """
    out: set[Property] = set(props)
    if out.isdisjoint(IMPLICATIONS):
        return frozenset(out)
    frontier = list(out)
    while frontier:
        p = frontier.pop()
        for implied in IMPLICATIONS.get(p, ()):  # type: ignore[arg-type]
            if implied not in out:
                out.add(implied)
                frontier.append(implied)
    return frozenset(out)


def _is_square(a: np.ndarray) -> bool:
    return a.ndim == 2 and a.shape[0] == a.shape[1]


def verify_property(a: np.ndarray, prop: Property, *, atol: float = 1e-5) -> bool:
    """Numerically check that matrix ``a`` actually has ``prop``.

    Used by the test suite to keep property annotations honest, and by
    :class:`~repro.tensor.tensor.Tensor` when constructed with
    ``verify=True``.
    """
    a = np.asarray(a)
    if prop is Property.GENERAL:
        return a.ndim == 2
    if prop is Property.SQUARE:
        return _is_square(a)
    if prop is Property.VECTOR:
        return a.ndim == 2 and 1 in a.shape
    if prop is Property.SCALAR:
        return a.ndim == 2 and a.shape == (1, 1)
    if prop is Property.LOWER_TRIANGULAR:
        return _is_square(a) and bool(np.allclose(a, np.tril(a), atol=atol))
    if prop is Property.UPPER_TRIANGULAR:
        return _is_square(a) and bool(np.allclose(a, np.triu(a), atol=atol))
    if prop is Property.SYMMETRIC:
        return _is_square(a) and bool(np.allclose(a, a.T, atol=atol))
    if prop is Property.SPD:
        if not (_is_square(a) and np.allclose(a, a.T, atol=atol)):
            return False
        try:
            np.linalg.cholesky(a.astype(np.float64))
        except np.linalg.LinAlgError:
            return False
        return True
    if prop is Property.DIAGONAL:
        return _is_square(a) and bool(np.allclose(a, np.diag(np.diagonal(a)), atol=atol))
    if prop is Property.TRIDIAGONAL:
        if not _is_square(a):
            return False
        band = np.tril(np.triu(a, -1), 1)
        return bool(np.allclose(a, band, atol=atol))
    if prop is Property.ORTHOGONAL:
        if not _is_square(a):
            return False
        n = a.shape[0]
        return bool(np.allclose(a.T @ a, np.eye(n, dtype=a.dtype), atol=max(atol, 1e-4)))
    if prop is Property.IDENTITY:
        return _is_square(a) and bool(
            np.allclose(a, np.eye(a.shape[0], dtype=a.dtype), atol=atol)
        )
    if prop is Property.ZERO:
        return bool(np.allclose(a, 0.0, atol=atol))
    if prop is Property.BLOCK_DIAGONAL:
        # Without block sizes this is unverifiable beyond "square"; the
        # annotation carries the block structure separately.
        return _is_square(a)
    if prop is Property.UNIT_DIAGONAL:
        return _is_square(a) and bool(
            np.allclose(np.diagonal(a), 1.0, atol=atol)
        )
    raise PropertyError(f"unknown property {prop!r}")  # pragma: no cover


def detect_properties(a: np.ndarray, *, atol: float = 1e-5) -> PropertySet:
    """Detect the full property set of a concrete matrix by inspection.

    O(n²) scans — a real framework would never do this per-op (which is the
    paper's point: properties must be *annotated* or *propagated*, not
    re-detected), but it is invaluable for tests and for seeding
    annotations.  SPD detection is skipped unless the matrix is symmetric,
    and orthogonality is only probed for modest sizes (the check itself is
    an O(n³) product).
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise PropertyError(f"detect_properties expects a matrix, got shape {a.shape}")
    found: set[Property] = {Property.GENERAL}
    if 1 in a.shape:
        found.add(Property.VECTOR)
        if a.shape == (1, 1):
            found.add(Property.SCALAR)
    if _is_square(a):
        found.add(Property.SQUARE)
        for prop in (
            Property.ZERO,
            Property.IDENTITY,
            Property.DIAGONAL,
            Property.TRIDIAGONAL,
            Property.LOWER_TRIANGULAR,
            Property.UPPER_TRIANGULAR,
            Property.SYMMETRIC,
            Property.UNIT_DIAGONAL,
        ):
            if verify_property(a, prop, atol=atol):
                found.add(prop)
        if Property.SYMMETRIC in found and a.shape[0] <= 512:
            if verify_property(a, Property.SPD, atol=atol):
                found.add(Property.SPD)
        if a.shape[0] <= 512 and verify_property(a, Property.ORTHOGONAL, atol=atol):
            found.add(Property.ORTHOGONAL)
    return closure(found)


def merge(props: PropertySet, extra: Iterable[Property]) -> PropertySet:
    """Union + closure."""
    return closure(set(props) | set(extra))
