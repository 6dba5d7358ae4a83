"""Transfer functions: how matrix properties flow through operations.

Each function takes operand :class:`~repro.tensor.properties.Property` sets
(already closed under implication) and returns the closed property set of
the result.  The rules are deliberately *sound but incomplete* — they only
assert properties that always hold; anything uncertain degrades to
``GENERAL``.

These rules power both the eager :class:`~repro.tensor.tensor.Tensor`
bookkeeping and the IR dataflow in :mod:`repro.properties.inference`, which
in turn feeds the property-aware kernel dispatcher (the optimization the
paper finds missing from TF/PyT in Experiment 3) and algebraic
simplifications such as ``QᵀQ → I`` for orthogonal ``Q`` (Sec. III-C
discussion).
"""

from __future__ import annotations

from ..tensor.properties import Property, PropertySet, closure

_EMPTY: PropertySet = frozenset({Property.GENERAL})


def _base(*props: Property) -> PropertySet:
    return closure({Property.GENERAL, *props})


_TRANSPOSE_SWAP: dict[Property, Property] = {
    Property.LOWER_TRIANGULAR: Property.UPPER_TRIANGULAR,
    Property.UPPER_TRIANGULAR: Property.LOWER_TRIANGULAR,
}
_TRANSPOSE_KEEP: PropertySet = frozenset({
    Property.SQUARE,
    Property.VECTOR,
    Property.SCALAR,
    Property.SYMMETRIC,
    Property.SPD,
    Property.DIAGONAL,
    Property.TRIDIAGONAL,
    Property.ORTHOGONAL,
    Property.IDENTITY,
    Property.ZERO,
    Property.BLOCK_DIAGONAL,
    Property.UNIT_DIAGONAL,
})


def transpose_props(p: PropertySet) -> PropertySet:
    """Properties of ``Aᵀ`` given properties of ``A``.

    Lower and upper triangular swap; symmetric/diagonal/tridiagonal/
    orthogonal/identity/zero are preserved.
    """
    out: set[Property] = {Property.GENERAL}
    for prop in p:
        if prop in _TRANSPOSE_SWAP:
            out.add(_TRANSPOSE_SWAP[prop])
        elif prop in _TRANSPOSE_KEEP:
            out.add(prop)
    return closure(out)


def matmul_props(
    pa: PropertySet,
    pb: PropertySet,
    *,
    b_is_a_transposed: bool = False,
    square_result: bool = False,
) -> PropertySet:
    """Properties of ``A @ B``.

    Key rules (all standard):

    * ``zero @ X = zero`` and ``X @ zero = zero``;
    * ``identity @ X = X``'s properties (and symmetrically);
    * diagonal·diagonal = diagonal; lower·lower = lower; upper·upper = upper;
    * orthogonal·orthogonal = orthogonal;
    * ``A @ Aᵀ`` is symmetric (SPD if A is square nonsingular — we only
      claim symmetric, staying sound);
    * ``Qᵀ Q = identity`` for orthogonal ``Q`` — claimed only when the
      caller signals ``b_is_a_transposed`` (structural knowledge the graph
      has, the data alone does not).
    """
    out: set[Property] = {Property.GENERAL}
    if Property.ZERO in pa or Property.ZERO in pb:
        out.add(Property.ZERO)
        if square_result:
            out.add(Property.SQUARE)
        return closure(out)
    if Property.IDENTITY in pa:
        return closure(set(pb) | {Property.GENERAL})
    if Property.IDENTITY in pb:
        return closure(set(pa) | {Property.GENERAL})
    if b_is_a_transposed:
        # A @ Aᵀ (or Aᵀ @ A): always symmetric, in fact PSD; orthogonal A
        # makes it the identity.
        if Property.ORTHOGONAL in pa:
            out.add(Property.IDENTITY)
        out.add(Property.SYMMETRIC)
    if Property.DIAGONAL in pa and Property.DIAGONAL in pb:
        out.add(Property.DIAGONAL)
    if Property.LOWER_TRIANGULAR in pa and Property.LOWER_TRIANGULAR in pb:
        out.add(Property.LOWER_TRIANGULAR)
    if Property.UPPER_TRIANGULAR in pa and Property.UPPER_TRIANGULAR in pb:
        out.add(Property.UPPER_TRIANGULAR)
    if Property.ORTHOGONAL in pa and Property.ORTHOGONAL in pb:
        out.add(Property.ORTHOGONAL)
    if square_result:
        out.add(Property.SQUARE)
    return closure(out)


def add_props(pa: PropertySet, pb: PropertySet, *, negate_b: bool = False) -> PropertySet:
    """Properties of ``A + B`` (or ``A - B`` with ``negate_b``).

    Structural zero patterns are closed under addition: diagonal+diagonal,
    triangular+triangular (same side), tridiagonal+tridiagonal, symmetric+
    symmetric.  ``X + zero`` keeps X's structure.  SPD survives addition of
    SPD (and subtraction does not).
    """
    if Property.ZERO in pa and Property.ZERO in pb:
        return _base(Property.ZERO, Property.SQUARE) if Property.SQUARE in pa else _base(Property.ZERO)
    if Property.ZERO in pa:
        base = set(pb) - ({Property.SPD} if negate_b else set())
        return closure(base | {Property.GENERAL})
    if Property.ZERO in pb:
        return closure(set(pa) | {Property.GENERAL})
    out: set[Property] = {Property.GENERAL}
    closed_under_add = (
        Property.SQUARE,
        Property.VECTOR,
        Property.SCALAR,
        Property.DIAGONAL,
        Property.TRIDIAGONAL,
        Property.LOWER_TRIANGULAR,
        Property.UPPER_TRIANGULAR,
        Property.SYMMETRIC,
    )
    for prop in closed_under_add:
        if prop in pa and prop in pb:
            out.add(prop)
    if not negate_b and Property.SPD in pa and Property.SPD in pb:
        out.add(Property.SPD)
    return closure(out)


def scale_props(p: PropertySet, alpha: float) -> PropertySet:
    """Properties of ``alpha * A``.

    Zero scaling produces a zero matrix; otherwise structural zero patterns
    and symmetry survive, SPD survives positive scaling, identity and
    orthogonality generally do not (except the trivial alpha == 1).
    """
    if alpha == 0.0:
        keep_shape = {p_ for p_ in p if p_ in (Property.SQUARE, Property.VECTOR, Property.SCALAR)}
        return closure({Property.GENERAL, Property.ZERO, *keep_shape})
    if alpha == 1.0:
        return closure(set(p) | {Property.GENERAL})
    out: set[Property] = {Property.GENERAL}
    keep = (
        Property.SQUARE,
        Property.VECTOR,
        Property.SCALAR,
        Property.DIAGONAL,
        Property.TRIDIAGONAL,
        Property.LOWER_TRIANGULAR,
        Property.UPPER_TRIANGULAR,
        Property.SYMMETRIC,
        Property.ZERO,
        Property.BLOCK_DIAGONAL,
    )
    for prop in p:
        if prop in keep:
            out.add(prop)
    if alpha > 0 and Property.SPD in p:
        out.add(Property.SPD)
    return closure(out)


def negate_props(p: PropertySet) -> PropertySet:
    """Properties of ``-A`` — scaling by -1."""
    return scale_props(p, -1.0)


def slice_props(p: PropertySet, rows: int, cols: int) -> PropertySet:
    """Properties of a rectangular slice: only shape facts survive."""
    out: set[Property] = {Property.GENERAL}
    if rows == cols:
        out.add(Property.SQUARE)
    if rows == 1 or cols == 1:
        out.add(Property.VECTOR)
    if rows == 1 and cols == 1:
        out.add(Property.SCALAR)
    if Property.ZERO in p:
        out.add(Property.ZERO)
    return closure(out)
