"""Canonical structural signatures for graphs.

A signature is a hashable value with the property that two graphs compare
equal iff they describe the same computation: same ops, shapes, dtypes,
attrs (including property annotations and transpose flags), same wiring,
same input order and same outputs.  Node *identity* and node *names* are
deliberately excluded — names carry trace ids, so two traces of the same
Python function produce different names for structurally identical graphs,
and those must collide in the :class:`~repro.runtime.cache.PlanCache`.

The topological order of :meth:`Graph.topological` is deterministic given
structure (iterative DFS from the outputs in declaration order), so the
per-node index assignment is canonical and no graph isomorphism search is
needed.

:func:`signature_digest` reduces a signature to a hex digest that is
stable across processes — what the persistent plan store names its
artifacts by.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any

import numpy as np

from ..ir.graph import Graph
from ..ir.node import PLAIN_ATTR_TYPES, Node


@functools.cache
def _dtype_str(dtype: np.dtype) -> str:
    """``str(dtype)``, computed once per dtype: numpy builds the string
    afresh on every call (~3 µs), and a signature asks once per node."""
    return str(dtype)


def _attr_value_key(value: Any) -> Any:
    """Hashable, structure-respecting encoding of one attr value."""
    if type(value) in PLAIN_ATTR_TYPES:
        return value
    if isinstance(value, np.ndarray):
        digest = hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest()
        return ("ndarray", value.shape, str(value.dtype), digest)
    if isinstance(value, Graph):
        # Loop bodies: recurse — repr() would collapse distinct bodies
        # with equal op histograms onto one key.
        return ("graph", graph_signature(value))
    if isinstance(value, (frozenset, tuple, str, int, float, bool, type(None))):
        return value
    return ("repr", repr(value))


def _node_key(node: Node, index_of: dict[int, int]) -> tuple:
    attrs = tuple(
        (k, _attr_value_key(node.attrs[k])) for k in sorted(node.attrs)
    )
    return (
        node.op,
        node.shape,
        _dtype_str(node.dtype),
        attrs,
        tuple([index_of[id(i)] for i in node.inputs]),
    )


def graph_signature(graph: Graph) -> tuple:
    """Canonical structural key of ``graph`` (see module docstring).

    Declared-but-unreachable inputs take part with index ``-1`` plus their
    shape/dtype: they still consume a positional feed slot, so plans for
    graphs that differ only in dead inputs must not be interchanged.

    Computed once per graph object and kept on it (graphs are immutable),
    so a plan-cache lookup costs a hash, not a graph walk.
    """
    cached = graph._signature_cache
    if cached is not None:
        return cached
    order = graph.topological()
    index_of = {id(n): i for i, n in enumerate(order)}
    nodes = tuple(_node_key(n, index_of) for n in order)
    inputs = tuple(
        (index_of.get(id(n), -1), n.shape, _dtype_str(n.dtype))
        for n in graph.inputs
    )
    outputs = tuple(index_of[id(o)] for o in graph.outputs)
    graph._signature_cache = signature = (nodes, inputs, outputs)
    return signature


def _canonical(value: Any) -> Any:
    """Process-independent form of one signature component.

    Signatures are nested tuples of primitives — except the property-
    annotation *frozensets*, whose iteration (and hence ``repr``) order
    follows per-process hash randomization.  Sorting their elements by
    canonical repr makes the digest identical across runs, which is the
    whole point of persisting it.
    """
    if isinstance(value, tuple):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, frozenset):
        return ("frozenset",) + tuple(
            sorted(repr(_canonical(v)) for v in value)
        )
    return value


def signature_digest(signature: tuple) -> str:
    """Stable hex digest of a structural plan signature.

    ndarray payloads are already reduced to content digests inside the
    signature and set-valued attrs are canonicalized here, so equal
    signatures digest equally in every process and across runs.
    """
    return hashlib.sha1(repr(_canonical(signature)).encode()).hexdigest()
