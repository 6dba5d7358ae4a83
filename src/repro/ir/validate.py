"""Structural well-formedness checks for graphs.

:class:`~repro.passes.pipeline.PassPipeline` runs these on the traced
graph and after every pass of every build: a pass that corrupts shapes,
introduces unknown ops, or breaks loop-body signatures fails loudly at its
own boundary rather than producing silently wrong arithmetic downstream.

Nodes are immutable, so what was true of a node at one pass boundary is
true of the same object at the next.  Within one pipeline run the
per-node checks therefore run **once per node object** (the ``checked``
argument of :func:`validate_graph`), while the graph-level checks run on
every graph a pass changed.  What this assumes: no pass mutates a node it
was given in place (``object.__setattr__``, or writing into
``node.attrs``).  None does — nodes are immutable by construction, attrs
by convention — and a pass that did would be caught only by the full walk,
``validate_graph(graph)`` without ``checked``, which is what
``Options(validation="full")`` runs on the optimized graph.
"""

from __future__ import annotations

from ..errors import GraphError
from .graph import Graph
from .node import Node
from .ops import OP_REGISTRY


def validate_graph(
    graph: Graph, *, checked: dict[int, Node] | None = None, _depth: int = 0
) -> None:
    """Raise :class:`GraphError` if the graph is malformed.

    Checks, per node:

    * the op is registered and the arity matches;
    * the recorded shape/dtype equal what inference derives from the
      (current) inputs — catching passes that rewired inputs without
      re-deriving metadata;
    * loop bodies are themselves valid graphs with consistent signatures.

    Also verifies global acyclicity (implied by a successful topological
    walk over immutable nodes, but re-checked defensively) and that every
    declared graph input is an ``input`` node.

    ``checked`` makes the per-node checks incremental across calls: a node
    found in it is skipped, every node validated here is added to it (loop
    bodies included).  It maps ``id(node)`` to the *node*, not to a flag —
    holding the node keeps its address from being recycled for a later,
    never-validated one.  The caller owns its lifetime (one pipeline run);
    the graph-level checks ignore it.  Without it the walk starts from
    nothing and checks every node.
    """
    if _depth > 16:
        raise GraphError("loop nesting deeper than 16 — runaway graph?")
    if checked is None:
        checked = {}
    seen: set[int] = set()
    for node in graph.topological():
        if id(node) in seen:
            raise GraphError(f"node {node.name} appears twice in topological order")
        seen.add(id(node))
        if id(node) not in checked:
            _validate_node(node, _depth, checked)
            checked[id(node)] = node
    for inp in graph.inputs:
        if inp.op != "input":
            raise GraphError(f"declared input {inp.name} has op {inp.op!r}")
    for node in graph.topological():
        for i in node.inputs:
            if id(i) not in seen:
                raise GraphError(
                    f"node {node.name} references {i.name} outside the graph"
                )


def _validate_node(node: Node, depth: int, checked: dict[int, Node]) -> None:
    spec = OP_REGISTRY.get(node.op)
    if spec is None:
        raise GraphError(f"unregistered op {node.op!r} on node {node.name}")
    if spec.arity is not None and len(node.inputs) != spec.arity:
        raise GraphError(
            f"{node.name}: op {node.op} expects {spec.arity} inputs, "
            f"has {len(node.inputs)}"
        )
    spec.validate(node.inputs, node.attrs)
    shape, dtype = spec.infer(node.inputs, node.attrs)
    if tuple(shape) != tuple(node.shape):
        raise GraphError(
            f"{node.name}: recorded shape {node.shape} != inferred {shape}"
        )
    if dtype != node.dtype:
        raise GraphError(
            f"{node.name}: recorded dtype {node.dtype} != inferred {dtype}"
        )
    if node.op == "loop":
        validate_graph(node.attrs["body"], checked=checked, _depth=depth + 1)
