"""Pass infrastructure."""

from __future__ import annotations

import dataclasses

from ..ir.graph import Graph
from ..ir.node import Node


@dataclasses.dataclass
class PassStats:
    """What a pass did — surfaced in experiment reports and tests."""

    name: str
    nodes_before: int = 0
    nodes_after: int = 0
    rewrites: int = 0

    @property
    def removed(self) -> int:
        return self.nodes_before - self.nodes_after


class GraphPass:
    """Base class: a graph-to-graph transformation.

    Subclasses implement :meth:`apply`; :meth:`run` wraps it with node
    counting and stores :attr:`last_stats`.  Passes must be *semantics
    preserving* — the hypothesis suite executes random graphs before and
    after every pass and compares numerically.

    Identity contract: a pass that changed nothing returns the object it
    was given (``p.run(g) is g``).  :meth:`Graph.rewrite` and
    :meth:`transform_loop_bodies` already behave that way, so a pass built
    on them inherits it; a pass that assembles its result ``Graph`` by hand
    must check for itself.  :class:`~repro.passes.pipeline.PassPipeline`
    relies on it to skip re-validating an unchanged graph.
    """

    name: str = "pass"

    def __init__(self) -> None:
        self.last_stats = PassStats(self.name)

    def apply(self, graph: Graph) -> Graph:  # pragma: no cover - abstract
        raise NotImplementedError

    def run(self, graph: Graph) -> Graph:
        stats = PassStats(self.name, nodes_before=len(graph))
        self.last_stats = stats
        out = self.apply(graph)
        stats.nodes_after = len(out)
        return out

    # -- helpers shared by subclasses -----------------------------------------

    def _count(self) -> None:
        self.last_stats.rewrites += 1

    @staticmethod
    def rebuild(node: Node, inputs: tuple[Node, ...]) -> Node:
        """Clone ``node`` with new inputs (attrs preserved)."""
        return Node(node.op, inputs, dict(node.attrs), name=node.name)

    def transform_loop_bodies(self, graph: Graph) -> Graph:
        """Recurse this pass into every ``loop`` node's body sub-graph.

        A graph without a ``loop`` node comes back as-is, without a
        rebuild walk.
        """
        if not any(n.op == "loop" for n in graph.topological()):
            return graph

        def fn(node: Node, new_inputs: tuple[Node, ...]) -> Node | None:
            if node.op != "loop":
                return None
            body: Graph = node.attrs["body"]
            new_body = self.apply(body)
            if new_body is body and all(
                a is b for a, b in zip(new_inputs, node.inputs)
            ):
                return node
            attrs = dict(node.attrs)
            attrs["body"] = new_body
            return Node("loop", new_inputs, attrs, name=node.name)

        return graph.rewrite(fn)
