"""Graph container: outputs + reachable nodes, topological order, rebuilds.

A Graph is defined by its output nodes; everything reachable from them is
"the graph".  Nodes are immutable, so passes transform graphs by *rebuild*:
a post-order walk that maps every node to its replacement (see
:meth:`Graph.rewrite`), sharing unchanged sub-DAGs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from ..errors import GraphError
from .node import Node


class Graph:
    """An immutable-by-convention computational DAG.

    Parameters
    ----------
    outputs:
        The nodes whose values the graph computes (Fig. 3's ``ret`` nodes).
    inputs:
        Optional explicit input order.  When omitted, input nodes are
        collected in discovery (topological) order.  Explicit order matters
        for graphs used as loop bodies or traced functions, where positional
        binding is part of the contract.
    """

    __slots__ = ("outputs", "inputs", "_topo_cache", "_signature_cache")

    def __init__(self, outputs: Iterable[Node], inputs: Iterable[Node] | None = None):
        self.outputs: tuple[Node, ...] = tuple(outputs)
        if not self.outputs:
            raise GraphError("a graph needs at least one output")
        for out in self.outputs:
            if not isinstance(out, Node):
                raise GraphError(f"output is {type(out).__name__}, expected Node")
        self._topo_cache: tuple[Node, ...] | None = None
        # Filled by repro.runtime.signature.graph_signature: a graph
        # never changes, so neither does its structural key.
        self._signature_cache: tuple | None = None
        discovered = [n for n in self.topological() if n.op == "input"]
        if inputs is None:
            self.inputs: tuple[Node, ...] = tuple(discovered)
        else:
            self.inputs = tuple(inputs)
            missing = set(map(id, discovered)) - set(map(id, self.inputs))
            if missing:
                names = [n.name for n in discovered if id(n) in missing]
                raise GraphError(f"graph reaches input nodes not listed: {names}")
            for node in self.inputs:
                if node.op != "input":
                    raise GraphError(f"{node.name} listed as input but op={node.op}")

    # -- traversal -----------------------------------------------------------

    def topological(self) -> tuple[Node, ...]:
        """All reachable nodes, producers before consumers (iterative DFS)."""
        if self._topo_cache is not None:
            return self._topo_cache
        seen: set[int] = set()
        order: list[Node] = []
        for root in self.outputs:
            stack: list[tuple[Node, bool]] = [(root, False)]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    order.append(node)
                    continue
                if id(node) in seen:
                    continue
                seen.add(id(node))
                stack.append((node, True))
                for inp in reversed(node.inputs):
                    if id(inp) not in seen:
                        stack.append((inp, False))
        self._topo_cache = tuple(order)
        return self._topo_cache

    def __iter__(self) -> Iterator[Node]:
        return iter(self.topological())

    def __len__(self) -> int:
        return len(self.topological())

    def nodes_by_op(self, op: str) -> list[Node]:
        """All reachable nodes with the given op name."""
        return [n for n in self.topological() if n.op == op]

    def op_counts(self) -> dict[str, int]:
        """Histogram of op names — the statistic the paper's Fig. 3 caption
        cares about (how many ``matmul`` nodes survive optimization)."""
        counts: dict[str, int] = {}
        for n in self.topological():
            counts[n.op] = counts.get(n.op, 0) + 1
        return counts

    def consumers(self) -> dict[int, list[Node]]:
        """Map of node id -> consuming nodes."""
        out: dict[int, list[Node]] = {id(n): [] for n in self.topological()}
        for node in self.topological():
            for inp in node.inputs:
                out[id(inp)].append(node)
        return out

    # -- transformation ------------------------------------------------------

    def rewrite(
        self,
        fn: Callable[[Node, tuple[Node, ...]], Node | None],
    ) -> "Graph":
        """Bottom-up rebuild.

        ``fn(node, new_inputs)`` is called for every reachable node in
        topological order, with its inputs already replaced.  It returns the
        replacement node, or ``None`` to mean "rebuild as-is" (a new node is
        only allocated when inputs actually changed).

        Identity contract: when *every* reachable node maps to itself the
        method returns ``self`` — same object, so the cached topological
        order and structural signature survive and callers can test "did
        anything change" with ``is``.  Otherwise it returns a new Graph
        with remapped outputs; untouched sub-DAGs are shared.
        """
        mapping: dict[int, Node] = {}
        changed = False
        for node in self.topological():
            # Until some node changed, every input maps to itself: hand
            # ``fn`` the node's own tuple and skip the comparison below.
            new_inputs = (
                tuple(mapping[id(i)] for i in node.inputs) if changed else node.inputs
            )
            replacement = fn(node, new_inputs)
            if replacement is None:
                if not changed or all(
                    a is b for a, b in zip(new_inputs, node.inputs)
                ):
                    replacement = node
                else:
                    replacement = Node(
                        node.op, new_inputs, dict(node.attrs), name=node.name
                    )
            if replacement is not node:
                changed = True
            mapping[id(node)] = replacement
        if not changed:
            return self
        # Declared inputs that earlier passes made unreachable are absent
        # from the mapping; keep them verbatim so positional feeding of the
        # original arguments keeps working.
        new_inputs_list = tuple(
            mapping.get(id(n), n)
            for n in self.inputs
            if mapping.get(id(n), n).op == "input"
        )
        return Graph((mapping[id(o)] for o in self.outputs), inputs=new_inputs_list)

    def with_outputs(self, outputs: Iterable[Node]) -> "Graph":
        """A graph over the same node universe with different outputs."""
        return Graph(outputs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = ", ".join(f"{k}:{v}" for k, v in sorted(self.op_counts().items()))
        return f"<Graph {len(self)} nodes [{counts}] -> {len(self.outputs)} outputs>"
