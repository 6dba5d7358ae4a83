"""Cost-guided distributivity rewrites (the fix for Experiment 4).

Two directions, mirroring the paper's Eq. 9 and Eq. 10:

* **Factoring** — ``A@B + A@C → A@(B+C)`` (and the common-right-factor
  twin).  Removes a whole GEMM; essentially always profitable.
* **Expansion** — ``(X ± Y)@v → X@v ± Y@v``.  Profitable only in context:
  it pays off when it unlocks a cheaper chain association (Eq. 10's
  ``(A − HᵀH)x → Ax − Hᵀ(Hx)``), and *loses* when the operands are plain
  inputs.  The pass therefore evaluates both shapes of each candidate under
  the chain-reordering normalizer and keeps whichever has fewer FLOPs —
  precisely the derivation-graph reasoning (Linnea) the paper recommends,
  restricted to one rule application per node.
"""

from __future__ import annotations

from ..ir import builder
from ..ir.graph import Graph
from ..ir.node import Node
from .base import GraphPass
from .chain_reorder import Pricing, reassociated_flops


class DistributivityRewrite(GraphPass):
    """Apply distributive-law rewrites wherever they reduce modelled FLOPs."""

    name = "distributivity"

    def _current(self, node: Node, new_inputs: tuple[Node, ...]) -> Node:
        """``node`` over ``new_inputs`` — ``node`` itself while they are its own."""
        if all(a is b for a, b in zip(new_inputs, node.inputs)):
            return node
        return self.rebuild(node, new_inputs)

    def apply(self, graph: Graph) -> Graph:
        graph = self.transform_loop_bodies(graph)
        # The cost tests of one run price sub-DAGs of one graph: they
        # share what carries over from one to the next.
        pricing = Pricing()

        def cost(node: Node) -> int:
            return reassociated_flops(node, pricing)

        def try_factor(node: Node, new_inputs: tuple[Node, ...]) -> Node | None:
            """add/sub of two matmuls with a common factor."""
            lhs, rhs = new_inputs
            if lhs.op != "matmul" or rhs.op != "matmul":
                return None
            if lhs.attrs.get("kernel") or rhs.attrs.get("kernel"):
                return None
            a1, b1 = lhs.inputs
            a2, b2 = rhs.inputs
            ta1, tb1 = bool(lhs.attrs.get("trans_a")), bool(lhs.attrs.get("trans_b"))
            ta2, tb2 = bool(rhs.attrs.get("trans_a")), bool(rhs.attrs.get("trans_b"))
            combine = builder.add if node.op == "add" else builder.sub
            if a1 is a2 and ta1 == ta2 and tb1 == tb2:
                candidate = builder.matmul(
                    a1, combine(b1, b2), trans_a=ta1, trans_b=tb1
                )
            elif b1 is b2 and tb1 == tb2 and ta1 == ta2:
                candidate = builder.matmul(
                    combine(a1, a2), b1, trans_a=ta1, trans_b=tb1
                )
            else:
                return None
            current = self._current(node, new_inputs)
            if cost(candidate) < cost(current):
                self._count()
                return candidate
            return None

        def try_expand(node: Node, new_inputs: tuple[Node, ...]) -> Node | None:
            """matmul over an add/sub operand."""
            a, b = new_inputs
            ta, tb = bool(node.attrs.get("trans_a")), bool(node.attrs.get("trans_b"))
            candidate = None
            if a.op in ("add", "sub"):
                x, y = a.inputs
                comb = builder.add if a.op == "add" else builder.sub
                candidate = comb(
                    builder.matmul(x, b, trans_a=ta, trans_b=tb),
                    builder.matmul(y, b, trans_a=ta, trans_b=tb),
                )
            elif b.op in ("add", "sub"):
                x, y = b.inputs
                comb = builder.add if b.op == "add" else builder.sub
                candidate = comb(
                    builder.matmul(a, x, trans_a=ta, trans_b=tb),
                    builder.matmul(a, y, trans_a=ta, trans_b=tb),
                )
            if candidate is None:
                return None
            current = self._current(node, new_inputs)
            if cost(candidate) < cost(current):
                self._count()
                return candidate
            return None

        def fn(node: Node, new_inputs: tuple[Node, ...]) -> Node | None:
            if node.op in ("add", "sub"):
                return try_factor(node, new_inputs)
            if node.op == "matmul" and not node.attrs.get("kernel"):
                return try_expand(node, new_inputs)
            return None

        # Iterate to a fixpoint: an expansion can expose a factoring
        # opportunity one level up and vice versa.
        prev = -1
        while self.last_stats.rewrites != prev:
            prev = self.last_stats.rewrites
            graph = graph.rewrite(fn)
        return graph
