"""Optimal matrix-chain parenthesization as a graph pass (Experiment 2).

The paper shows neither framework reassociates matrix chains: an
unparenthesized ``H.T @ H @ x`` evaluates left-to-right at O(n³) even
though right-to-left is O(n²).  This opt-in pass is the fix: it flattens
maximal ``matmul`` trees into chains — distributing transposes over
absorbed products, ``(XY)ᵀ = YᵀXᵀ`` — runs the classical DP, and rebuilds
the tree in the optimal association whenever that strictly lowers FLOPs.

Sharing is respected: a product consumed by more than one node (or exported
as a graph output) is treated as a chain *leaf*, never re-associated away,
so CSE gains are preserved.
"""

from __future__ import annotations

from ..chain.dp import optimal_parenthesization
from ..ir import builder
from ..ir.graph import Graph
from ..ir.node import Node
from .base import GraphPass

#: (node, transposed?) — a chain leaf with its pending transpose flag.
Leaf = tuple[Node, bool]


def _leaf_shape(leaf: Leaf) -> tuple[int, int]:
    node, trans = leaf
    return (node.shape[1], node.shape[0]) if trans else node.shape


class ChainReordering(GraphPass):
    """Re-associate matmul chains to the DP-optimal parenthesization."""

    name = "chain_reorder"

    def apply(self, graph: Graph) -> Graph:
        graph = self.transform_loop_bodies(graph)
        consumers = graph.consumers()
        out_ids = {id(o) for o in graph.outputs}
        # A matmul is absorbable into its consumer's chain only if it has a
        # single consumer, is not a graph output, and carries no kernel hint.
        barriers = {
            nid
            for nid, cons in consumers.items()
            if len(cons) > 1
        } | out_ids

        memo: dict[int, Node] = {}

        def absorbable(node: Node, at_root: bool) -> bool:
            if node.op != "matmul" or node.attrs.get("kernel"):
                return False
            if at_root:
                return True
            return id(node) not in barriers

        def flatten(node: Node, trans: bool, at_root: bool) -> list[Leaf]:
            # Look through explicit transpose nodes (not yet fused into
            # flags): (XY)ᵀ flattens as the reversed, flag-flipped chain.
            if node.op == "transpose" and id(node) not in barriers:
                return flatten(node.inputs[0], not trans, False)
            if not absorbable(node, at_root):
                return [(node, trans)]
            a, b = node.inputs
            ta = bool(node.attrs.get("trans_a"))
            tb = bool(node.attrs.get("trans_b"))
            if not trans:
                return flatten(a, ta, False) + flatten(b, tb, False)
            # (A B)ᵀ = Bᵀ Aᵀ — reverse the chain, flip the flags.
            return flatten(b, not tb, False) + flatten(a, not ta, False)

        def current_flops(node: Node, at_root: bool) -> int:
            """FLOPs of the existing association of this chain tree."""
            if node.op == "transpose" and id(node) not in barriers:
                return current_flops(node.inputs[0], False)
            if not absorbable(node, at_root):
                return 0
            a, b = node.inputs
            sa = tuple(reversed(a.shape)) if node.attrs.get("trans_a") else a.shape
            sb = tuple(reversed(b.shape)) if node.attrs.get("trans_b") else b.shape
            own = 2 * sa[0] * sa[1] * sb[1]
            return own + current_flops(a, False) + current_flops(b, False)

        def transform(node: Node) -> Node:
            if id(node) in memo:
                return memo[id(node)]
            result = self._transform_node(node, transform, flatten, current_flops)
            memo[id(node)] = result
            return result

        new_outputs = [transform(o) for o in graph.outputs]
        # `transform` returns a node itself only when its whole sub-DAG
        # came back untouched, so unchanged outputs mean an unchanged graph.
        if all(a is b for a, b in zip(new_outputs, graph.outputs)):
            return graph
        # Input nodes are never rewritten by `transform`, so the original
        # positional input order carries over verbatim.
        return Graph(new_outputs, inputs=graph.inputs)

    def _transform_node(self, node, transform, flatten, current_flops) -> Node:
        is_chain_root = node.op == "matmul" and not node.attrs.get("kernel")
        if not is_chain_root:
            new_inputs = tuple(transform(i) for i in node.inputs)
            if all(a is b for a, b in zip(new_inputs, node.inputs)):
                return node
            return self.rebuild(node, new_inputs)

        leaves = flatten(node, False, True)
        if len(leaves) < 3:
            new_inputs = tuple(transform(i) for i in node.inputs)
            if all(a is b for a, b in zip(new_inputs, node.inputs)):
                return node
            return self.rebuild(node, new_inputs)

        shapes = [_leaf_shape(lf) for lf in leaves]
        solution = optimal_parenthesization(shapes)

        # Gram-chain recognition: a palindromic chain x₀…x_{m-1} with
        # x_i = x_{m-1-i}ᵀ is SᵀS for S = the right half — one shared
        # product instead of two (the CSE opportunity the paper's
        # Experiment 1 shows the frameworks missing for (AᵀB)ᵀAᵀB).
        gram = self._try_gram_chain(leaves, transform, solution.flops,
                                    current_flops(node, True))
        if gram is not None:
            return gram

        if solution.flops >= current_flops(node, True):
            new_inputs = tuple(transform(i) for i in node.inputs)
            if all(a is b for a, b in zip(new_inputs, node.inputs)):
                return node
            return self.rebuild(node, new_inputs)

        self._count()
        new_leaves: list[Leaf] = [(transform(lf[0]), lf[1]) for lf in leaves]

        def build(tree: object) -> Leaf:
            if isinstance(tree, int):
                return new_leaves[tree]
            (ln, lt) = build(tree[0])
            (rn, rt) = build(tree[1])
            return (builder.matmul(ln, rn, trans_a=lt, trans_b=rt), False)

        root, root_trans = build(solution.tree)
        if root_trans:  # pragma: no cover - roots are products, never leaves here
            root = builder.transpose(root)
        return root

    def _try_gram_chain(self, leaves, transform, dp_flops, cur_flops):
        """Rebuild a palindromic chain as SᵀS; None when not applicable."""
        m = len(leaves)
        if m % 2 != 0:
            return None
        for i in range(m // 2):
            node_l, trans_l = leaves[i]
            node_r, trans_r = leaves[m - 1 - i]
            if node_l is not node_r or trans_l == trans_r:
                return None
        half = leaves[m // 2 :]
        half_shapes = [_leaf_shape(lf) for lf in half]
        half_solution = optimal_parenthesization(half_shapes)
        p = half_shapes[0][0]  # S is p×q; SᵀS costs 2pq²
        q = half_shapes[-1][1]
        gram_flops = half_solution.flops + 2 * p * q * q
        if gram_flops >= min(dp_flops, cur_flops):
            return None
        self._count()
        new_half: list[Leaf] = [(transform(lf[0]), lf[1]) for lf in half]

        def build(tree: object) -> Leaf:
            if isinstance(tree, int):
                return new_half[tree]
            (ln, lt) = build(tree[0])
            (rn, rt) = build(tree[1])
            return (builder.matmul(ln, rn, trans_a=lt, trans_b=rt), False)

        s_node, s_trans = build(half_solution.tree)
        if s_trans:  # pragma: no cover - halves of length >= 1 end as products
            s_node = builder.transpose(s_node)
        # result = (half)ᵀ · half = SᵀS
        return builder.matmul(s_node, s_node, trans_a=True)
