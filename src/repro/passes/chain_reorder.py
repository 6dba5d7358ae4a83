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

The decisions — where the chains are and how each is best associated —
live in :class:`_Chains`, apart from the rebuilding, so that
:func:`reassociated_flops` can price a sub-DAG's reassociation without
building a node (what the distributivity pass's cost tests ask, several
times per graph).  A chain found already optimal stays optimal in every
absorbed sub-product (optimal substructure), so those skip the DP.
"""

from __future__ import annotations

from typing import NamedTuple

from ..chain.dp import ChainSolution, optimal_parenthesization
from ..ir import builder
from ..ir.graph import Graph
from ..ir.node import Node
from .base import GraphPass
from .estimate import node_flops

#: (node, transposed?) — a chain leaf with its pending transpose flag.
Leaf = tuple[Node, bool]


def _leaf_shape(leaf: Leaf) -> tuple[int, int]:
    node, trans = leaf
    return (node.shape[1], node.shape[0]) if trans else node.shape


class _Reassociation(NamedTuple):
    """How one chain root is rebuilt: the association ``tree`` over
    ``leaves`` — or, for a Gram chain, over its right half ``S``, the
    result being ``SᵀS`` — and the FLOPs of the products built."""

    leaves: list[Leaf]
    tree: object
    gram: bool
    flops: int


class _Chains:
    """The chain decisions over one DAG, given by its ``barriers``: the
    ids of its outputs and of every node with more than one consumer.

    A matmul is absorbable into its consumer's chain only if it is not a
    barrier and carries no kernel hint; :meth:`decide` says how the chain
    rooted at a node is rebuilt.
    """

    def __init__(
        self,
        barriers: set[int],
        solutions: dict[tuple, ChainSolution] | None = None,
    ) -> None:
        self.barriers = barriers
        #: Chain roots whose current association is known to be optimal:
        #: the absorbed sub-products of a chain kept as it was.
        self._optimal: set[int] = set()
        #: current_flops of non-root chain nodes, by id.
        self._flops: dict[int, int] = {}
        #: DP solutions by operand shapes — a pure function of them, so a
        #: caller pricing many sub-DAGs may share one table between them.
        self._solutions = {} if solutions is None else solutions

    def _solve(self, shapes: tuple[tuple[int, int], ...]) -> ChainSolution:
        solution = self._solutions.get(shapes)
        if solution is None:
            solution = self._solutions[shapes] = optimal_parenthesization(shapes)
        return solution

    def _absorbable(self, node: Node, at_root: bool) -> bool:
        if node.op != "matmul" or node.attrs.get("kernel"):
            return False
        return at_root or id(node) not in self.barriers

    def _through(self, node: Node) -> Node:
        """``node`` with the non-barrier transposes above it looked through."""
        while node.op == "transpose" and id(node) not in self.barriers:
            node = node.inputs[0]
        return node

    def flatten(self, node: Node, trans: bool, at_root: bool) -> list[Leaf]:
        # Look through explicit transpose nodes (not yet fused into
        # flags): (XY)ᵀ flattens as the reversed, flag-flipped chain.
        if node.op == "transpose" and id(node) not in self.barriers:
            return self.flatten(node.inputs[0], not trans, False)
        if not self._absorbable(node, at_root):
            return [(node, trans)]
        a, b = node.inputs
        ta = bool(node.attrs.get("trans_a"))
        tb = bool(node.attrs.get("trans_b"))
        if not trans:
            return self.flatten(a, ta, False) + self.flatten(b, tb, False)
        # (A B)ᵀ = Bᵀ Aᵀ — reverse the chain, flip the flags.
        return self.flatten(b, not tb, False) + self.flatten(a, not ta, False)

    def current_flops(self, node: Node, at_root: bool = False) -> int:
        """FLOPs of the existing association of this chain tree."""
        node = self._through(node)
        if not self._absorbable(node, at_root):
            return 0
        known = self._flops.get(id(node))
        if known is not None:
            return known
        a, b = node.inputs
        sa = tuple(reversed(a.shape)) if node.attrs.get("trans_a") else a.shape
        sb = tuple(reversed(b.shape)) if node.attrs.get("trans_b") else b.shape
        flops = (
            2 * sa[0] * sa[1] * sb[1]
            + self.current_flops(a)
            + self.current_flops(b)
        )
        if not at_root:
            self._flops[id(node)] = flops
        return flops

    def decide(self, node: Node) -> _Reassociation | None:
        """How to rebuild the chain rooted at ``node``; ``None`` keeps
        ``node`` as it is (not a chain root, fewer than three leaves, or
        already optimally associated) and its inputs are visited next."""
        if not self._absorbable(node, True):
            return None
        leaves = self.flatten(node, False, True)
        if len(leaves) < 3:
            return None
        cur = self.current_flops(node, True)
        if id(node) in self._optimal:
            solution, best = None, cur
        else:
            solution = self._solve(tuple(_leaf_shape(lf) for lf in leaves))
            best = min(solution.flops, cur)
        gram = self._gram(leaves, best)
        if gram is not None:
            return gram
        if solution is None or solution.flops >= cur:
            # Kept as it is, so optimal: a sub-tree of an optimal
            # association is optimal for its sub-chain.
            for inp in node.inputs:
                inp = self._through(inp)
                if self._absorbable(inp, False):
                    self._optimal.add(id(inp))
            return None
        return _Reassociation(leaves, solution.tree, False, solution.flops)

    def _gram(self, leaves: list[Leaf], best: int) -> _Reassociation | None:
        """Gram-chain recognition: a palindromic chain x₀…x_{m-1} with
        x_i = x_{m-1-i}ᵀ is SᵀS for S = the right half — one shared
        product instead of two (the CSE opportunity the paper's
        Experiment 1 shows the frameworks missing for (AᵀB)ᵀAᵀB).
        Taken when cheaper than ``best``, the better of the DP's and the
        current association."""
        m = len(leaves)
        if m % 2 != 0:
            return None
        for i in range(m // 2):
            node_l, trans_l = leaves[i]
            node_r, trans_r = leaves[m - 1 - i]
            if node_l is not node_r or trans_l == trans_r:
                return None
        half = leaves[m // 2 :]
        half_shapes = tuple(_leaf_shape(lf) for lf in half)
        half_solution = self._solve(half_shapes)
        p = half_shapes[0][0]  # S is p×q; SᵀS costs 2pq²
        q = half_shapes[-1][1]
        gram_flops = half_solution.flops + 2 * p * q * q
        if gram_flops >= best:
            return None
        return _Reassociation(half, half_solution.tree, True, gram_flops)


def _build(plan: _Reassociation, transform) -> Node:
    """The products of ``plan`` over the transformed leaves."""
    new_leaves: list[Leaf] = [(transform(node), trans) for node, trans in plan.leaves]

    def build(tree: object) -> Leaf:
        if isinstance(tree, int):
            return new_leaves[tree]
        (ln, lt) = build(tree[0])
        (rn, rt) = build(tree[1])
        return (builder.matmul(ln, rn, trans_a=lt, trans_b=rt), False)

    root, root_trans = build(plan.tree)
    if root_trans:  # pragma: no cover - roots are products, never leaves here
        root = builder.transpose(root)
    if plan.gram:
        # result = (half)ᵀ · half = SᵀS
        return builder.matmul(root, root, trans_a=True)
    return root


_LEAVES = ("input", "const")


class Pricing:
    """What :func:`reassociated_flops` calls over the sub-DAGs of one
    graph share: the DP solutions by operand shapes, and the reassociated
    FLOPs of *private* sub-DAGs by their root.

    A node's sub-DAG is private within a priced sub-DAG when every node
    below it but the leaves is consumed from inside it alone (checked
    as: each such node's consumer edges all come from one node).  Then
    nothing outside changes how its chains are found or associated —
    chain decisions look only downward, through single-consumer nodes —
    and it is reached only through its root, so its reassociated FLOPs
    are those of pricing it on its own: a price that holds in every
    sub-DAG where it is private again.  Holds the nodes themselves, so
    an id is never reused while the table lives.
    """

    def __init__(self) -> None:
        self.solutions: dict[tuple, ChainSolution] = {}
        self.regions: dict[int, tuple[Node, int]] = {}


def reassociated_flops(root: Node, pricing: Pricing | None = None) -> int:
    """Modelled FLOPs of the sub-DAG at ``root`` once
    :class:`ChainReordering` has rewritten ``Graph([root])`` — shared
    nodes once, loop bodies reordered too — counted without building it.

    ``pricing`` carries what one call learns to the next (see
    :class:`Pricing`): several sub-DAGs of one graph are priced in about
    the time of their union."""
    if pricing is not None and id(root) in pricing.regions:
        return pricing.regions[id(root)][1]
    # Post-order walk: every node once, producers first, and the number
    # of consumer edges of each inside the sub-DAG.
    order: list[Node] = []
    edges: dict[int, int] = {}
    stack = [(root, iter(root.inputs))]
    while stack:
        node, pending = stack[-1]
        for inp in pending:
            seen = id(inp) in edges
            edges[id(inp)] = edges.get(id(inp), 0) + 1
            if not seen:
                stack.append((inp, iter(inp.inputs)))
                break
        else:
            stack.pop()
            order.append(node)
    barriers = {i for i, n in edges.items() if n > 1}
    barriers.add(id(root))
    private: set[int] = set()
    if pricing is not None:
        for node in order:
            if node.op in _LEAVES:
                continue
            ins = node.inputs
            for inp in ins:
                if inp.op not in _LEAVES and (
                    id(inp) not in private or edges[id(inp)] != ins.count(inp)
                ):
                    break
            else:
                private.add(id(node))
        private.discard(id(root))
    chains = _Chains(barriers, None if pricing is None else pricing.solutions)
    regions = {} if pricing is None else pricing.regions
    total = 0
    visited: set[int] = set()
    # Entries are nodes, or the end marker of a private region (its root
    # and the total when it was entered).
    todo: list = [root]
    while todo:
        node = todo.pop()
        if type(node) is tuple:
            region, start = node
            regions[id(region)] = (region, total - start)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        if id(node) in private:
            known = regions.get(id(node))
            if known is not None:
                total += known[1]
                continue
            todo.append((node, total))
        plan = chains.decide(node)
        if plan is not None:
            total += plan.flops
            todo.extend(leaf for leaf, _ in plan.leaves)
            continue
        if node.op == "loop":
            body = ChainReordering().apply(node.attrs["body"])
            per_iter = sum(node_flops(n) for n in body.topological())
            total += per_iter * int(node.attrs["trip_count"])
        else:
            total += node_flops(node)
        todo.extend(node.inputs)
    # Priced on its own, every sub-DAG is private.
    regions[id(root)] = (root, total)
    return total


class ChainReordering(GraphPass):
    """Re-associate matmul chains to the DP-optimal parenthesization."""

    name = "chain_reorder"

    def apply(self, graph: Graph) -> Graph:
        graph = self.transform_loop_bodies(graph)
        once: set[int] = set()
        barriers = {id(o) for o in graph.outputs}
        for node in graph.topological():
            for inp in node.inputs:
                if id(inp) in once:
                    barriers.add(id(inp))
                else:
                    once.add(id(inp))
        chains = _Chains(barriers)
        memo: dict[int, Node] = {}

        def transform(node: Node) -> Node:
            result = memo.get(id(node))
            if result is not None:
                return result
            plan = chains.decide(node)
            if plan is not None:
                self._count()
                result = _build(plan, transform)
            else:
                new_inputs = tuple(transform(i) for i in node.inputs)
                if all(a is b for a, b in zip(new_inputs, node.inputs)):
                    result = node
                else:
                    result = self.rebuild(node, new_inputs)
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
