"""Loop-invariant code motion for explicit ``loop`` nodes.

Python ``for`` loops unroll at trace time, where CSE already deduplicates
the invariant ``A@B`` of the paper's Fig. 8 — that is how the real
frameworks pass Experiment 5's first test.  Framework loop *constructs*
(``tfsim.fori_loop``) stay rolled as ``loop`` nodes, and this pass provides
the classical LICM for them: any body sub-DAG that depends only on captured
(loop-invariant) values is computed once outside and passed in as an extra
captured input.
"""

from __future__ import annotations

from ..ir.graph import Graph
from ..ir.node import Node
from .base import GraphPass


class LoopInvariantCodeMotion(GraphPass):
    """Hoist invariant sub-DAGs out of ``loop`` bodies."""

    name = "licm"

    def apply(self, graph: Graph) -> Graph:
        def fn(node: Node, new_inputs: tuple[Node, ...]) -> Node | None:
            if node.op != "loop":
                return None
            return self._hoist(node, new_inputs)

        return graph.rewrite(fn)

    def _hoist(self, loop_node: Node, new_inputs: tuple[Node, ...]) -> Node | None:
        body: Graph = loop_node.attrs["body"]
        body = self.apply(body)  # handle nested loops first

        idx_in, carried_in, *cap_ins = body.inputs
        init_outer, *cap_outers = new_inputs

        # 1. Classify body nodes: variant = (transitively) depends on the
        #    iteration index or the carried value.
        variant: set[int] = {id(idx_in), id(carried_in)}
        for node in body.topological():
            if any(id(i) in variant for i in node.inputs):
                variant.add(id(node))

        # 2. Hoist roots: invariant computation nodes feeding something
        #    variant (or escaping as the body output).
        consumers = body.consumers()
        out_ids = {id(o) for o in body.outputs}
        roots: list[Node] = []
        for node in body.topological():
            if id(node) in variant or node.op in ("input", "const"):
                continue
            feeds_variant = any(id(c) in variant for c in consumers[id(node)])
            if feeds_variant or id(node) in out_ids:
                roots.append(node)
        if not roots:
            if body is loop_node.attrs["body"]:
                return None  # nothing hoisted here or below: keep the node
            attrs = dict(loop_node.attrs)
            attrs["body"] = body
            return Node("loop", new_inputs, attrs, name=loop_node.name)

        # 3. Clone each root's invariant sub-DAG into the outer graph,
        #    substituting captured body inputs with the loop's outer operands.
        outer_map: dict[int, Node] = {
            id(cap_in): cap_out for cap_in, cap_out in zip(cap_ins, cap_outers)
        }

        def clone_out(node: Node) -> Node:
            if id(node) in outer_map:
                return outer_map[id(node)]
            cloned = self.rebuild(node, tuple(clone_out(i) for i in node.inputs))
            outer_map[id(node)] = cloned
            return cloned

        hoisted_outer = [clone_out(r) for r in roots]
        self.last_stats.rewrites += len(roots)

        # 4. Rebuild the body: each hoisted root becomes a fresh captured
        #    input placeholder.
        from ..ir import builder

        replacements: dict[int, Node] = {}
        new_cap_inputs: list[Node] = []
        for i, root in enumerate(roots):
            ph = builder.input_node(
                root.shape, root.dtype, name=f"{loop_node.name}_hoist{i}"
            )
            replacements[id(root)] = ph
            new_cap_inputs.append(ph)

        # Manual rebuild of the body (Graph.rewrite cannot introduce fresh
        # input placeholders): hoisted roots map to their placeholder,
        # everything else is rebuilt over the mapped inputs.
        mapping: dict[int, Node] = {}
        for bnode in body.topological():
            if id(bnode) in replacements:
                mapping[id(bnode)] = replacements[id(bnode)]
                continue
            mapped = tuple(mapping[id(i)] for i in bnode.inputs)
            if all(a is b for a, b in zip(mapped, bnode.inputs)):
                mapping[id(bnode)] = bnode
            else:
                mapping[id(bnode)] = self.rebuild(bnode, mapped)

        ordered_inputs: list[Node] = [idx_in, carried_in, *cap_ins, *new_cap_inputs]
        new_body = Graph(
            [mapping[id(o)] for o in body.outputs], inputs=ordered_inputs
        )
        attrs = dict(loop_node.attrs)
        attrs["body"] = new_body
        return Node(
            "loop",
            (init_outer, *cap_outers, *hoisted_outer),
            attrs,
            name=loop_node.name,
        )
