"""Transpose elimination and fusion.

Two rewrites, both of which the real frameworks perform when lowering to
MKL (it is why the paper's Table I shows ``AᵀB`` at reference speed):

* ``transpose(transpose(X)) → X``;
* a ``transpose`` feeding a ``matmul`` operand folds into the matmul's
  TRANSA/TRANSB flag, so no transposed copy is ever materialized.

Transposes with non-matmul consumers (e.g. feeding an ``add``) are kept —
there the copy is genuinely needed.
"""

from __future__ import annotations

from ..ir.graph import Graph
from ..ir.node import Node
from .base import GraphPass


class TransposeElimination(GraphPass):
    """Cancel double transposes, fuse single transposes into matmul flags."""

    name = "transpose_elim"

    def apply(self, graph: Graph) -> Graph:
        graph = self.transform_loop_bodies(graph)

        def fn(node: Node, new_inputs: tuple[Node, ...]) -> Node | None:
            if node.op == "transpose":
                (x,) = new_inputs
                if x.op == "transpose":
                    self._count()
                    return x.inputs[0]
                return None
            if node.op == "matmul":
                a, b = new_inputs
                trans_a = bool(node.attrs.get("trans_a"))
                trans_b = bool(node.attrs.get("trans_b"))
                changed = False
                if a.op == "transpose":
                    a = a.inputs[0]
                    trans_a = not trans_a
                    changed = True
                if b.op == "transpose":
                    b = b.inputs[0]
                    trans_b = not trans_b
                    changed = True
                if not changed:
                    return None
                self._count()
                attrs = dict(node.attrs)
                attrs["trans_a"] = trans_a
                attrs["trans_b"] = trans_b
                return Node("matmul", (a, b), attrs, name=node.name)
            if node.op == "dot":
                # dot is orientation-insensitive; drop transposes outright.
                new = []
                changed = False
                for inp in new_inputs:
                    if inp.op == "transpose":
                        new.append(inp.inputs[0])
                        changed = True
                    else:
                        new.append(inp)
                if not changed:
                    return None
                self._count()
                return Node("dot", tuple(new), dict(node.attrs), name=node.name)
            return None

        # One bottom-up sweep reaches the fixpoint.  ``fn`` sees every
        # input already rewritten, so by induction every transpose the
        # sweep leaves has a non-transpose input: one it keeps had one
        # (else it would have cancelled), and one that cancels hands on the
        # input of a transpose already left.  Every matmul and dot it
        # leaves therefore reads non-transposes: it folded each transpose
        # operand into the transpose's own input.  A second sweep would
        # find nothing to rewrite.
        return graph.rewrite(fn)
