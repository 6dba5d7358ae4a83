"""Pass pipeline with optional post-pass validation."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ..errors import GraphError
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.validate import validate_graph
from .base import GraphPass, PassStats


class PassPipeline:
    """An ordered list of passes run to fixpoint-free single sweep.

    The real Grappler iterates some passes to a fixed point; here each
    pipeline entry runs once, and callers wanting iteration list a pass
    twice (as :func:`repro.passes.default_pipeline` does with CSE).  With
    ``validate=True`` (the default) the structural validator runs after
    every pass, so a semantics-breaking pass is caught at the pass
    boundary, attributed by name.

    The cost of that follows what a pass *changed*: a pass that rewrote
    nothing returns the graph it was given (the :class:`GraphPass`
    identity contract) and is not re-validated, and a changed graph has
    its graph-level checks re-run but its per-node checks only on nodes
    no earlier boundary of the same run has seen (nodes are immutable;
    see :mod:`repro.ir.validate`).

    ``history`` holds the :class:`PassStats` of the *latest* ``run()``
    only — it is reset at the start of every run, and a run that raises
    partway leaves the stats of the passes that completed (see
    :meth:`describe`).
    """

    def __init__(self, passes: Sequence[GraphPass], *, validate: bool = True) -> None:
        self.passes = list(passes)
        self.validate = validate
        self.history: list[PassStats] = []

    def run(self, graph: Graph) -> Graph:
        from .. import faults

        self.history = []
        # Nodes validated so far in *this* run.  Holds the nodes
        # themselves so a rewritten-away node's address cannot be reused
        # by one that was never checked; never outlives the run.
        checked: dict[int, Node] = {}
        if self.validate:
            validate_graph(graph, checked=checked)
        for p in self.passes:
            # Chaos site: a deterministic mid-compile failure.  An
            # "error" spec raises InjectedFault out of the optimize
            # stage — on the session build path that surfaces to the
            # caller; on the autotune candidate-generation path it must
            # be swallowed and the canonical plan kept.
            faults.fire("optimize.pass")
            before = graph
            try:
                graph = p.run(graph)
            except GraphError as exc:
                raise GraphError(f"pass {p.name!r} failed: {exc}") from exc
            if self.validate and graph is not before:
                try:
                    validate_graph(graph, checked=checked)
                except GraphError as exc:
                    raise GraphError(
                        f"pass {p.name!r} produced an invalid graph: {exc}"
                    ) from exc
            self.history.append(p.last_stats)
        return graph

    def extend(self, passes: Iterable[GraphPass]) -> "PassPipeline":
        """New pipeline with extra passes appended.

        The new pipeline starts with an empty ``history`` — run stats never
        carry over.  The pass *instances* are shared with this pipeline
        (they are stateless apart from ``last_stats``, which each
        ``run()`` snapshots into the running pipeline's ``history``), so
        extending is cheap and running either pipeline leaves the other's
        recorded history untouched.
        """
        return PassPipeline([*self.passes, *passes], validate=self.validate)

    def describe(self) -> str:
        """One line per pass with the last run's node deltas.

        ``history`` may be shorter than ``passes`` — before any run, or
        after a run that failed partway; passes without stats render as
        ``(not run)`` instead of being silently dropped.
        """
        lines = [
            f"{s.name:<28} {s.nodes_before:>4} -> {s.nodes_after:<4} nodes"
            f" ({s.rewrites} rewrites)"
            for s in self.history
        ]
        if not lines:
            return " -> ".join(p.name for p in self.passes)
        lines.extend(
            f"{p.name:<28}    (not run)"
            for p in self.passes[len(self.history):]
        )
        return "\n".join(lines)
