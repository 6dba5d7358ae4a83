"""Golden record of what the compile path produces.

Every graph of the benchmark's inputs — the ``cold_compile`` draw at seeds
0 and 3, the paper suite and the dispatch chain — is traced, optimized
under both pipelines and lowered, and the result is compared with
``data/compile_golden.json``:

* the optimized graph's :func:`~repro.runtime.signature.signature_digest`;
* the pipeline history (nodes before/after and rewrites per pass);
* each instruction's op and kernels;
* the plan's FLOPs and its report's kernel calls.

The last tests pin how much work a compile does, in counts.

Node names and uids are left out: they count constructions, and a cheaper
compile path constructs fewer nodes.  A change that makes compiling
cheaper must leave every field equal; one that changes what is produced
regenerates the file on purpose, by running this module::

    PYTHONPATH=src python tests/test_compile_golden.py
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

from repro.ir import trace
from repro.passes import aware_pipeline, default_pipeline
from repro.runtime import compile_plan
from repro.runtime.signature import graph_signature, signature_digest
from repro.tensor import Property, Tensor

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "compile_golden.json")
INPUTS = os.path.join(
    HERE, os.pardir, "benchmarks", "e2e", "laab_e2e", "inputs.py"
)
PIPELINES = {"default": default_pipeline, "aware": aware_pipeline}


def _inputs_module():
    """The benchmark's seeded input generator, loaded by path (read only)."""
    name = "_golden_laab_inputs"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, INPUTS)
        module = importlib.util.module_from_spec(spec)
        # dataclasses resolves the module's namespace while the class
        # statement runs, so it must be registered first.
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _cases() -> dict[str, object]:
    inputs = _inputs_module()
    cases = {}
    for seed in (0, 3):
        for case in inputs.draw_graphs(seed, 24):
            cases[f"cold_compile[{seed}]/{case.name}"] = case
    for case in inputs.paper_suite(0):
        cases[f"paper_suite/{case.name}"] = case
    cases["chain"] = inputs.chain_case(0)
    return cases


def _record(case, pipeline: str) -> dict:
    tensors = [
        Tensor(a, {getattr(Property, p) for p in props}) if props else Tensor(a)
        for a, props in zip(case.arrays, case.props)
    ]
    graph = trace(case.fn, tensors)
    passes = PIPELINES[pipeline]()
    optimized = passes.run(graph)
    plan = compile_plan(optimized)
    return {
        "digest": signature_digest(graph_signature(optimized)),
        "passes": [
            [s.name, s.nodes_before, s.nodes_after, s.rewrites]
            for s in passes.history
        ],
        "instructions": [
            [inst.op, [c.kernel for c in inst.calls]]
            for inst in plan.instructions
        ],
        "flops": plan.flops,
        "calls": [
            [c.kernel, list(c.dims), c.flops, c.node_op]
            for c in plan.report.calls
        ],
    }


def _produce() -> dict[str, dict]:
    return {
        f"{key}/{pipeline}": _record(case, pipeline)
        for key, case in _cases().items()
        for pipeline in PIPELINES
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def produced() -> dict[str, dict]:
    return _produce()


def test_the_same_graphs_are_compiled(golden, produced):
    assert sorted(produced) == sorted(golden)


@pytest.mark.parametrize(
    "field", ["digest", "passes", "instructions", "flops", "calls"]
)
def test_the_compile_path_produces_what_it_produced(golden, produced, field):
    differ = [
        key for key in golden
        if key in produced and produced[key][field] != golden[key][field]
    ]
    assert not differ, (
        f"{field} differs on {len(differ)} graphs, first {differ[0]}: "
        f"{produced[differ[0]][field]} != {golden[differ[0]][field]}"
    )


# -- compile work, counted ---------------------------------------------------
#
# How much a compile *does*, in counts that repeat exactly: nodes
# constructed (the ids ``repro.ir.node`` hands out) and whole-sub-DAG
# chain normalizations (``ChainReordering.apply`` runs).  Pinned so that
# reintroducing per-candidate normalization in the distributivity cost
# tests, or rebuilding nodes nothing changed, fails here and not only on
# a timed benchmark.


def _compile_work(cases, pipeline: str, monkeypatch) -> tuple[int, int]:
    from repro.ir import node
    from repro.passes import ChainReordering

    normalizations = [0]
    apply = ChainReordering.apply

    def counted(self, graph):
        normalizations[0] += 1
        return apply(self, graph)

    monkeypatch.setattr(ChainReordering, "apply", counted)
    before = next(node._ids)
    for case in cases:
        _record(case, pipeline)
    return next(node._ids) - before - 1, normalizations[0]


@pytest.mark.parametrize("pipeline,nodes,normalizations", [
    ("default", 112, 0),
    ("aware", 148, 1),
])
def test_compile_work_of_the_dispatch_chain(
    monkeypatch, pipeline, nodes, normalizations
):
    chain = _inputs_module().chain_case(0)
    assert _compile_work([chain], pipeline, monkeypatch) == (
        nodes, normalizations
    )


def test_compile_work_of_the_aware_cold_compile_graphs(monkeypatch):
    aware = [
        case for case in _inputs_module().draw_graphs(0, 24)
        if case.pipeline == "aware"
    ]
    assert len(aware) == 6
    # One normalization per graph: the chain_reorder pass itself.
    assert _compile_work(aware, "aware", monkeypatch) == (656, 6)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    records = _produce()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        # One graph per line, so a deliberate change diffs graph by graph.
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(records[key])}"
            for key in sorted(records)
        ) + "\n}\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
