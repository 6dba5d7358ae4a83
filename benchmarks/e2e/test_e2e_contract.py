"""Contract test of the end-to-end benchmark (tier-1 safe: a few seconds, no
wall-clock asserts, scratch files under ``tmp_path`` only).

Checks that ``BENCHMARK.json`` is well formed and in step with what the
runner declares and emits, that inputs are a function of the seed alone,
that structural counts repeat exactly, that a wrong output is counted as a
failure, and that a run leaves the tree as it found it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from laab_e2e import WORKLOADS, inputs, metrics, refs  # noqa: E402

# Loaded by path under its own name: "run" is too common a module name.
_spec = importlib.util.spec_from_file_location(
    "laab_e2e_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(capsys, tmp_path, *argv) -> tuple[int, dict]:
    """The runner in-process; returns its exit code and its result line."""
    code = run.main([*argv, "--quick", "--seconds", "0.25",
                     "--work-dir", str(tmp_path / "work")])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_is_well_formed(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_benchmark_json_matches_the_runner(spec):
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == metrics.PER_LAYER
    roles = set(metrics.END_TO_END) - {"setup_s", "peak_rss_mib"}
    for workload in WORKLOADS:
        assert set(metrics.ROLES[workload]) == roles


def test_every_declared_metric_is_emitted(capsys, tmp_path, spec):
    for workload in WORKLOADS:
        code, result = _run(capsys, tmp_path, "--workload", workload, "--trace", "0")
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        for m in spec["end_to_end"]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_run_emits_every_layer_metric_and_counts_repeat(capsys, tmp_path, spec):
    for workload in WORKLOADS:
        trace_out = tmp_path / f"{workload}.jsonl"
        runs = [_run(capsys, tmp_path, "--workload", workload, "--trace", "1",
                     "--seed", "3", "--trace-out", str(trace_out))]
        # The fixed chain and the seeded graph draw cover the count metrics;
        # the other two workloads run the same probes.
        if workload in ("dispatch_small", "cold_compile"):
            runs.append(_run(capsys, tmp_path, "--workload", workload,
                             "--trace", "1", "--seed", "3"))
        for code, result in runs:
            assert code == 0 and result["correct"]
            assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
        for name in metrics.EXACT_COUNTS:
            values = {result["metrics"][name]["value"] for _, result in runs}
            assert len(values) == 1, name
        spans = [json.loads(line) for line in trace_out.read_text().splitlines()]
        assert spans and set(spans[0]) == {"id", "name", "start", "end", "parent", "op"}


def test_inputs_are_a_function_of_the_seed():
    def snapshot(seed):
        cases = ([inputs.chain_case(seed), inputs.chain128_case(seed, 32)]
                 + inputs.paper_suite(seed, 32) + inputs.draw_graphs(seed, 6))
        return (
            [c.signature() for c in cases],
            [inputs.digest(c.arrays) for c in cases],
            inputs.arrival_schedule(seed, 1000.0, 0.2, (3.0, 1.0), 2),
        )

    assert snapshot(7) == snapshot(7)
    a, b = snapshot(7), snapshot(8)
    assert a[0] != b[0]  # the graph draw
    assert all(x != y for x, y in zip(a[1], b[1]))  # every operand set
    assert a[2] != b[2]  # the arrival schedule


def test_oracle_rejects_a_corrupted_output():
    case = inputs.chain_case(0)
    reference = refs.oracle(case)
    good = refs.chain_numpy(*case.arrays)
    assert refs.matches(good, reference)
    bad = good.copy()
    bad[3, 5] += 1e-2 * abs(bad).max()
    assert not refs.matches(bad, reference)


def test_a_wrong_output_is_counted_and_fails_the_run(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(refs, "chain_numpy", lambda a, b, c: a * 0.0)
    code, result = _run(capsys, tmp_path, "--workload", "dispatch_small")
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_a_run_leaves_the_tree_unchanged(capsys, tmp_path):
    def status():
        try:
            done = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain"], capture_output=True,
                text=True, timeout=30,
            )
        except OSError:
            pytest.skip("git is not available")
        if done.returncode != 0:
            pytest.skip("not a git checkout")
        return done.stdout

    before = status()
    code, _ = _run(capsys, tmp_path, "--workload", "cold_compile",
                   "--out", str(tmp_path / "report.json"))
    assert code == 0
    assert status() == before
    report = json.loads((tmp_path / "report.json").read_text())
    assert {"commit", "nproc", "blas_vendor", "blas_threads", "python", "numpy",
            "scipy", "seed", "kernels.gemm_gflops", "kernels.copy_gbps",
            "stats.quiet_window_share"} <= set(report["provenance"])
