"""The scripted recovery drill (:mod:`repro.chaos`) and its CLI.

One :func:`chaos_run` covers every recovery path end to end — worker
crash, SIGTERM-ignoring hang (kill escalation), garbled wave reply,
in-worker exception, serve-dispatch failure, torn store artifact and
mid-run inline fallback — asserting bit-correct answers or typed errors,
exact health counters, and zero leaked processes or shared-memory
segments.

The CI matrix runs this file twice: natively (fork where available) and
with ``REPRO_CHAOS_START_METHOD=spawn``, because hang detection and
respawn cross the start-method boundary (spawned workers receive the
fault plan re-rendered as a string instead of inheriting it).
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import faults
from repro.chaos import ChaosPhase, ChaosReport, chaos_run
from repro.experiments.cli import main as cli_main

#: The CI spawn leg exports REPRO_CHAOS_START_METHOD=spawn; unset, the
#: drill picks fork where available.
START_METHOD = os.environ.get("REPRO_CHAOS_START_METHOD") or None

if START_METHOD is not None and \
        START_METHOD not in multiprocessing.get_all_start_methods():
    pytest.skip(
        f"start method {START_METHOD!r} unavailable on this platform",
        allow_module_level=True,
    )


@pytest.fixture(autouse=True)
def clean_registry():
    faults.clear()
    yield
    faults.clear()


class TestChaosRun:
    def test_every_phase_passes(self):
        report = chaos_run(
            shards=2, feeds=4, wave_deadline=0.5, hang_seconds=10.0,
            start_method=START_METHOD,
        )
        assert report.ok, report.render()
        names = [p.name for p in report.phases]
        assert names == ["clean", "crash", "hang", "protocol",
                         "exec-error", "serve", "store", "fallback"]
        by_name = {p.name: p for p in report.phases}
        # Exact recovery accounting, not just "it passed".
        assert by_name["clean"].respawns == 0
        assert by_name["crash"].respawns == 1
        assert by_name["crash"].waves_replayed == 1
        assert by_name["hang"].hangs == 1
        assert by_name["hang"].respawns == 1
        assert by_name["protocol"].waves_replayed == 1
        # The fault registry never leaks past the drill.
        assert faults.active() is None

    def test_feeds_must_divide_over_shards(self):
        with pytest.raises(ValueError, match="divisible"):
            chaos_run(shards=2, feeds=5)

    def test_chunk_must_fit_one_ring_wave(self):
        with pytest.raises(ValueError, match="ring"):
            chaos_run(shards=1, feeds=8, ring_slots=4)

    def test_render_reports_failures(self):
        report = ChaosReport(
            phases=[
                ChaosPhase("clean", True, "fine", respawns=1),
                ChaosPhase("hang", False, "worker leaked"),
            ],
            shards=2, feeds=8, start_method="fork",
        )
        assert not report.ok
        text = report.render()
        assert "PASS  clean" in text
        assert "FAIL  hang" in text
        assert "worker leaked" in text
        assert "respawns=1" in text
        assert "1/2 phase(s) passed" in text
        assert "FAULTS SURVIVED" in text


class TestChaosCLI:
    def test_cli_exit_zero_on_all_pass(self, capsys):
        argv = ["chaos", "--shards", "2", "--feeds", "4",
                "--wave-deadline", "0.5"]
        if START_METHOD is not None:
            argv += ["--start-method", START_METHOD]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "chaos drill" in out
        assert "no lost or wrong answers" in out
