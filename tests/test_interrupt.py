"""Graceful-interrupt tests (ISSUE 6 satellite).

``repro explore``/``repro conform`` used to die mid-unit on
SIGINT/SIGTERM, losing every completed-but-unpersisted cell.  Now the
dispatcher traps the signal, finishes the unit in flight, checkpoints,
and exits 130 with a "resumable" message.  Covered at three levels:
the runner's stop-event contract, the engine's ``SweepInterrupted``
checkpoint semantics, and a real ``repro explore`` subprocess killed
with SIGTERM and then resumed from its store.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.conformance import CampaignSpec, run_campaign
from repro.explore import (
    RunInterrupted,
    SweepInterrupted,
    SweepSpec,
    run_sweep,
    trap_signals,
)
from repro.explore.runner import iter_chunked
from repro.store import ResultStore


def _double(chunk):
    return [2 * x for x in chunk]


class TestRunnerStop:
    def test_preset_stop_interrupts_before_work(self):
        stop = threading.Event()
        stop.set()
        with pytest.raises(RunInterrupted) as info:
            list(iter_chunked([[1], [2]], _double, workers=1, stop=stop))
        assert info.value.completed == 0
        assert info.value.total == 2

    def test_serial_stop_finishes_inflight_chunk(self):
        stop = threading.Event()
        seen = []

        def consume():
            for result in iter_chunked(
                [[1], [2], [3], [4]], _double, workers=1, stop=stop
            ):
                seen.append(result)
                stop.set()  # fire "mid-run", after the first chunk

        with pytest.raises(RunInterrupted) as info:
            consume()
        assert seen == [[2]]  # the in-flight chunk completed and arrived
        assert info.value.completed == 1
        assert info.value.total == 4

    def test_no_stop_runs_to_completion(self):
        results = list(
            iter_chunked([[1], [2]], _double, workers=1, stop=None)
        )
        assert results == [[2], [4]]

    def test_trap_signals_restores_handlers(self):
        before = signal.getsignal(signal.SIGTERM)
        with trap_signals() as stop:
            assert not stop.is_set()
            assert signal.getsignal(signal.SIGTERM) is not before
            os.kill(os.getpid(), signal.SIGTERM)
            assert stop.wait(timeout=5.0)
        assert signal.getsignal(signal.SIGTERM) is before

    def test_trap_signals_outside_main_thread_is_inert(self):
        outcome = {}

        def body():
            with trap_signals() as stop:
                outcome["set"] = stop.is_set()

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=10)
        assert outcome == {"set": False}


def _tiny_spec(seeds):
    return SweepSpec(
        name="interrupt-test",
        workload={
            "nodes": 2, "processes_per_node": 4, "seed": list(seeds),
        },
        methods=("analysis",),
    )


class TestSweepInterrupted:
    def test_interrupt_checkpoints_completed_cells(self, tmp_path):
        spec = _tiny_spec(range(4))
        store = ResultStore(tmp_path / "store")
        stop = threading.Event()
        stop.set()  # interrupt immediately: zero units run
        with pytest.raises(SweepInterrupted) as info:
            run_sweep(spec, store=store, workers=1, stop=stop)
        assert info.value.completed == 0
        assert info.value.total == 4
        # And the resumed run completes, serving nothing from this run.
        report = run_sweep(spec, store=store, workers=1)
        assert len(report.records) == 4
        assert not report.errored

    def test_partial_run_resumes_from_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        # Seed the store with a prefix of the sweep, as an interrupted
        # run would have.
        run_sweep(_tiny_spec(range(2)), store=store, workers=1)
        report = run_sweep(_tiny_spec(range(5)), store=store, workers=1)
        assert report.store_hits == 2
        assert report.computed == 3

    def test_campaign_interrupt_reports_resume_seed(self):
        spec = CampaignSpec(
            campaign=6, workers=1, nodes=2, processes_per_node=4,
            shrink=False,
        )
        stop = threading.Event()
        stop.set()
        with pytest.raises(SweepInterrupted) as info:
            run_campaign(spec, stop=stop)
        assert info.value.records == []
        assert info.value.total == spec.campaign
        # The seeds done are contiguous from seed0: resume right after.
        assert spec.seed0 + info.value.completed == spec.seed0

    def test_conform_cli_interrupt_prints_resume_seed(
        self, monkeypatch, capsys
    ):
        """``repro conform`` interrupted after its first unit exits 130
        and names the seed to resume from."""
        import contextlib

        import repro.explore as explore
        import repro.explore.engine as engine
        from repro.cli import main

        stop = threading.Event()
        real_chunk = engine._evaluate_chunk

        def first_unit_then_stop(payload):
            records = real_chunk(payload)
            stop.set()
            return records

        monkeypatch.setattr(
            explore, "trap_signals", contextlib.contextmanager(
                lambda: (yield stop)
            ),
        )
        monkeypatch.setattr(engine, "_evaluate_chunk", first_unit_then_stop)
        # Serial: 8 seeds in 4 lanes of 2, so the first unit is 2 seeds.
        code = main([
            "conform", "--campaign", "8", "--seed0", "3",
            "--processes-per-node", "4",
        ])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted: 2/8 seeds done (" in err
        assert "rerun with --seed0 5 --campaign 6" in err


@pytest.mark.slow
class TestExploreSubprocessSigterm:
    def test_sigterm_checkpoints_and_resumes(self, tmp_path):
        """The full satellite scenario: a running `repro explore` gets
        SIGTERM, exits 130 with a resumable message, and a --resume
        rerun serves the checkpointed cells from the store."""
        # SAS cells with a fixed iteration budget: slow enough (~0.3 s
        # each) that the sweep is still far from done when the first
        # checkpoint lands and the signal fires — analysis cells are
        # single-digit milliseconds and would race the test.
        spec = {
            "name": "sigterm-e2e",
            "workload": {
                "nodes": 2,
                "processes_per_node": 8,
                "seed": list(range(30)),
            },
            "methods": ["SAS"],
            "options": {"sa_iterations": 150},
        }
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        store_dir = tmp_path / "store"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        command = [
            sys.executable, "-m", "repro", "explore",
            "--sweep", str(spec_path), "--store", str(store_dir),
            "--workers", "1", "--stats",
        ]
        proc = subprocess.Popen(
            command, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            # Wait for the first checkpoint to land, then interrupt.
            deadline = time.time() + 60
            probe = None
            while time.time() < deadline and proc.poll() is None:
                if store_dir.is_dir():
                    if probe is None:
                        try:
                            probe = ResultStore(store_dir)
                        except Exception:
                            probe = None
                    if probe is not None and probe.refresh() > 0:
                        break
                time.sleep(0.05)
            assert proc.poll() is None, (
                "sweep finished before it could be interrupted — "
                "enlarge the spec"
            )
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, (stdout, stderr)
        assert "interrupted" in stderr
        assert "resumable" in stderr
        assert "rerun the same command with --resume" in stderr

        # The checkpointed cells are durable and the rerun resumes.
        checkpointed = len(ResultStore(store_dir))
        assert checkpointed > 0
        rerun = subprocess.run(
            command + ["--resume"], env=env,
            capture_output=True, text=True, timeout=600,
        )
        assert rerun.returncode == 0, (rerun.stdout, rerun.stderr)
        assert "cells resumed" in rerun.stdout
        profile_line = next(
            line for line in rerun.stdout.splitlines()
            if "cells resumed" in line
        )
        resumed = int(profile_line.split("store:")[1].split("cells")[0])
        assert resumed >= checkpointed
