"""The local executor behind ``iter_chunked(workers > 1)``.

Parallel sweeps, campaigns and ``Session.evaluate_many`` batches run on
the serve :class:`~repro.serve.supervisor.Supervisor` over a forked
:class:`~repro.serve.workers.LocalFleet`.  The failure schedules here
are deterministic — a marker file in ``tmp_path`` decides which attempt
dies or raises, no test sleeps:

* a worker SIGKILLed mid-chunk is retried on another worker, the result
  is the serial one, and the retry is counted — never a serial fallback;
* an exception raised by the chunk worker reaches the caller with its
  own type after exactly one attempt;
* without ``fork`` the chunks run inline with a :class:`RuntimeWarning`;
* a worker whose owning process is SIGKILLed exits on its own.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from collections import OrderedDict
from pathlib import Path

import pytest

from repro import obs
from repro.explore import (
    RunInterrupted,
    SweepSpec,
    iter_chunked,
    partition_chunks,
    run_sweep,
)
from repro.explore import engine as explore_engine
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve.workers import CALL_KIND, _compute_with_heartbeat


@pytest.fixture()
def obs_on():
    obs.configure(enabled=True)
    obs.reset_process()
    yield
    obs.reset_process()
    obs.configure(enabled=False)


def _squares(payload):
    _, items = payload
    return [x * x for x in items]


def _die_once_on_first_chunk(payload):
    """SIGKILL this worker process the first time chunk 0 runs."""
    marker, items = payload
    if items[0] == 0 and not os.path.exists(marker):
        Path(marker).touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return _squares(payload)


def _raise_on_chunk_five(payload):
    """Count every attempt of the chunk holding 5, then raise."""
    marker, items = payload
    if 5 in items:
        with open(marker, "a", encoding="utf-8") as handle:
            handle.write("attempt\n")
        raise ValueError("chunk holding 5 is bad")
    return _squares(payload)


def _chunks(marker):
    return [
        (str(marker), chunk)
        for chunk in partition_chunks(list(range(20)), workers=2)
    ]


def _counter(name):
    return obs_metrics.registry().counters_by_name(name)


class TestFailureSchedules:
    def test_killed_worker_is_retried_not_degraded(self, obs_on, tmp_path):
        chunks = _chunks(tmp_path / "killed")
        serial = list(iter_chunked(chunks, _squares, workers=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parallel = list(
                iter_chunked(chunks, _die_once_on_first_chunk, workers=2)
            )
        assert (tmp_path / "killed").exists(), "the kill must have fired"
        assert parallel == serial
        assert _counter("repro_supervisor_retries_total") >= 1
        assert _counter("repro_supervisor_worker_failures_total") >= 1
        assert multiprocessing.active_children() == []

    def test_worker_exception_surfaces_once_with_its_type(self, tmp_path):
        marker = tmp_path / "attempts"
        with pytest.raises(ValueError, match="chunk holding 5 is bad"):
            list(iter_chunked(_chunks(marker), _raise_on_chunk_five, 2))
        assert marker.read_text().splitlines() == ["attempt"]
        assert multiprocessing.active_children() == []

    def test_stop_interrupts_after_the_yielded_chunk(self, tmp_path):
        stop = threading.Event()
        seen = []
        with pytest.raises(RunInterrupted) as info:
            for result in iter_chunked(
                _chunks(tmp_path / "unused"), _squares, 2, stop=stop
            ):
                seen.append(result)
                stop.set()
        assert seen == [[0, 1, 4]]
        assert (info.value.completed, info.value.total) == (1, 7)
        assert multiprocessing.active_children() == []

    def test_without_fork_runs_inline_and_warns(self, monkeypatch):
        spec = SweepSpec(
            name="nofork",
            workload={"nodes": 2, "processes_per_node": 4, "seed": [0, 1]},
            methods=("SF", "analysis"),
        )
        serial = run_sweep(spec, workers=1).to_dict()

        def _no_fork(*args, **kwargs):
            raise ValueError("cannot find context for 'fork'")

        monkeypatch.setattr(multiprocessing, "get_context", _no_fork)
        with pytest.warns(RuntimeWarning, match="cannot fork"):
            parallel = run_sweep(spec, workers=2).to_dict()
        for section in ("cells", "fronts", "counts"):
            assert parallel[section] == serial[section]


#: Set by the sweep test before the fleet forks; workers inherit it.
_SWEEP_MARKER = {"path": None}
_EVALUATE_CELLS = explore_engine._evaluate_chunk


def _cells_dying_once(payload):
    """The sweep's chunk worker, SIGKILLed on its first call."""
    marker = _SWEEP_MARKER["path"]
    if not os.path.exists(marker):
        Path(marker).touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return _EVALUATE_CELLS(payload)


class TestSweepUnderKill:
    def test_killed_worker_leaves_the_report_bit_identical(
        self, obs_on, tmp_path, monkeypatch
    ):
        """The roadmap acceptance check: SIGKILL one worker during an
        ``explore --workers 2`` sweep — same report, retry counted, no
        warning, worker metrics and spans in the parent."""
        spec = SweepSpec(
            name="kill",
            workload={"nodes": 2, "processes_per_node": 4, "seed": [0, 1, 2]},
            methods=("SF", "analysis"),
        )
        serial = run_sweep(spec, workers=1).to_dict()
        serial_cells = _counter("repro_explore_cells_total")
        obs.reset_process()

        monkeypatch.setitem(_SWEEP_MARKER, "path", str(tmp_path / "killed"))
        monkeypatch.setattr(
            explore_engine, "_evaluate_chunk", _cells_dying_once
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parallel = run_sweep(spec, workers=2).to_dict()
        assert (tmp_path / "killed").exists(), "the kill must have fired"
        for section in ("cells", "fronts", "counts"):
            assert parallel[section] == serial[section]
        assert _counter("repro_supervisor_retries_total") >= 1
        assert _counter("repro_explore_cells_total") == serial_cells
        names = {s["name"] for s in obs_trace.drain_spans()}
        assert {"explore.cell", "worker.compute"} <= names
        assert multiprocessing.active_children() == []


class TestRemoteRefusal:
    def test_remote_worker_refuses_call_units(self):
        status, result = _compute_with_heartbeat(
            None, "w-test",
            {"id": "u1", "kind": CALL_KIND, "payload": b""},
            OrderedDict(), lease_s=60.0,
        )
        assert status == "error"
        assert result.startswith("ConfigurationError:")



def _running(pid):
    """Whether ``pid`` is a live (non-zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


class TestOrphanedWorkers:
    def test_worker_exits_when_its_owner_is_killed(self):
        """SIGKILL a process that owns a ``LocalFleet``: its idle worker
        notices the lost parent and exits instead of blocking on its
        task queue forever."""
        script = (
            "import time\n"
            "from repro.serve.workers import LocalFleet\n"
            "fleet = LocalFleet(1)\n"
            "print(fleet.pid(fleet.worker_ids()[0]), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        owner = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        worker = None
        try:
            worker = int(owner.stdout.readline())
            assert _running(worker)
            owner.kill()
            owner.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while _running(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(worker), "orphaned worker still alive"
        finally:
            if owner.poll() is None:
                owner.kill()
                owner.wait(timeout=10)
            owner.stdout.close()
            if worker is not None and _running(worker):
                os.kill(worker, signal.SIGKILL)
