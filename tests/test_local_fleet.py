"""The local fleet's private pipes.

Each forked worker has one duplex pipe that only it replies on, and the
supervisor's scheduler thread sends every task and reads every reply.
These tests pin down what that buys:

* a worker killed halfway through writing a reply tears only its own
  pipe: the parent reads end-of-file, retries the unit, and the rest of
  the fleet keeps delivering;
* a reply a worker sent before it died is delivered, not retried, even
  when the scheduler sees the reply and the death in the same pass;
* no pump thread carries results between the fleet and the scheduler.
"""

import os
import pickle
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve.supervisor import Supervisor, SupervisorConfig
from repro.serve.workers import CALL_KIND

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the local fleet needs fork"
)

#: Squares 0..7 on two workers; the first call for 0 writes a length
#: header promising 1,000 bytes, then 3 of them, and exits.
_TORN_REPLY = r'''
import os, struct, sys
from multiprocessing import connection
from pathlib import Path

from repro import obs
from repro.explore import iter_chunked
from repro.obs import metrics

MARKER = sys.argv[1]


def tear_once(x):
    if x == 0 and not os.path.exists(MARKER):
        Path(MARKER).touch()

        def torn(self, buf):
            os.write(self.fileno(), struct.pack("!i", 1000) + b"abc")
            os._exit(9)

        connection.Connection._send_bytes = torn
    return x * x


obs.configure(enabled=True)
print(list(iter_chunked(range(8), tear_once, workers=2)), flush=True)
print(metrics.registry().counters_by_name("repro_supervisor_retries_total"))
'''


def test_torn_reply_is_retried_and_the_fleet_keeps_delivering(tmp_path):
    """Run in its own process group: a fleet whose result path is
    shared hangs here for good, and the timeout reaps it whole."""
    marker = tmp_path / "torn"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.Popen(
        [sys.executable, "-c", _TORN_REPLY, str(marker)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = run.communicate(timeout=60)
    finally:
        if run.poll() is None:
            os.killpg(run.pid, signal.SIGKILL)
            run.communicate()
    assert run.returncode == 0, err
    assert marker.exists(), "the torn reply must have been written"
    results, retries = out.splitlines()
    assert results == str([x * x for x in range(8)])
    assert float(retries) >= 1


def _reply_then_die(value):
    """Reply after 0.2 s; this worker is SIGKILLed 0.2 s after that."""
    time.sleep(0.2)
    threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGKILL)).start()
    return -value


def _wait_for(probe, timeout=30.0):
    """Poll ``probe`` until it returns a true value, and return that."""
    deadline = time.monotonic() + timeout
    while not (value := probe()):
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)
    return value


def test_reply_sent_before_death_is_delivered_not_retried():
    delivered = queue.SimpleQueue()
    sup = Supervisor(
        lambda *outcome: delivered.put(outcome), local_workers=2,
        config=SupervisorConfig(hedge_after_s=3600.0),
    )
    try:
        sup.submit("a", CALL_KIND, pickle.dumps((_reply_then_die, 5)))
        holder = _wait_for(lambda: next(
            (w["id"] for w in sup.fleet() if w["in_flight"]), None
        ))
        # Hold the scheduler off until the worker has replied and died,
        # so one pass finds both the reply and the exited process.
        with sup._lock:
            _wait_for(lambda: not next(
                w["alive"] for w in sup.fleet() if w["id"] == holder
            ))
        assert delivered.get(timeout=30) == (
            "a", "ok", pickle.dumps((False, -5))
        )
        _wait_for(lambda: sup.counters["worker_failures"] == 1)
        sup.wait_quiet()
        assert delivered.empty()
        assert sup.counters["retries"] == 0
    finally:
        sup.stop(timeout=5)


def test_no_pump_thread_carries_results():
    before = set(threading.enumerate())
    sup = Supervisor(lambda *outcome: None, local_workers=2)
    try:
        started = {
            thread.name for thread in threading.enumerate()
            if thread not in before
        }
        assert started == {"serve-supervise"}
    finally:
        sup.stop(timeout=5)
