"""The ``serve`` workload: a ``repro serve`` daemon under open-loop load.

One generator process (this one) drives a freshly spawned daemon
(``python -m repro serve --workers 1 --port 0``, fresh store) with two
threads and so at most two connections: one submits ``POST /evaluate``
on a fixed schedule regardless of completions (open loop), the other
long-polls ``GET /result`` for the oldest unresolved job.  Each request
is timed from when it was *due* to when its result was observed, so a
stall in the generator or the daemon shows up as latency of every
request queued behind it.

Two phases run back to back on one daemon:

* ``steady`` — a fixed rate well below capacity; gives p50/p95 latency.
* ``overload`` — a burst offered far above capacity; gives completed
  requests per second.

Each phase is sent as :data:`PHASE_SECTIONS` consecutive sections; the
generator waits for a section's last result before it starts the next,
and the completion rate is the median of the overload sections'.
Latencies and rates are raw wall-clock figures: scaling them by the
host's speed (``calibrate.py``) made them spread more, because the
daemon's rate follows its batching and polling intervals more than the
host's speed.  Daemon start-up, which is interpreter work, is scaled.

Three in every ten requests repeat a configuration sent a few requests
earlier, so some repeats hit a stored result and some attach to an
in-flight job.  Afterwards the run checks that every job resolved
``done``, that the daemon computed each distinct configuration exactly
once, and that served results equal a direct ``Session.evaluate``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from calibrate import ReferenceClock

#: Steady phase: offered rate and share of the run's seconds it takes.
STEADY_RATE = 12.0
STEADY_SHARE = 0.75
#: Overload phase: offered rate and requests per second of run time.
OVERLOAD_RATE = 200.0
OVERLOAD_PER_S = 8
#: Sections per phase.
PHASE_SECTIONS = 4
#: Requests in every ten that repeat one of the previous REPEAT_WINDOW.
REPEATS_PER_10 = 3
REPEAT_WINDOW = 8
#: Daemon spawns per run; setup_s is their median.
SETUPS = 5
HTTP_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro serve`` process group with its own store directory.

    The daemon runs in a new session so that its forked worker can be
    reaped with it: :meth:`stop` asks for ``/shutdown``, then sends
    SIGTERM, then SIGKILL to the whole group.
    """

    def __init__(self, root: Path, workdir: Path, env: Dict[str, str],
                 obs: bool = False) -> None:
        workdir.mkdir(parents=True)
        self.store = workdir / "store"
        self.log_path = workdir / "daemon.log"
        env = dict(env)
        if obs:
            env["REPRO_OBS"] = "1"
        else:
            env.pop("REPRO_OBS", None)
        self.spawned_at = time.monotonic()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--store", str(self.store), "--workers", "1",
                 "--port", "0"],
                cwd=str(root), env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.host = "127.0.0.1"
        self.port = 0
        self.ready_at: Optional[float] = None

    # -- lifecycle -----------------------------------------------------------

    def wait_ready(self) -> float:
        """Block until ``serving on`` is announced and ``/stats`` shows a
        live worker; return seconds since spawn.  Raises if the daemon
        exits or stays silent past :data:`READY_TIMEOUT_S`."""
        deadline = self.spawned_at + READY_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited ({self.proc.returncode}) before "
                    f"announcing: {self._log_tail()}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not announce 'serving on'")
            for line in self.log_path.read_text(errors="replace").splitlines():
                if "serving on http://" in line:
                    address = line.split("serving on http://", 1)[1].strip()
                    self.host, _, port = address.rpartition(":")
                    self.port = int(port)
                    break
            else:
                time.sleep(0.005)
        while True:
            try:
                healthy = self.request("GET", "/healthz")[1]["status"] == "ok"
                workers = [
                    w for w in self.request("GET", "/stats")[1]["fleet"]
                    if w.get("alive") and w.get("pid")
                ]
            except (OSError, http.client.HTTPException, ValueError):
                healthy, workers = False, []
            if healthy and workers:
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("daemon never registered a live worker")
            time.sleep(0.005)
        self.ready_at = time.monotonic()
        return self.ready_at - self.spawned_at

    def stop(self) -> None:
        """Reap the daemon and its worker on every path."""
        if self.proc.poll() is None:
            try:
                self.request("POST", "/shutdown", b"{}", timeout=5.0)
            except (OSError, http.client.HTTPException, ValueError):
                pass
            for sig, wait_s in ((None, 30.0), (signal.SIGTERM, 10.0),
                                (signal.SIGKILL, 10.0)):
                if sig is not None:
                    self._signal_group(sig)
                try:
                    self.proc.wait(timeout=wait_s)
                    break
                except subprocess.TimeoutExpired:
                    continue
        # The worker ignores SIGTERM; make sure nothing of the group
        # outlives the daemon.
        self._signal_group(signal.SIGKILL)
        self.proc.wait()

    def _signal_group(self, sig) -> None:
        try:
            os.killpg(self.proc.pid, sig)
        except (ProcessLookupError, PermissionError):
            pass

    def _log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-500:]
        except OSError:
            return ""

    # -- HTTP ----------------------------------------------------------------

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                timeout: float = HTTP_TIMEOUT_S) -> Tuple[int, Dict[str, Any]]:
        """One HTTP/1.0 round trip; returns ``(status, json body)``."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def peak_rss_mb(self, stats: Dict[str, Any]) -> float:
        """``VmHWM`` of the daemon plus its workers, in MB."""
        pids = [self.proc.pid] + [
            w["pid"] for w in stats.get("fleet", []) if w.get("pid")
        ]
        return sum(vm_hwm_mb(pid) for pid in pids)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- inputs ------------------------------------------------------------------


def make_inputs(seed: int, seconds: float):
    """The system, its distinct configurations and the two phase plans.

    A plan is a list of :data:`PHASE_SECTIONS` sections, each a list of
    ``(due offset s from the section's start, config index)``; repeats
    point at a configuration sent up to :data:`REPEAT_WINDOW` requests
    earlier in the same phase.
    """
    from repro.buses.ttp import Slot, TTPBusConfig
    from repro.conformance.campaign import conformance_configuration
    from repro.io.serialize import config_to_dict, system_to_dict
    from repro.synth.workload import WorkloadSpec, generate_workload

    rng = random.Random(f"perfbench-serve-{seed}")
    system = generate_workload(
        WorkloadSpec(nodes=2, processes_per_node=8, seed=seed)
    )
    base = conformance_configuration(system, rounds_per_period=10)
    configs: List[Any] = []

    def fresh_config() -> int:
        # A slot-length move: every slot scaled independently by up to
        # +-10%, the knob the synthesis heuristics turn.
        config = conformance_configuration(system, rounds_per_period=10)
        config.bus = TTPBusConfig([
            Slot(s.node, s.capacity, s.duration * rng.uniform(0.9, 1.1))
            for s in base.bus.slots
        ])
        configs.append(config)
        return len(configs) - 1

    def plan(count: int, rate: float) -> List[List[Tuple[float, int]]]:
        out: List[Tuple[float, int]] = []
        repeats: List[int] = []
        for i in range(count):
            if i % 10 == 0:
                # An exact share per ten requests: a share drawn per
                # request moved the steady p50 from seed to seed.
                repeats = rng.sample(range(10), REPEATS_PER_10)
            if out and i % 10 in repeats:
                index = rng.choice(out[-REPEAT_WINDOW:])[1]
            else:
                index = fresh_config()
            out.append((i / rate, index))
        size = -(-count // PHASE_SECTIONS)
        return [
            [(offset - out[first][0], index)
             for offset, index in out[first:first + size]]
            for first in range(0, count, size)
        ]

    steady = plan(max(200, int(STEADY_RATE * STEADY_SHARE * seconds)),
                  STEADY_RATE)
    overload = plan(max(100, int(OVERLOAD_PER_S * seconds)), OVERLOAD_RATE)
    system_json = json.dumps(system_to_dict(system))
    bodies = [
        ('{"system": %s, "config": %s, "backend": "analysis"}'
         % (system_json, json.dumps(config_to_dict(c)))).encode("utf-8")
        for c in configs
    ]
    return system, configs, bodies, {"steady": steady, "overload": overload}


# -- the open-loop generator -------------------------------------------------


class _Poller(threading.Thread):
    """Long-polls ``/result`` for the oldest unresolved job, in order."""

    def __init__(self, daemon: Daemon) -> None:
        super().__init__(name="perfbench-poller", daemon=True)
        self.daemon_ = daemon
        self.pending: deque = deque()
        self.cond = threading.Condition()
        self.closed = False
        #: job id -> (observed monotonic time, status, payload)
        self.resolved: Dict[str, Tuple[float, str, Any]] = {}
        self.error: Optional[BaseException] = None

    def add(self, job_id: str) -> None:
        with self.cond:
            self.pending.append(job_id)
            self.cond.notify()

    def close(self) -> None:
        with self.cond:
            self.closed = True
            self.cond.notify()

    def run(self) -> None:
        try:
            while True:
                with self.cond:
                    while not self.pending and not self.closed:
                        self.cond.wait()
                    if not self.pending:
                        return
                    job_id = self.pending[0]
                if job_id not in self.resolved:
                    _, data = self.daemon_.request(
                        "GET", f"/result?id={job_id}"
                    )
                    if data.get("status") not in ("done", "error"):
                        continue
                    self.resolved[job_id] = (
                        time.monotonic(), data["status"], data.get("result")
                    )
                with self.cond:
                    self.pending.popleft()
        except BaseException as exc:  # surfaced by the phase, not lost
            self.error = exc


def run_phase(daemon: Daemon, bodies: List[bytes],
              plan: List[Tuple[float, int]]) -> Dict[str, Any]:
    """Send one phase open loop and observe every result."""
    poller = _Poller(daemon)
    poller.start()
    sent: List[Dict[str, Any]] = []
    start = time.monotonic() + 0.05
    for offset, index in plan:
        due = start + offset
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        record: Dict[str, Any] = {"due": due, "config": index,
                                  "sent": time.monotonic()}
        try:
            status, data = daemon.request("POST", "/evaluate", bodies[index])
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, data = 0, {"error": str(exc)}
        record["answered"] = time.monotonic()
        record["http"] = status
        if status == 200:
            record["id"] = data["id"]
            record["store_hit"] = data.get("status") == "done"
            if not record["store_hit"]:
                poller.add(data["id"])
        sent.append(record)
    poller.close()
    poller.join(timeout=120.0)
    if poller.is_alive() or poller.error is not None:
        raise RuntimeError(f"result poller failed: {poller.error!r}")
    latencies: List[float] = []
    succeeded = failed = refused = 0
    last_observed = start
    for record in sent:
        if record["http"] == 429:
            refused += 1
        if record.get("store_hit"):
            # Answered from the store: the submission response is the
            # result being available.
            observed = record["answered"]
        else:
            resolved = poller.resolved.get(record.get("id", ""))
            if resolved is None or resolved[1] != "done":
                failed += 1
                latencies.append(float("inf"))
                continue
            observed = max(record["answered"], resolved[0])
        succeeded += 1
        last_observed = max(last_observed, observed)
        latencies.append((observed - record["due"]) * 1000.0)
    return {
        "sent": len(sent),
        "succeeded": succeeded,
        "failed": failed,
        "refused": refused,
        "latencies_ms": latencies,
        "submit_ms": [
            (r["answered"] - r["sent"]) * 1000.0 for r in sent
        ],
        "max_lateness_ms": max(
            (r["sent"] - r["due"]) * 1000.0 for r in sent
        ),
        "wall_s": last_observed - start,
        "resolved": poller.resolved,
        "records": sent,
    }


def run_sections(daemon: Daemon, bodies: List[bytes],
                 sections: List[List[Tuple[float, int]]]) -> Dict[str, Any]:
    """Run a phase's sections one after another; one phase result with
    the median completion rate of its sections."""
    parts = [run_phase(daemon, bodies, plan) for plan in sections]
    resolved: Dict[str, Tuple[float, str, Any]] = {}
    for part in parts:
        resolved.update(part["resolved"])
    return {
        **{kind: sum(part[kind] for part in parts)
           for kind in ("sent", "succeeded", "failed", "refused", "wall_s")},
        **{key: [x for part in parts for x in part[key]]
           for key in ("latencies_ms", "submit_ms", "records")},
        "max_lateness_ms": max(part["max_lateness_ms"] for part in parts),
        "per_s": statistics.median(
            part["succeeded"] / part["wall_s"] for part in parts
        ),
        "resolved": resolved,
    }


# -- checks ------------------------------------------------------------------


def _response_rows(result: Dict[str, Any]) -> Dict[str, Any]:
    return {key: row.get("response") for key, row in result["timing"].items()}


def check_results(system, configs, phases: Dict[str, Dict[str, Any]],
                  stats: Dict[str, Any]) -> List[str]:
    """Exactly-once and equality-with-direct-evaluation checks."""
    from repro.api.session import Session
    from repro.io.serialize import run_result_to_dict

    problems: List[str] = []
    served: Dict[int, Dict[str, Any]] = {}
    for name, phase in phases.items():
        if phase["failed"]:
            problems.append(f"{name}: {phase['failed']} request(s) failed")
        for record in phase["records"]:
            resolved = phase["resolved"].get(record.get("id", ""))
            if resolved is not None and resolved[2] is not None:
                served.setdefault(record["config"], resolved[2])
    unique = len({r["config"] for p in phases.values() for r in p["records"]})
    computed = stats["counters"]["computed"]
    if computed != unique:
        problems.append(
            f"daemon computed {computed} results for {unique} distinct "
            "configurations (exactly-once broken)"
        )
    if len(served) != unique:
        problems.append(
            f"results observed for {len(served)} of {unique} configurations"
        )
    session = Session(system)
    for index, result in sorted(served.items()):
        direct = run_result_to_dict(
            session.evaluate(configs[index], backend="analysis",
                             memoize=False)
        )
        for field in ("schedulable", "degree"):
            if result[field] != direct[field]:
                problems.append(
                    f"config {index}: served {field} {result[field]!r} != "
                    f"direct {direct[field]!r}"
                )
        if _response_rows(result) != _response_rows(direct):
            problems.append(f"config {index}: response times differ")
    return problems


# -- the workload ------------------------------------------------------------


def run_serve(root: Path, tmp: Path, env: Dict[str, str], seed: int,
              seconds: float, obs: bool, spawned_at: float) -> Dict[str, Any]:
    """Set up :data:`SETUPS` daemons, load the last one, check, reap.

    ``setup_s`` is this generator's own start (interpreter, imports,
    input generation, from ``spawned_at``) plus the median time from
    daemon spawn to a healthy daemon with a live worker, both at the
    reference speed.
    """
    system, configs, bodies, plans = make_inputs(seed, seconds)
    clock = ReferenceClock()
    generator_s = (time.monotonic() - spawned_at) * clock.initial_scale
    spawn_s: List[float] = []
    daemon: Optional[Daemon] = None
    try:
        for k in range(SETUPS):
            daemon = Daemon(root, tmp / f"daemon{k}", env,
                            obs=obs and k == SETUPS - 1)
            ready_s, scale = clock.run(daemon.wait_ready)
            spawn_s.append(ready_s * scale)
            if k < SETUPS - 1:
                daemon.stop()
                daemon = None
        phases = {
            name: run_sections(daemon, bodies, plans[name])
            for name in ("steady", "overload")
        }
        stats = daemon.request("GET", "/stats")[1]
        rss_mb = daemon.peak_rss_mb(stats)
    finally:
        if daemon is not None:
            daemon.stop()
    problems = check_results(system, configs, phases, stats)
    out: Dict[str, Any] = {
        "setup_s": generator_s + statistics.median(spawn_s),
        "peak_rss_mb": rss_mb,
        "stats": stats,
        "phases": {
            name: {k: v for k, v in phase.items()
                   if k not in ("resolved", "records")}
            for name, phase in phases.items()
        },
        "problems": problems,
    }
    if obs:
        from repro.obs.export import read_spans_jsonl

        from layers import span_self_times

        out["spans"] = span_self_times(
            read_spans_jsonl(daemon.store / "serve-trace.jsonl")
        )
    return out
