"""Worker transports of the evaluation service.

The service dispatches *units* — self-contained, JSON-serializable work
descriptions (a batch of evaluations sharing one warm session, or a
chunk of sweep cells, conformance seeds included).  The library's local
executor (:func:`repro.explore.runner.iter_chunked`) adds one more
kind, :data:`CALL_KIND`: a pickled ``(worker, chunk)`` call that only
the local fleet runs.  This module owns the three places a unit can
execute:

* **Inline** — :func:`run_unit` called directly on a service thread
  (the degraded mode when the fleet is empty, and the recovery path).
* **Local fork** — :class:`LocalFleet`: persistent forked worker
  processes, each with one *private* duplex pipe for its tasks and
  replies (so the supervisor knows exactly which worker holds which
  unit — the property lease tracking and re-dispatch need), which the
  supervisor's scheduler thread alone sends on and reads.
* **Remote HTTP** — :func:`run_worker`: the client loop behind
  ``repro worker --connect URL``.  A remote worker registers with the
  server (``POST /worker/register``), long-polls for units
  (``POST /worker/poll``), heartbeats while computing
  (``POST /worker/heartbeat``) and posts results back
  (``POST /worker/result``).  Remote workers never touch the store —
  results flow back over HTTP and the service persists them — so a
  worker needs nothing but the codebase and a URL.

Every execution site runs the *same* :func:`run_unit` over the same
payloads, which is what keeps results bit-identical however the fleet
is shaped — the supervisor (:mod:`repro.serve.supervisor`) only decides
*where* and *when* a unit runs, never *what* it computes.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..exceptions import ConfigurationError, ReproError
from ..obs import reset_process, snapshot_blob
from ..obs import trace as _obs_trace
from ..obs.logging import get_logger

__all__ = [
    "CALL_KIND",
    "LocalFleet",
    "run_unit",
    "run_worker",
]

#: Unit kind of the local executor: a pickled ``(worker, chunk)`` call.
#: It carries code, not data, so it never crosses the HTTP transport —
#: a remote worker refuses it.
CALL_KIND = "call"

#: Warm sessions kept per worker process (LRU beyond this).
SESSION_CACHE_LIMIT = 4

#: Local workers respawned after a crash, per fleet lifetime — enough
#: to shrug off stray kills, few enough that a deterministic
#: crash-on-startup cannot fork-bomb the host.
RESPAWN_LIMIT = 16

#: Seconds an idle local worker waits on its pipe before it checks
#: whether its parent is still alive.
PARENT_POLL_S = 1.0


# -- unit execution (shared by every transport) ------------------------------


def _session_for(sessions: OrderedDict, system_h: str, system_dict):
    """The executor's warm session for a system (LRU-bounded)."""
    from ..api.session import Session
    from ..io.serialize import system_from_dict
    from ..system import lru_lookup

    return lru_lookup(
        sessions, system_h,
        lambda: Session(system_from_dict(system_dict)),
        SESSION_CACHE_LIMIT,
    )


def run_unit(sessions: OrderedDict, kind: str, payload: Any) -> Any:
    """Evaluate one dispatch unit (any execution site)."""
    if kind == "eval":
        return _run_eval_unit(sessions, payload)
    if kind == "cells":
        from ..explore.engine import _evaluate_chunk

        return _evaluate_chunk(payload)
    if kind == CALL_KIND:
        return _run_call_unit(payload)
    raise ReproError(f"unknown dispatch unit kind {kind!r}")


def _run_eval_unit(
    sessions: OrderedDict, payload: Dict[str, Any]
) -> List[Tuple[str, str, Any]]:
    """One batched evaluation unit: same system, backend and options.

    Results are exactly what a direct session produces
    (``RunResult.to_dict()``) — the bit-identity contract of the
    service's end-to-end test.  Per-item failures become per-item error
    entries; the rest of the unit still completes.  A system that does
    not parse fails every item alike: it would fail the same way on
    any worker, so the unit is not retried.
    """
    from ..io.serialize import config_from_dict, run_result_to_dict

    try:
        session = _session_for(
            sessions, payload["system_hash"], payload["system"]
        )
    except (ReproError, LookupError, TypeError, ValueError,
            AttributeError) as exc:
        error = f"malformed system: {type(exc).__name__}: {exc}"
        return [(job_id, "error", error) for job_id, _ in payload["items"]]
    out: List[Tuple[str, str, Any]] = []
    for job_id, config_dict in payload["items"]:
        try:
            run = session.evaluate(
                config_from_dict(config_dict),
                backend=payload["backend"],
                **payload["options"],
            )
            out.append((job_id, "ok", run_result_to_dict(run)))
        except (ReproError, TypeError, ValueError) as exc:
            out.append((job_id, "error", str(exc)))
    return out


def _run_call_unit(payload: bytes) -> bytes:
    """One local-executor unit: ``worker(chunk)``, pickled both ways.

    An exception raised by ``worker`` is the unit's *value*: the
    supervisor retries failed units, and a real evaluation error must
    reach the caller once, with its own type.
    """
    worker, chunk = pickle.loads(payload)
    try:
        return pickle.dumps((False, worker(chunk)))
    except Exception as exc:  # noqa: BLE001 - raised in the caller
        return pickle.dumps((True, exc))


# -- local fork transport ----------------------------------------------------


def _worker_main(worker_id: str, conn, parent: int, inherited) -> None:
    """Forked worker loop: evaluate dispatch units until poisoned.

    Tasks arrive on the worker's private pipe ``conn`` and replies go
    back on it.  Terminal signals are ignored — draining is the
    service's business, and a worker dying mid-unit would break the
    pool and lose the unit.  A unit that raises reports an error result
    instead of killing the worker, so one bad request cannot take the
    pool down.  The worker exits once its parent ``parent`` is gone:
    its pipe reads as end-of-file (the fork closes the ``inherited``
    ends of its siblings' pipes), and an idle worker checks the parent
    every :data:`PARENT_POLL_S` as well.
    """
    import signal

    for sibling in inherited:
        sibling.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    # Forked address space inherits the parent's obs buffers; clear them
    # so parent-recorded counters and spans never ship from a worker.
    reset_process()
    sessions: OrderedDict[str, Any] = OrderedDict()
    while True:
        try:
            if not conn.poll(PARENT_POLL_S):
                if os.getppid() != parent:
                    return
                continue
            task = conn.recv()
            if task is None:
                return
            unit_id, kind, payload, trace = task
            try:
                with _obs_trace.span(
                    "worker.compute", parent=trace,
                    worker=worker_id, unit=unit_id,
                ):
                    reply = (unit_id, "ok", run_unit(sessions, kind, payload))
            except BaseException as exc:  # noqa: BLE001 - worker must survive
                reply = (unit_id, "error", f"{type(exc).__name__}: {exc}")
            conn.send(reply + (snapshot_blob(),))
        except (EOFError, OSError):
            return


class LocalFleet:
    """Forked worker processes, each with one private duplex pipe.

    A private pipe per worker lets the supervisor attribute every
    in-flight unit to one process — when that process dies (SIGKILL,
    OOM) its units are known-lost and can be re-dispatched immediately,
    and a wedged process (SIGSTOP — the limplock case) can be hedged
    around without disturbing the rest of the pool.  Nothing is shared
    between workers: one killed mid-reply tears only its own pipe.

    ``size=0`` yields an empty fleet; the supervisor degrades to
    inline execution.  So does a platform without ``fork``, with a
    :class:`RuntimeWarning` naming the cause.
    """

    def __init__(self, size: int) -> None:
        self._ctx = None
        self._procs: Dict[str, Any] = {}
        self._conns: Dict[str, Any] = {}
        self._counter = 0
        self._respawns = 0
        if size <= 0:
            return
        import multiprocessing

        try:
            self._ctx = multiprocessing.get_context("fork")
            for _ in range(size):
                self._spawn()
        except (OSError, PermissionError, ValueError) as exc:
            warnings.warn(
                f"cannot fork local workers ({exc!r}); "
                "running units inline",
                RuntimeWarning,
                stacklevel=3,
            )
            self._ctx = None
            self._procs = {}
            self._conns = {}

    def _spawn(self) -> str:
        worker_id = f"local-{self._counter}"
        self._counter += 1
        conn, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, child, os.getpid(), list(self._conns.values())),
            daemon=True,
        )
        proc.start()
        child.close()  # the worker's death now reads as end-of-file
        self._procs[worker_id] = proc
        self._conns[worker_id] = conn
        return worker_id

    def worker_ids(self) -> List[str]:
        return list(self._procs)

    def alive(self, worker_id: str) -> bool:
        proc = self._procs.get(worker_id)
        return proc is not None and proc.is_alive()

    def waitables(self) -> List[Any]:
        """Each worker's process sentinel and pipe (ready to read)."""
        return [p.sentinel for p in self._procs.values()] + list(
            self._conns.values()
        )

    def pid(self, worker_id: str) -> Optional[int]:
        proc = self._procs.get(worker_id)
        return proc.pid if proc is not None else None

    def assign(self, worker_id: str, unit_id: str, kind: str,
               payload: Any, trace: Optional[Dict[str, str]] = None) -> None:
        """Send a task (a dead worker's sentinel reports a failed one)."""
        try:
            self._conns[worker_id].send((unit_id, kind, payload, trace))
        except (KeyError, OSError):
            pass

    def replies(self) -> List[Tuple[str, tuple]]:
        """Every ``(worker_id, (unit_id, status, result, obs))`` waiting;
        a pipe at end-of-file, torn or not, is a dead worker's: dropped."""
        out = []
        for worker_id, conn in list(self._conns.items()):
            try:
                while conn.poll():
                    out.append((worker_id, conn.recv()))
            except (EOFError, OSError):
                conn.close()
                del self._conns[worker_id]
        return out

    def discard(self, worker_id: str) -> Optional[str]:
        """Drop a dead worker; respawn a replacement (bounded).

        Returns the replacement's id, or None when the respawn budget
        is exhausted (a crash-looping environment must not fork-bomb).
        """
        proc = self._procs.pop(worker_id, None)
        conn = self._conns.pop(worker_id, None)
        if proc is not None:
            proc.join(timeout=0)
        if conn is not None:
            conn.close()
        if self._ctx is None or self._respawns >= RESPAWN_LIMIT:
            return None
        self._respawns += 1
        return self._spawn()

    def shutdown(self, timeout: float = 10.0) -> bool:
        """Poison-pill every worker; escalate to SIGKILL stragglers.

        SIGKILL (not SIGTERM) is the escalation because a SIGSTOPped
        worker — the limplock scenario the chaos suite rehearses —
        never runs a SIGTERM handler, while SIGKILL reaps it regardless.
        Returns True when every worker exited on the pill.
        """
        clean = True
        for conn in self._conns.values():
            try:
                conn.send(None)
            except OSError:
                pass
            # A worker still sending a reply gets EPIPE instead of
            # blocking on a reader that is gone.
            conn.close()
        for proc in self._procs.values():
            proc.join(timeout=timeout)
            if proc.is_alive():
                clean = False
                proc.kill()
                proc.join(timeout=5)
        self._procs.clear()
        self._conns.clear()
        return clean


# -- remote HTTP transport (the `repro worker` loop) -------------------------


def run_worker(
    url: str,
    label: Optional[str] = None,
    stop: Optional[threading.Event] = None,
    announce: Optional[Callable[[str], None]] = None,
    poll_s: Optional[float] = None,
    reconnect_s: float = 2.0,
) -> int:
    """The remote-worker client loop behind ``repro worker --connect``.

    Registers with the server, then loops: long-poll for a unit,
    compute it with a warm local session cache, heartbeat while
    computing (a background thread — the lease stays alive through
    arbitrarily long units as long as the process is actually making
    progress), post the result.  The loop survives server restarts
    (re-registering when the server no longer knows the worker id) and
    transient connection failures (bounded client-side backoff; beyond
    it, the worker waits ``reconnect_s`` and tries again) — a worker is
    a cattle process you point at a URL and forget.

    Returns 0 on a clean stop (the ``stop`` event, or the server
    telling the worker to retire during drain).
    """
    from .client import ServeClient, ServerError
    from .protocol import WORKER_PROTOCOL

    if announce is None:
        announce = get_logger("worker").info
    stop = stop or threading.Event()
    client = ServeClient(url, timeout=120.0, retries=2, backoff_s=0.2)
    sessions: OrderedDict[str, Any] = OrderedDict()
    registration: Optional[Dict[str, Any]] = None

    def _register() -> Optional[Dict[str, Any]]:
        try:
            reg = client._request(
                "POST", "/worker/register",
                {"label": label, "protocol": WORKER_PROTOCOL},
            )
        except ServerError:
            return None
        if reg.get("worker_format") != WORKER_PROTOCOL:
            raise ConfigurationError(
                f"server {url} speaks worker protocol "
                f"{reg.get('worker_format')!r}, this worker "
                f"{WORKER_PROTOCOL!r}: run a worker of the same version"
            )
        announce(
            f"registered as {reg['worker']} with {url} "
            f"(lease {reg['lease_s']:.0f}s)"
        )
        return reg

    while not stop.is_set():
        if registration is None:
            registration = _register()
            if registration is None:
                if stop.wait(reconnect_s):
                    break
                continue
        worker_id = registration["worker"]
        lease_s = float(registration["lease_s"])
        wait_s = poll_s if poll_s is not None else float(
            registration.get("poll_s", 10.0)
        )
        try:
            polled = client._request(
                "POST", "/worker/poll",
                {"worker": worker_id, "wait_s": wait_s},
            )
        except ServerError:
            # Server gone (restart, network) — re-register when back.
            registration = None
            if stop.wait(reconnect_s):
                break
            continue
        if polled.get("retire"):
            announce("server is draining; retiring")
            return 0
        if polled.get("reregister"):
            registration = None
            continue
        unit = polled.get("unit")
        if not unit:
            continue
        status, result = _compute_with_heartbeat(
            client, worker_id, unit, sessions, lease_s
        )
        body = {
            "worker": worker_id,
            "unit": unit["id"],
            "status": status,
            "result": result,
        }
        blob = snapshot_blob()
        if blob is not None:
            body["obs"] = blob
        try:
            client._request("POST", "/worker/result", body)
        except ServerError:
            # The result is lost with the connection; the supervisor's
            # lease will expire and re-dispatch the unit elsewhere.
            registration = None
            if stop.wait(reconnect_s):
                break
    return 0


def _compute_with_heartbeat(
    client, worker_id: str, unit: Dict[str, Any],
    sessions: OrderedDict, lease_s: float,
) -> Tuple[str, Any]:
    """Run one unit while a background thread renews its lease."""
    from .client import ServerError

    hb_stop = threading.Event()

    def _beat() -> None:
        interval = max(0.2, lease_s / 3.0)
        while not hb_stop.wait(interval):
            try:
                client._request("POST", "/worker/heartbeat", {
                    "worker": worker_id, "unit": unit["id"],
                })
            except ServerError:
                # A missed beat is the supervisor's signal, not ours.
                pass

    beater = threading.Thread(target=_beat, daemon=True)
    beater.start()
    try:
        if unit["kind"] == CALL_KIND:
            raise ConfigurationError(
                f"unit kind {CALL_KIND!r} carries pickled code and runs "
                "only on the local fleet"
            )
        with _obs_trace.span(
            "worker.compute", parent=unit.get("trace"),
            worker=worker_id, unit=unit["id"],
        ):
            result = run_unit(sessions, unit["kind"], unit["payload"])
        return "ok", result
    except BaseException as exc:  # noqa: BLE001 - worker must survive
        return "error", f"{type(exc).__name__}: {exc}"
    finally:
        hb_stop.set()
        beater.join(timeout=1.0)
