"""Supervision of the worker fleet: liveness, leases, retries, hedging.

The :class:`Supervisor` sits between the service's dispatch queue and
the transports of :mod:`repro.serve.workers`.  The service hands it
units; the supervisor decides *where* and *when* each unit runs and
guarantees **at-least-once dispatch with exactly-once delivery**:

* **Leases.**  Every dispatched attempt carries a deadline.  Local
  attempts are backed by process liveness (a SIGKILLed worker is
  detected the moment its process sentinel fires, after any reply it
  sent first is delivered); remote attempts are kept alive by
  heartbeats (``POST /worker/heartbeat`` while the worker computes) —
  a worker that stops beating past its lease (killed, partitioned, or
  SIGSTOPped) forfeits the unit.
* **Retries.**  A failed or expired attempt re-dispatches with bounded
  exponential backoff, preferring a worker that has not yet touched the
  unit.  A unit that keeps failing resolves as an error after
  ``unit_retries`` transport failures — it never spins forever.
* **Hedging** (limplock mitigation).  A unit whose only live attempt
  has run far past the observed latency of its kind — on a worker that
  is still *alive* (a dead worker is a retry, not a hedge) — gets a
  speculative second attempt on an idle worker.  First result wins;
  late results are dropped (``hedge_wasted``) before they reach the
  service, so delivery — counters, store writes, client results —
  stays exactly-once per key even when hedges race.
* **Journal.**  :class:`UnitJournal` records every unit at enqueue and
  every delivery, append-only with fsync, in the store directory.  A
  killed server restarts, replays the pending set, and re-dispatches
  in-flight work — no cell of a sweep is lost to a crash.
* **Degradation.**  With no live workers at all (``--workers 0`` and
  an empty remote fleet) units execute inline on the supervisor
  thread: a fleet is an optimization, never a requirement.
* **Signalled scheduling.**  The scheduler runs a pass only when
  something happened: a submit, an attempt result, a worker
  registering, ``abandon_pending``, ``stop``, a local worker's reply
  or process exit, or the earliest pending timer falling due.  It is
  the only thread that talks to the local fleet: it sends every task
  down a worker's private pipe and reads every reply.  Job deadlines and
  retry backoffs sit in a timer heap; leases, hedge thresholds and
  remote-worker timeouts belong to the in-flight attempts and the
  fleet, which are bounded by the fleet size, so each pass recomputes
  them.  With nothing pending the scheduler sleeps without a timeout.

The library's parallel runs (:func:`repro.explore.runner.iter_chunked`)
drive the same supervisor in-process over a local fleet.  The
supervisor never interprets results; it delivers the first terminal
outcome of each unit to the caller's completion callback and drops the
rest.  Results are therefore bit-identical to a failure-free
run under any kill/slow/partition schedule — the standing invariant
the chaos suite enforces.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import threading
import time
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_ready
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import state as _obs_state
from ..obs import trace as _obs_trace
from .workers import LocalFleet, run_unit

__all__ = ["Supervisor", "SupervisorConfig", "UnitJournal"]

#: Format tag of the pending-unit journal (first line of the file).
JOURNAL_FORMAT = "serve-journal-v1"


# -- the crash-safe pending-unit journal -------------------------------------


class UnitJournal:
    """Append-only record of units enqueued and delivered.

    One JSON object per line: a header line stamps the format, then
    ``{"op": "unit", "id", "kind", "payload", "persist"}`` at enqueue
    and ``{"op": "done", "id"}`` at delivery.  Appends are flushed and
    fsynced — a unit acknowledged to the journal survives ``kill -9``.
    A torn tail (the crash happened mid-append) invalidates only the
    torn line, exactly like the result store's segments.

    :meth:`pending` replays the file into the not-yet-delivered unit
    set; :meth:`reset` compacts the file to its header once the pending
    set is empty.  A restart re-dispatches pending units under their
    journaled ids, so recovery itself never rewrites the file.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists()
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._append({"format": JOURNAL_FORMAT})

    def _append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, default=str)
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record_unit(
        self, unit_id: str, kind: str, payload: Any,
        persist: Optional[Dict[str, Any]],
        trace: Optional[Dict[str, str]] = None,
    ) -> None:
        record = {
            "op": "unit", "id": unit_id, "kind": kind,
            "payload": payload, "persist": persist,
        }
        # Only present when tracing is on, so an obs-off journal stays
        # byte-identical to the pre-obs format.
        if trace is not None:
            record["trace"] = trace
        with self._lock:
            self._append(record)

    def record_done(self, unit_id: str) -> None:
        with self._lock:
            self._append({"op": "done", "id": unit_id})

    def pending(self) -> List[Dict[str, Any]]:
        """Replay the journal into the undelivered unit list (in
        enqueue order).  Corrupt or torn lines are skipped — the
        journal must never make a restart worse than a cold start."""
        with self._lock:
            self._handle.flush()
            units: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
            try:
                with open(self.path, encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            record = json.loads(line)
                        except json.JSONDecodeError:
                            continue  # torn tail / damage: skip
                        op = record.get("op")
                        if op == "unit" and "id" in record:
                            units[record["id"]] = record
                        elif op == "done":
                            units.pop(record.get("id"), None)
            except OSError:
                return []
            return list(units.values())

    def reset(self) -> None:
        """Rewrite the journal to its header (nothing pending)."""
        with self._lock:
            self._handle.close()
            tmp = self.path.with_suffix(".tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(json.dumps({"format": JOURNAL_FORMAT}) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            self._handle = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        with self._lock:
            try:
                self._handle.close()
            except OSError:
                pass


# -- supervision -------------------------------------------------------------


@dataclass
class SupervisorConfig:
    """Liveness and delivery policy knobs (CLI-exposed on ``serve``)."""

    #: Attempt lease: a remote attempt must heartbeat within this
    #: window or forfeit the unit; also the lease advertised to
    #: workers (they beat at a third of it).
    lease_s: float = 15.0
    #: A remote worker silent this long (no poll, no beat) is dropped
    #: from the fleet and its attempts forfeited.
    worker_timeout_s: float = 30.0
    #: Transport failures tolerated per unit before it resolves error.
    unit_retries: int = 3
    #: Exponential-backoff base/cap between re-dispatches of one unit.
    retry_base_s: float = 0.25
    retry_max_s: float = 5.0
    #: Hedging: a unit's only live attempt older than
    #: ``max(hedge_min_s, hedge_factor * EWMA latency of its kind)``
    #: (or ``hedge_after_s`` exactly, when set) gets a speculative
    #: duplicate on an idle worker.  One hedge per unit.
    hedge_after_s: Optional[float] = None
    hedge_min_s: float = 2.0
    hedge_factor: float = 4.0
    #: Long-poll window advertised to remote workers.
    poll_s: float = 10.0


@dataclass
class _Attempt:
    worker: str
    started: float
    deadline: float
    hedge: bool = False
    failed: bool = False
    #: The "serve.attempt" span (None when obs is off).
    span: Any = None


@dataclass
class _Unit:
    id: str
    kind: str
    payload: Any
    deadline: Optional[float] = None
    created: float = field(default_factory=time.monotonic)
    attempts: List[_Attempt] = field(default_factory=list)
    tried: set = field(default_factory=set)
    failures: int = 0
    next_due: float = 0.0
    resolved: bool = False
    resolved_at: Optional[float] = None
    hedges: int = 0
    #: Propagated trace context ({"trace", "span"}) of the owning
    #: serve.unit span; parent of every attempt span.
    trace: Optional[Dict[str, str]] = None


@dataclass
class _Worker:
    id: str
    transport: str  # "local" | "remote"
    label: Optional[str] = None
    registered: float = field(default_factory=time.monotonic)
    last_seen: float = field(default_factory=time.monotonic)
    #: unit ids currently leased to this worker.
    inflight: set = field(default_factory=set)
    #: remote: units assigned but not yet picked up by a poll.
    mailbox: deque = field(default_factory=deque)
    completed: int = 0
    failed: int = 0
    lost: bool = False


class Supervisor:
    """Owns the fleet and the delivery of every dispatch unit.

    ``deliver(unit_id, status, result)`` is invoked exactly once per
    unit (never under the supervisor lock), with the first terminal
    outcome.  ``on_idle()``, when given, is invoked (also outside the
    lock) after every scheduling pass that leaves a worker free for new
    work — the service cuts its queued evaluations into units on it.
    ``local_workers`` forks the local fleet; remote workers join and
    leave at runtime through the ``/worker/*`` endpoints
    (:meth:`register_worker` / :meth:`poll` / :meth:`heartbeat` /
    :meth:`submit_result`).
    """

    def __init__(
        self,
        deliver: Callable[[str, str, Any], None],
        local_workers: int = 0,
        config: Optional[SupervisorConfig] = None,
        obs: Optional[Any] = None,
        on_idle: Optional[Callable[[], None]] = None,
    ) -> None:
        self.config = config or SupervisorConfig()
        self._deliver = deliver
        self._on_idle = on_idle
        #: Collector sink (``fold(blob)``) owned by the caller; None
        #: when obs is off.
        self._obs = obs
        self._lock = threading.RLock()
        self._poll_wake = threading.Condition(self._lock)
        #: Notified after every scheduling pass (see :meth:`wait_quiet`).
        self._passed = threading.Condition(self._lock)
        self._units: Dict[str, _Unit] = {}
        self._queue: deque = deque()  # unit ids awaiting (re-)dispatch
        #: Units submitted since the last assignment pass.
        self._unplaced = 0
        #: Resolved units in resolution order (pruned from the front).
        self._resolved: deque = deque()
        #: Timer heap of ``(when, seq, unit_id, what)`` — ``what`` is
        #: "deadline" (job deadline) or "due" (retry backoff).  Entries
        #: are never removed early; a stale one is skipped on sight.
        self._timers: List[Tuple[float, int, str, str]] = []
        self._timer_seq = itertools.count()
        #: An inline unit is running on the scheduler thread.
        self._inline_busy = False
        #: Terminal outcomes produced while holding the lock; the
        #: scheduler delivers them outside it (lock-ordering rule:
        #: ``deliver`` is never called under the supervisor lock).
        self._dead_letters: deque = deque()
        self._workers: "OrderedDict[str, _Worker]" = OrderedDict()
        self._ewma: Dict[str, float] = {}  # kind -> attempt latency
        self._stop = threading.Event()
        self._retiring = False
        self.counters: Dict[str, int] = {
            "dispatched": 0,
            "inline_units": 0,
            "retries": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "hedge_wasted": 0,
            "worker_failures": 0,
            "expired_leases": 0,
            "deadline_expired": 0,
        }
        self.fleet_size = 0  # live workers (census convenience)
        self._fleet = LocalFleet(local_workers)
        for worker_id in self._fleet.worker_ids():
            self._workers[worker_id] = _Worker(
                id=worker_id, transport="local"
            )
        self._inline_sessions: OrderedDict = OrderedDict()
        # Self-pipe the scheduler waits on beside the local workers'
        # pipes and sentinels; every signal writes one byte (_signal).
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        self._signalled = False
        self._scheduler = threading.Thread(
            target=self._schedule_loop, name="serve-supervise", daemon=True
        )
        self._scheduler.start()

    # -- service-facing API --------------------------------------------------

    @property
    def local_workers(self) -> int:
        with self._lock:
            return sum(
                1 for w in self._workers.values()
                if w.transport == "local" and not w.lost
            )

    def submit(
        self, unit_id: str, kind: str, payload: Any,
        deadline: Optional[float] = None,
        trace: Optional[Dict[str, str]] = None,
    ) -> None:
        """Accept a unit for dispatch (at-least-once from here on)."""
        with self._lock:
            self._units[unit_id] = _Unit(
                id=unit_id, kind=kind, payload=payload, deadline=deadline,
                trace=trace,
            )
            self._queue.append(unit_id)
            self._unplaced += 1
            if deadline is not None:
                self._arm(deadline, unit_id, "deadline")
            self._signal()

    def abandon_pending(self) -> List[Dict[str, str]]:
        """Resolve nothing, drop everything: the drain-timeout path.

        Marks every unresolved unit resolved (late results from
        straggling workers are discarded) and returns their identity
        — the caller surfaces them and leaves them journaled so a
        restart re-dispatches the work.
        """
        abandoned = []
        with self._lock:
            for unit in self._units.values():
                if not unit.resolved:
                    self._resolve(unit)
                    abandoned.append({"id": unit.id, "kind": unit.kind})
            self._queue.clear()
            self._unplaced = 0
            self._signal()
        return abandoned

    def has_capacity(self) -> bool:
        """Would a unit submitted now start at once?

        True when a live worker is free beyond the units already
        waiting for one — or, with an empty fleet, when the inline
        executor is free and nothing is queued.
        """
        with self._lock:
            if not any(not w.lost for w in self._workers.values()):
                return not self._queue and not self._inline_busy
            return len(self._idle_workers()) > self._unplaced

    def wait_quiet(self) -> None:
        """Block until no live worker holds a unit.

        Re-checked after every scheduling pass: a result or a worker's
        death — the two ways a worker lets go of a unit — each wake the
        scheduler.
        """
        with self._lock:
            self._passed.wait_for(lambda: not any(
                w.inflight for w in self._workers.values() if not w.lost
            ))

    def retire_workers(self) -> None:
        """Tell polling remote workers to exit (the drain path)."""
        with self._lock:
            self._retiring = True
            self._poll_wake.notify_all()

    def stop(self, timeout: float = 10.0) -> bool:
        self._stop.set()
        with self._lock:
            self._signal()
            self._poll_wake.notify_all()
        # The scheduler goes first, so no pass can mistake a retiring
        # worker for a dead one and respawn it.
        self._scheduler.join(timeout=5)
        clean = self._fleet.shutdown(timeout=timeout)
        with self._lock:
            if self._wake_w is not None and not self._scheduler.is_alive():
                os.close(self._wake_r)
                os.close(self._wake_w)
                self._wake_w = None
        return clean

    def fleet(self) -> List[Dict[str, Any]]:
        """The worker census (``/status`` and ``/stats``)."""
        now = time.monotonic()
        with self._lock:
            out = []
            for worker in self._workers.values():
                alive = not worker.lost and (
                    self._fleet.alive(worker.id)
                    if worker.transport == "local"
                    else (now - worker.last_seen
                          <= self.config.worker_timeout_s)
                )
                entry = {
                    "id": worker.id,
                    "transport": worker.transport,
                    "alive": alive,
                    "in_flight": len(worker.inflight),
                    "completed": worker.completed,
                    "failed": worker.failed,
                    "last_seen_age_s": round(now - worker.last_seen, 3),
                }
                if worker.label:
                    entry["label"] = worker.label
                if worker.transport == "local":
                    entry["pid"] = self._fleet.pid(worker.id)
                out.append(entry)
            return out

    # -- remote-worker endpoints (called from HTTP handler threads) ----------

    def register_worker(self, label: Optional[str] = None) -> Dict[str, Any]:
        worker_id = f"w{uuid.uuid4().hex[:10]}"
        with self._lock:
            self._workers[worker_id] = _Worker(
                id=worker_id, transport="remote", label=label
            )
            self._signal()
        return {
            "worker": worker_id,
            "lease_s": self.config.lease_s,
            "poll_s": self.config.poll_s,
        }

    def poll(self, worker_id: str, wait_s: float) -> Dict[str, Any]:
        """Long-poll for a unit; doubles as a liveness signal."""
        deadline = time.monotonic() + max(0.0, min(wait_s, 60.0))
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None or worker.lost or worker.transport != "remote":
                return {"reregister": True}
            while True:
                worker.last_seen = time.monotonic()
                if self._retiring or self._stop.is_set():
                    return {"retire": True}
                if worker.mailbox:
                    unit_id = worker.mailbox.popleft()
                    unit = self._units.get(unit_id)
                    if unit is None or unit.resolved:
                        continue
                    # Picking the unit up renews its lease from now.
                    now = time.monotonic()
                    trace_ctx = None
                    for attempt in unit.attempts:
                        if attempt.worker == worker_id and not attempt.failed:
                            attempt.deadline = now + self.config.lease_s
                            trace_ctx = (
                                _obs_trace.context_of(attempt.span)
                                or trace_ctx
                            )
                    polled = {
                        "id": unit.id,
                        "kind": unit.kind,
                        "payload": unit.payload,
                        "lease_s": self.config.lease_s,
                    }
                    if trace_ctx is not None:
                        polled["trace"] = trace_ctx
                    return {"unit": polled}
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return {"unit": None}
                self._poll_wake.wait(timeout=min(remaining, 1.0))
                if worker.lost:
                    return {"reregister": True}

    def heartbeat(self, worker_id: str, unit_id: str) -> Dict[str, Any]:
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None or worker.lost:
                return {"reregister": True}
            now = time.monotonic()
            worker.last_seen = now
            unit = self._units.get(unit_id)
            wanted = False
            if unit is not None and not unit.resolved:
                for attempt in unit.attempts:
                    if attempt.worker == worker_id and not attempt.failed:
                        attempt.deadline = now + self.config.lease_s
                        wanted = True
            return {"wanted": wanted}

    def submit_result(
        self, worker_id: str, unit_id: str, status: str, result: Any,
        obs: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """A worker's outcome for a unit; first terminal result wins."""
        accepted = self._on_attempt_result(
            worker_id, unit_id, status, result, obs_blob=obs
        )
        return {"accepted": accepted}

    # -- internals -----------------------------------------------------------

    def _on_attempt_result(
        self, worker_id: str, unit_id: str, status: str, result: Any,
        obs_blob: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """First terminal outcome resolves the unit; the rest drop.

        ``obs_blob`` (the worker's drained metrics and spans) is folded
        into the collector only for the *accepted* result — a retried
        or hedged duplicate must not double-count a unit's work.
        """
        deliver = None
        fold = None
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.last_seen = time.monotonic()
                worker.inflight.discard(unit_id)
            # The worker is free again (and a retry may be queued).
            self._signal()
            unit = self._units.get(unit_id)
            if unit is None or unit.resolved:
                if unit is not None:
                    self.counters["hedge_wasted"] += 1
                    late = next(
                        (a for a in unit.attempts
                         if a.worker == worker_id and not a.failed), None
                    )
                    if late is not None:
                        _obs_trace.end_span(late.span, "wasted")
                return False
            attempt = next(
                (a for a in unit.attempts
                 if a.worker == worker_id and not a.failed), None
            )
            if status != "ok" and self._should_retry_error(unit, worker_id):
                # A unit-level failure on one worker: forfeit this
                # attempt and let the scheduler retry elsewhere.
                if attempt is not None:
                    attempt.failed = True
                    _obs_trace.end_span(attempt.span, "error")
                if worker is not None:
                    worker.failed += 1
                self._register_failure(unit, f"worker error: {result}")
                return False
            self._resolve(unit)
            if worker is not None:
                worker.completed += 1
            if attempt is not None:
                latency = unit.resolved_at - attempt.started
                previous = self._ewma.get(unit.kind)
                self._ewma[unit.kind] = (
                    latency if previous is None
                    else 0.7 * previous + 0.3 * latency
                )
                if attempt.hedge:
                    self.counters["hedge_wins"] += 1
                _obs_trace.end_span(attempt.span, status)
            if _obs_state.enabled:
                # Close the losing siblings now: a hedge partner stuck
                # on a stopped worker may never report back, and its
                # attempt span must still appear in the trace.  A late
                # result's own end is idempotent and no-ops.
                for other in unit.attempts:
                    if other is not attempt and not other.failed:
                        _obs_trace.end_span(other.span, "wasted")
            deliver = (unit_id, status, result)
            fold = obs_blob
        if fold is not None and self._obs is not None:
            self._obs.fold(fold)
        if deliver is not None:
            self._deliver(*deliver)
        return True

    def _should_retry_error(self, unit: _Unit, worker_id: str) -> bool:
        """Retry a worker-reported unit error on a different worker?

        Bounded by ``unit_retries`` and only when another execution
        site exists — a deterministic error fails the same way
        everywhere and resolves after the budget; an environmental one
        (a worker wedged into a bad state) gets its chance elsewhere.
        """
        if unit.failures >= self.config.unit_retries:
            return False
        with_alternatives = any(
            w.id != worker_id and not w.lost
            for w in self._workers.values()
        )
        return with_alternatives

    def _register_failure(self, unit: _Unit, reason: str) -> None:
        """Schedule a re-dispatch with exponential backoff (lock held).

        The unit resolves as an error once the retry budget is spent.
        """
        unit.failures += 1
        self.counters["retries"] += 1
        if unit.failures > self.config.unit_retries:
            self._resolve(unit)
            self._dead_letters.append((
                unit.id, "error",
                f"unit failed after {unit.failures} attempt(s): {reason}",
            ))
            return
        backoff = min(
            self.config.retry_max_s,
            self.config.retry_base_s * (2 ** (unit.failures - 1)),
        )
        unit.next_due = time.monotonic() + backoff
        self._arm(unit.next_due, unit.id, "due")
        if unit.id not in self._queue:
            self._queue.append(unit.id)

    def _live_attempts(self, unit: _Unit) -> List[_Attempt]:
        return [a for a in unit.attempts if not a.failed]

    def _hedge_threshold(self, kind: str) -> float:
        if self.config.hedge_after_s is not None:
            return self.config.hedge_after_s
        ewma = self._ewma.get(kind)
        if ewma is None:
            return max(self.config.hedge_min_s, self.config.lease_s)
        return max(self.config.hedge_min_s, self.config.hedge_factor * ewma)

    # -- the signalled scheduler ---------------------------------------------

    def _signal(self) -> None:
        """Wake the scheduler for a pass (lock held).

        The flag says a byte is in the pipe; both change only under
        the lock, and a pass drains the pipe before it reads any state,
        so a signal that finds the flag set is covered by that pass.
        """
        if not self._signalled and self._wake_w is not None:
            self._signalled = True
            os.write(self._wake_w, b"!")

    def _arm(self, when: float, unit_id: str, what: str) -> None:
        heapq.heappush(
            self._timers, (when, next(self._timer_seq), unit_id, what)
        )

    def _timer_unit(
        self, entry: Tuple[float, int, str, str]
    ) -> Optional[_Unit]:
        """The unit a timer still applies to, or None when stale."""
        when, _, unit_id, what = entry
        unit = self._units.get(unit_id)
        if unit is None or unit.resolved:
            return None
        armed = unit.deadline if what == "deadline" else unit.next_due
        return unit if armed == when else None

    def _resolve(self, unit: _Unit) -> None:
        unit.resolved = True
        unit.resolved_at = time.monotonic()
        self._resolved.append(unit)

    def _schedule_loop(self) -> None:
        timeout: Optional[float] = 0.0
        while not self._stop.is_set():
            if timeout is None or timeout > 0:
                # A local worker's reply or exit wakes the scheduler
                # like a signal does.
                _wait_ready(
                    [self._wake_r, *self._fleet.waitables()], timeout
                )
            if self._stop.is_set():
                break
            timeout = self._schedule_pass()

    def _schedule_pass(self) -> Optional[float]:
        """One scheduling pass; returns how long the scheduler may
        sleep before the next timer falls due (None: until signalled)."""
        deliveries: List = []
        # Liveness before replies: whatever a worker sent before it
        # exited is in its pipe by now, so it is delivered, not retried.
        with self._lock:
            exited = [w for w in self._fleet.worker_ids()
                      if not self._fleet.alive(w)]
        for worker_id, reply in self._fleet.replies():
            self._on_attempt_result(worker_id, *reply)
        with self._lock:
            if self._signalled:
                os.read(self._wake_r, 1)
                self._signalled = False
            now = time.monotonic()
            self._check_workers(now, exited)
            self._fire_timers(now, deliveries)
            self._check_leases(now)
            inline_unit = self._assign_queued(now)
            self._inline_busy = inline_unit is not None
            self._check_hedges(now)
            self._prune_resolved(now)
            while self._dead_letters:
                deliveries.append(self._dead_letters.popleft())
            wake_at = self._next_wake()
            idle = self._on_idle is not None and self.has_capacity()
            self._passed.notify_all()
        for args in deliveries:
            self._deliver(*args)
        if inline_unit is not None:
            self._run_inline(inline_unit)
            self._inline_busy = False
            return 0.0  # drain the queue before sleeping
        if idle:
            self._on_idle()
        if wake_at is None:
            return None
        return max(0.0, wake_at - time.monotonic())

    def _next_wake(self) -> Optional[float]:
        """The earliest instant a pass has timed work (lock held).

        The heap's first live entry (a job deadline or a retry
        backoff) competes with the fleet's own timers: each remote
        worker's silence timeout and each in-flight attempt's remote
        lease and — only while a worker is free to take a hedge — its
        hedge threshold.  None when nothing is pending.
        """
        while self._timers and self._timer_unit(self._timers[0]) is None:
            heapq.heappop(self._timers)
        wake = [self._timers[0][0]] if self._timers else []
        can_hedge = bool(self._idle_workers())
        for worker in self._workers.values():
            if worker.lost:
                continue
            remote = worker.transport == "remote"
            if remote:
                wake.append(worker.last_seen + self.config.worker_timeout_s)
            for unit_id in worker.inflight:
                unit = self._units.get(unit_id)
                if unit is None or unit.resolved:
                    continue
                live = self._live_attempts(unit)
                for attempt in live:
                    if attempt.worker != worker.id:
                        continue
                    if remote:
                        wake.append(attempt.deadline)
                    if can_hedge and unit.hedges == 0 and len(live) == 1:
                        wake.append(
                            attempt.started
                            + self._hedge_threshold(unit.kind)
                        )
        return min(wake, default=None)

    def _check_workers(self, now: float, exited: List[str]) -> None:
        """Lose the ``exited`` local workers and silent remote ones."""
        for worker in list(self._workers.values()):
            if worker.lost:
                continue
            if worker.transport == "local":
                if worker.id in exited:
                    self._lose_worker(worker, "process died")
            else:
                if now - worker.last_seen > self.config.worker_timeout_s:
                    self._lose_worker(worker, "heartbeat timeout")
        self.fleet_size = sum(
            1 for w in self._workers.values() if not w.lost
        )

    def _lose_worker(self, worker: _Worker, reason: str) -> None:
        """Forfeit a worker and everything leased to it (lock held)."""
        worker.lost = True
        self.counters["worker_failures"] += 1
        for unit_id in list(worker.inflight):
            unit = self._units.get(unit_id)
            if unit is None or unit.resolved:
                continue
            for attempt in unit.attempts:
                if attempt.worker == worker.id and not attempt.failed:
                    attempt.failed = True
                    _obs_trace.end_span(attempt.span, "lost")
            if not self._live_attempts(unit):
                self._register_failure(
                    unit, f"worker {worker.id} lost ({reason})"
                )
        worker.inflight.clear()
        worker.mailbox.clear()
        if worker.transport == "local":
            replacement = self._fleet.discard(worker.id)
            if replacement is not None:
                self._workers[replacement] = _Worker(
                    id=replacement, transport="local"
                )
        self._poll_wake.notify_all()

    def _fire_timers(self, now: float, deliveries: List) -> None:
        """Pop every due timer; expire job deadlines (lock held).

        A due backoff needs no action here: its unit is in the queue
        and :meth:`_assign_queued` dispatches it in this same pass.
        """
        while self._timers and self._timers[0][0] <= now:
            entry = heapq.heappop(self._timers)
            unit = self._timer_unit(entry)
            if unit is not None and entry[3] == "deadline":
                self._resolve(unit)
                self.counters["deadline_expired"] += 1
                deliveries.append((unit.id, "error", "deadline exceeded"))

    def _check_leases(self, now: float) -> None:
        """Expire remote leases that ran out without a heartbeat
        (lock held)."""
        for worker in self._workers.values():
            if worker.lost or worker.transport != "remote":
                continue
            for unit_id in list(worker.inflight):
                unit = self._units.get(unit_id)
                if unit is None or unit.resolved:
                    continue
                for attempt in self._live_attempts(unit):
                    if attempt.worker == worker.id and now > attempt.deadline:
                        # The worker is wedged or partitioned.  Forfeit
                        # the attempt (its result, should it ever
                        # arrive while the unit is still unresolved, is
                        # still accepted — first result wins).
                        attempt.failed = True
                        _obs_trace.end_span(attempt.span, "expired")
                        worker.inflight.discard(unit.id)
                        self.counters["expired_leases"] += 1
                if (not self._live_attempts(unit)
                        and unit.id not in self._queue):
                    self._register_failure(unit, "lease expired")

    def _prune_resolved(self, now: float) -> None:
        """Forget resolved units once stragglers can no longer report.

        A resolved unit is kept for a grace window (two leases) so a
        late hedge or post-expiry result still lands in
        ``hedge_wasted`` instead of vanishing without trace; after
        that the bookkeeping is dropped — a long-lived server must not
        grow with its history (lock held).
        """
        horizon = now - 2.0 * self.config.lease_s
        while self._resolved and self._resolved[0].resolved_at < horizon:
            unit = self._resolved.popleft()
            if self._units.get(unit.id) is unit:
                del self._units[unit.id]

    def _idle_workers(self) -> List[_Worker]:
        return [
            w for w in self._workers.values()
            if not w.lost and not w.inflight and not w.mailbox
        ]

    def _assign_queued(self, now: float) -> Optional[_Unit]:
        """Dispatch due units to idle workers (lock held).

        Returns a unit to execute inline when the fleet is empty —
        executed by the caller *outside* the lock.
        """
        self._unplaced = 0
        if not self._queue:
            return None
        fleet_empty = not any(
            not w.lost for w in self._workers.values()
        )
        idle = self._idle_workers()
        requeue: List[str] = []
        inline_unit: Optional[_Unit] = None
        # Stop at the first unit nothing can take: the rest of the
        # queue keeps its order and waits for the next signal.
        while self._queue and (idle or (fleet_empty and inline_unit is None)):
            unit_id = self._queue.popleft()
            unit = self._units.get(unit_id)
            if unit is None or unit.resolved:
                continue
            if now < unit.next_due:
                requeue.append(unit_id)
                continue
            if fleet_empty:
                self._start_attempt(unit, worker=None)
                inline_unit = unit
                continue
            chosen = self._choose_worker(idle, unit)
            idle.remove(chosen)
            self._start_attempt(unit, chosen)
        self._queue.extendleft(reversed(requeue))
        return inline_unit

    def _choose_worker(
        self, idle: List[_Worker], unit: _Unit
    ) -> Optional[_Worker]:
        """An idle worker, preferring one the unit has not failed on."""
        fresh = [w for w in idle if w.id not in unit.tried]
        pool = fresh or idle
        return pool[0] if pool else None

    def _start_attempt(
        self, unit: _Unit, worker: Optional[_Worker], hedge: bool = False
    ) -> None:
        """Lease the unit to a worker (or mark it inline; lock held)."""
        now = time.monotonic()
        if worker is None:
            self.counters["inline_units"] += 1
            inline = _Attempt(
                worker="<inline>", started=now, deadline=float("inf")
            )
            if _obs_state.enabled:
                inline.span = _obs_trace.start_span(
                    "serve.attempt", parent=unit.trace,
                    worker="<inline>", hedge=False,
                )
            unit.attempts.append(inline)
            return
        unit.tried.add(worker.id)
        attempt = _Attempt(
            worker=worker.id,
            started=now,
            deadline=now + self.config.lease_s,
            hedge=hedge,
        )
        if _obs_state.enabled:
            # Retries and hedges become sibling serve.attempt spans
            # under the same serve.unit parent.
            attempt.span = _obs_trace.start_span(
                "serve.attempt", parent=unit.trace,
                worker=worker.id, hedge=hedge,
            )
        unit.attempts.append(attempt)
        worker.inflight.add(unit.id)
        self.counters["dispatched"] += 1
        if hedge:
            self.counters["hedges"] += 1
            unit.hedges += 1
        if worker.transport == "local":
            self._fleet.assign(
                worker.id, unit.id, unit.kind, unit.payload,
                trace=_obs_trace.context_of(attempt.span),
            )
        else:
            worker.mailbox.append(unit.id)
            self._poll_wake.notify_all()

    def _check_hedges(self, now: float) -> None:
        """Speculatively duplicate straggling units (lock held).

        Only units leased to a worker can straggle, so the scan covers
        the fleet's in-flight sets, oldest attempt first.
        """
        idle = self._idle_workers()
        if not idle:
            return
        stragglers = []
        for worker in self._workers.values():
            for unit_id in worker.inflight:
                unit = self._units.get(unit_id)
                if unit is None or unit.resolved or unit.hedges >= 1:
                    continue
                live = self._live_attempts(unit)
                if len(live) != 1 or live[0].worker != worker.id:
                    continue
                if now - live[0].started >= self._hedge_threshold(unit.kind):
                    stragglers.append((live[0].started, unit_id, unit))
        for _, _, unit in sorted(stragglers, key=lambda s: s[:2]):
            chosen = self._choose_worker(idle, unit)
            idle.remove(chosen)
            self._start_attempt(unit, chosen, hedge=True)
            if not idle:
                return

    def _run_inline(self, unit: _Unit) -> None:
        """Degraded mode: compute on the supervisor thread."""
        parent = next(
            (a.span for a in reversed(unit.attempts)
             if a.worker == "<inline>"), None
        )
        try:
            with _obs_trace.span(
                "worker.compute", parent=parent,
                worker="<inline>", unit=unit.id,
            ):
                result = run_unit(
                    self._inline_sessions, unit.kind, unit.payload
                )
            status = "ok"
        except BaseException as exc:  # noqa: BLE001 - keep supervising
            status, result = "error", f"{type(exc).__name__}: {exc}"
        self._on_attempt_result("<inline>", unit.id, status, result)
