"""The evaluation service core: queue, dedup, batching, supervision.

:class:`EvaluationService` is the transport-independent engine behind
``repro serve`` (the HTTP layer in :mod:`repro.serve.server` is a thin
shell over it).  One request flows through five stages:

1. **Normalize.**  The request is reduced to its store address
   (:func:`repro.serve.protocol.evaluation_key` — the session's
   ``store_key`` namespaced by the system fingerprint).
2. **Dedup.**  A store hit completes the request immediately
   (``store_hits``); a key already queued or running attaches the
   request to the in-flight job (``dedup_hits``) — duplicate configs
   are computed exactly once however many clients race on them.
3. **Batch.**  Queued requests are grouped by
   ``(system, backend, options)`` — the compatibility class that can
   share a warm :class:`repro.api.Session` — and each group is split
   into dispatch units with the same
   :func:`repro.explore.runner.partition_chunks` the sweep engine uses.
   The queue is cut when a worker is free: on the submitting thread,
   or from the supervisor's ``on_idle`` callback once a worker frees
   up.  While the whole fleet is busy, requests wait and coalesce, so
   batch size follows the backlog.  A request with a deadline is cut
   at once as its own unit; the supervisor's timer heap then expires
   it.  The service runs no thread of its own.
4. **Compute.**  Units go to the :class:`repro.serve.supervisor.
   Supervisor`, which owns the worker fleet — local forked processes
   and/or remote HTTP workers (``repro worker --connect``) — plus
   liveness, leases, bounded retries, straggler hedging, and inline
   degradation when the fleet is empty.  Every unit is journaled
   before dispatch (crash-safe: a killed server re-dispatches pending
   units on restart) and delivered exactly once however many hedged
   attempts race.
5. **Persist + resolve.**  One function finishes every delivered unit,
   live or recovered from the journal: it writes the results to the
   sharded store by the unit's journaled ``persist`` spec, *then*
   appends the journal's ``done`` record — a kill between the two
   re-dispatches the unit instead of losing its results — and then
   resolves the attached jobs and wakes every waiter.  Grace-window
   compaction keeps the store directory bounded while live.

Sweeps ride the same pipeline as batch jobs, and a conformance
campaign is a sweep (one ``conform`` cell per seed): the service
expands the spec server-side and plans it with the engine's own
:func:`repro.explore.engine.plan_cells` — the same cells, store
lookup and units a local run would produce — and fans the pending
units out; the client reassembles the report.  Worker processes never
touch the store — all store I/O stays in the service process, so the
multi-writer story stays one writer per process plus shard-local
segments.

Backpressure: the pending-work set is bounded (``max_pending`` units).
Submissions beyond it raise :class:`ServiceOverloaded`, which the HTTP
shell maps to ``429`` with a ``Retry-After`` estimate — an overloaded
server sheds load instead of growing memory, and :class:`repro.serve.
client.ServeClient` retries after the advertised delay.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..exceptions import ReproError
from ..explore.runner import partition_chunks
from ..obs import metrics as _obs_metrics
from ..obs import state as _obs_state
from ..obs import trace as _obs_trace
from ..store import ResultStore
from .protocol import (
    RESULT_KIND,
    UNIT_KINDS,
    evaluation_key,
    system_fingerprint,
)
from .supervisor import Supervisor, SupervisorConfig, UnitJournal

__all__ = ["EvaluationService", "Job", "ServiceOverloaded"]

#: Completed jobs remembered for status polling (LRU beyond this).
_JOB_HISTORY_LIMIT = 4096

#: Pending-unit journal file, inside the store directory (segments are
#: only scanned under ``shards/``, so the store never mistakes it for
#: data).
_JOURNAL_NAME = "serve-journal.jsonl"


class _ServiceObs:
    """The serve-side obs collector: one service-wide view.

    Folds worker-shipped blobs (drained metrics + spans) into the
    process registry, appends every span — local or shipped — to a
    JSONL trace file in the store directory, keeps a bounded in-memory
    span buffer for ``GET /trace``, and remembers which trace id each
    job belongs to.  Constructed only when obs is enabled; every call
    site guards with ``if self._obs is not None``.
    """

    TRACE_NAME = "serve-trace.jsonl"

    def __init__(self, store_root: Union[str, Path]) -> None:
        self.registry = _obs_metrics.registry()
        self.path = Path(store_root) / self.TRACE_NAME
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=100_000)
        self._job_traces: "OrderedDict[str, str]" = OrderedDict()

    def link_job(self, job_id: str, span: Any) -> None:
        if span is None:
            return
        with self._lock:
            self._job_traces[job_id] = span.trace_id
            while len(self._job_traces) > _JOB_HISTORY_LIMIT:
                self._job_traces.popitem(last=False)

    def record(self, spans: Optional[List[Dict[str, Any]]]) -> None:
        if not spans:
            return
        import json as _json

        with self._lock:
            self._spans.extend(spans)
            try:
                with open(self.path, "a", encoding="utf-8") as handle:
                    for entry in spans:
                        handle.write(_json.dumps(entry, default=str) + "\n")
            except OSError:
                pass  # tracing must never fail the work

    def fold(self, blob: Any) -> None:
        """Merge one worker's shipped obs blob (exactly once per unit)."""
        if not isinstance(blob, dict):
            return
        metrics = blob.get("metrics")
        if metrics:
            self.registry.merge(metrics)
        self.record(blob.get("spans") or [])

    def flush_local(self) -> None:
        """Collect spans finished on this process's own threads."""
        self.record(_obs_trace.drain_spans())

    def trace_of(self, job_id: str) -> Optional[str]:
        with self._lock:
            return self._job_traces.get(job_id)

    def spans_for(self, trace_id: str) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                entry for entry in self._spans
                if entry.get("trace") == trace_id
            ]


class ServiceOverloaded(ReproError):
    """The pending-work bound is hit; retry after ``retry_after_s``."""

    def __init__(self, depth: int, limit: int, retry_after_s: float) -> None:
        super().__init__(
            f"service overloaded ({depth} pending units, limit {limit}); "
            f"retry in {retry_after_s:.1f}s"
        )
        self.retry_after_s = retry_after_s


@dataclass
class Job:
    """One tracked request (a single evaluation or a whole batch)."""

    id: str
    kind: str  # "eval" | "sweep" | "recovery"
    status: str = "queued"  # queued | running | done | error
    #: Serve store key (eval jobs with addressable options only).
    key: Optional[str] = None
    #: The work (eval: dispatch payload fields; batch: spec + slots).
    request: Dict[str, Any] = field(default_factory=dict)
    result: Any = None
    error: Optional[str] = None
    done: threading.Event = field(default_factory=threading.Event)
    created: float = field(default_factory=time.monotonic)
    started: Optional[float] = None
    finished: Optional[float] = None
    #: Client-propagated deadline (monotonic instant; None = none).
    deadline: Optional[float] = None
    #: Requests coalesced onto this job (the dedup fan-in count).
    attached: int = 1
    #: Batch jobs: dispatch units still out.
    pending_units: int = 0
    #: Batch jobs: results land here, position-addressed.
    slots: List[Any] = field(default_factory=list)
    #: Batch jobs: how many slots came from the store.
    store_hits: int = 0
    #: Batch jobs: how many slots were computed by this job.
    computed: int = 0
    #: The "serve.job" span (None when obs is off).
    span: Any = None

    def public_status(self) -> Dict[str, Any]:
        """The JSON shape of ``GET /status?id=``."""
        out: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "attached": self.attached,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.kind != "eval":
            total = len(self.slots)
            out["progress"] = {
                "total": total,
                "done": sum(1 for slot in self.slots if slot is not None),
                "store_hits": self.store_hits,
                "computed": self.computed,
            }
        if self.finished is not None and self.started is not None:
            out["compute_s"] = self.finished - self.started
        return out


def _sweep_spec(spec_dict: Dict[str, Any]) -> Any:
    """The spec of a ``POST /sweep`` body: a conformance campaign when
    it names a ``campaign`` size, a design-space sweep otherwise."""
    if "campaign" in spec_dict:
        from ..conformance.campaign import CampaignSpec

        return CampaignSpec.from_dict(spec_dict)
    from ..explore.spec import SweepSpec

    return SweepSpec.from_dict(spec_dict)


class EvaluationService:
    """Queue + dedup + batching + supervised fleet (module docstring).

    Parameters
    ----------
    store:
        Sharded result store (directory or instance) backing dedup and
        persistence.
    workers:
        Local forked worker processes.  ``0`` starts no local fleet —
        the service computes inline until remote workers connect
        (``repro worker --connect URL``), and degrades back to inline
        whenever the fleet empties.
    max_pending:
        Bound on queued evaluations + in-flight dispatch units; beyond
        it submissions raise :class:`ServiceOverloaded` (HTTP 429).
    journal:
        Keep the crash-safe pending-unit journal (default on).  A
        restarted service re-dispatches journaled in-flight units.
    supervisor:
        Liveness/delivery policy (:class:`SupervisorConfig`); defaults
        are production-shaped, tests shrink the timers.
    """

    def __init__(
        self,
        store: Union[str, Path, ResultStore],
        workers: int = 2,
        max_pending: int = 1024,
        journal: bool = True,
        supervisor: Optional[SupervisorConfig] = None,
    ) -> None:
        if isinstance(store, (str, Path)):
            store = ResultStore(store)
        self.store = store
        #: The store's failed writes before this service used it; the
        #: ``store_errors`` counter reports the service's own.
        self._store_errors_base = store.stats.write_errors
        self.workers = max(0, int(workers))
        self.max_pending = max(1, int(max_pending))
        self._lock = threading.RLock()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        #: serve-key -> queued/running eval job (the dedup map).
        self._inflight: Dict[str, Job] = {}
        #: Eval jobs awaiting batching (none carries a deadline).
        self._eval_queue: deque = deque()
        #: unit_id -> unit bookkeeping for completion.
        self._units: Dict[str, Dict[str, Any]] = {}
        self._unit_counter = itertools.count()
        self._unit_nonce = uuid.uuid4().hex[:6]
        self._accepting = True
        self._started_at = time.monotonic()
        #: Units dropped by a timed-out drain (still journaled).
        self.abandoned: List[Dict[str, str]] = []
        #: Units replayed from the journal at startup.
        self.recovered_units = 0
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "dedup_hits": 0,
            "store_hits": 0,
            "computed": 0,
            "errors": 0,
        }
        self._timings: Dict[str, float] = {
            "queue_wait_s": 0.0,
            "unit_compute_s": 0.0,
            "units": 0.0,
        }
        #: Notified whenever a job finishes (``/results`` streams).
        self._finished = threading.Condition(self._lock)
        #: Notified when no work is left (``drain``).
        self._settled = threading.Condition(self._lock)
        self.journal: Optional[UnitJournal] = (
            UnitJournal(Path(self.store.root) / _JOURNAL_NAME)
            if journal else None
        )
        self._obs: Optional[_ServiceObs] = (
            _ServiceObs(self.store.root) if _obs_state.enabled else None
        )
        self._supervisor = Supervisor(
            deliver=self._complete_unit,
            local_workers=self.workers,
            config=supervisor,
            obs=self._obs,
            on_idle=self._on_fleet_idle,
        )
        if self._supervisor.local_workers < self.workers:
            # fork unavailable: the fleet degraded to empty (inline).
            self.workers = self._supervisor.local_workers
        self._recover_journal()

    @property
    def supervisor(self) -> Supervisor:
        return self._supervisor

    # -- capacity ------------------------------------------------------------

    def _check_capacity(self, incoming_units: int) -> None:
        """Reject work beyond ``max_pending`` (lock held)."""
        depth = len(self._eval_queue) + len(self._units)
        if depth + incoming_units <= self.max_pending:
            return
        units_done = self._timings["units"] or 1.0
        unit_s = self._timings["unit_compute_s"] / units_done or 1.0
        parallelism = max(1, self._supervisor.fleet_size)
        retry_after = min(60.0, max(1.0, depth * unit_s / parallelism))
        raise ServiceOverloaded(depth, self.max_pending, retry_after)

    @staticmethod
    def _job_deadline(deadline_s: Optional[float]) -> Optional[float]:
        if deadline_s is None:
            return None
        return time.monotonic() + max(0.0, float(deadline_s))

    # -- submission ----------------------------------------------------------

    def submit_evaluation(
        self,
        system: Dict[str, Any],
        config: Dict[str, Any],
        backend: str = "analysis",
        options: Optional[Dict[str, Any]] = None,
        deadline_s: Optional[float] = None,
        trace: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        """Submit one evaluation; returns the submission envelope.

        ``{"id", "status", "deduplicated", "store_hit"}`` — with
        ``status == "done"`` the result is already available (store
        hit).  A request whose key is in flight attaches to the
        existing job and returns that job's id: polling either id
        observes the single shared computation.  ``deadline_s`` bounds
        the job: it is cut at once as its own unit, and the supervisor
        stops retrying past it and resolves the job as an error.
        """
        options = dict(options or {})
        system_h = system_fingerprint(system)
        skey, serve_key = evaluation_key(system_h, backend, options, config)
        with self._lock:
            if not self._accepting:
                raise ReproError("service is draining; not accepting work")
            self.counters["submitted"] += 1
            if serve_key is not None:
                payload = self.store.get(serve_key, kind=RESULT_KIND)
                if payload is not None:
                    job = self._new_job("eval", key=serve_key)
                    job.status = "done"
                    job.result = payload
                    job.finished = job.started = time.monotonic()
                    self._mark_done(job)
                    self.counters["store_hits"] += 1
                    return self._submit_envelope(
                        job, deduplicated=False, store_hit=True
                    )
                inflight = self._inflight.get(serve_key)
                if inflight is not None:
                    inflight.attached += 1
                    self.counters["dedup_hits"] += 1
                    return self._submit_envelope(
                        inflight, deduplicated=True, store_hit=False
                    )
            self._check_capacity(1)
            job = self._new_job("eval", key=serve_key)
            self._open_job_span(job, trace)
            job.deadline = self._job_deadline(deadline_s)
            job.request = {
                "system": system,
                "system_hash": system_h,
                "backend": backend,
                "options": options,
                "config": config,
                "skey": skey,
            }
            if serve_key is not None:
                self._inflight[serve_key] = job
            if job.deadline is not None:
                self._cut_eval_units([job], deadline=job.deadline)
            else:
                self._eval_queue.append(job)
                self._dispatch_pass()
            return self._submit_envelope(
                job, deduplicated=False, store_hit=False
            )

    def submit_sweep(
        self, spec_dict: Dict[str, Any],
        deadline_s: Optional[float] = None,
        trace: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        """Submit a whole sweep or conformance campaign; cells dedup
        against the store.

        ``spec_dict`` is a :class:`repro.explore.spec.SweepSpec` dict,
        or a :class:`repro.conformance.campaign.CampaignSpec` dict (it
        names a ``campaign`` size).  The planning is exactly the
        engine's (:func:`repro.explore.engine.plan_cells`): same cells,
        same store keys, same re-homing of stored records onto this
        spec's positions — a sweep run through the server and one run
        locally against the same store produce the same records and
        share each other's checkpoints.
        """
        from ..explore.engine import plan_cells

        spec = _sweep_spec(spec_dict)
        cells = spec.cells()
        with self._lock:
            if not self._accepting:
                raise ReproError("service is draining; not accepting work")
            slots, store_hits, units = plan_cells(
                cells, self.store,
                max(1, self.workers, self._supervisor.fleet_size),
            )
            self._check_capacity(len(units))
            job = self._new_job("sweep")
            self._open_job_span(job, trace)
            job.deadline = self._job_deadline(deadline_s)
            job.request = {"spec": spec.to_dict()}
            job.slots = slots
            job.store_hits = store_hits
            self.counters["store_hits"] += store_hits
            job.started = time.monotonic()
            job.status = "running"
            if not units:
                self._finish_batch(job)
            job.pending_units = len(units)
            for unit in units:
                self._enqueue_unit(
                    "cells",
                    [cells[i].to_dict() for i in unit],
                    meta={"job": job, "positions": unit},
                    persist={"mode": "cells"},
                    deadline=job.deadline,
                    parent=job.span,
                )
            return self._submit_envelope(
                job, deduplicated=False, store_hit=not units
            )

    def _open_job_span(
        self, job: Job, trace: Optional[Dict[str, str]]
    ) -> None:
        """Open the job's "serve.job" span (no-op when obs is off).

        ``trace`` is the client-propagated context from the request
        body; a missing one roots a fresh trace at the job."""
        if self._obs is None:
            return
        job.span = _obs_trace.start_span(
            "serve.job", parent=trace, job=job.id, kind=job.kind
        )
        self._obs.link_job(job.id, job.span)

    def _new_job(self, kind: str, key: Optional[str] = None) -> Job:
        job = Job(id=f"r{uuid.uuid4().hex[:12]}", kind=kind, key=key)
        self._jobs[job.id] = job
        while len(self._jobs) > _JOB_HISTORY_LIMIT:
            oldest_id, oldest = next(iter(self._jobs.items()))
            if not oldest.done.is_set():
                break  # never evict live work
            self._jobs.pop(oldest_id)
        return job

    @staticmethod
    def _submit_envelope(
        job: Job, deduplicated: bool, store_hit: bool
    ) -> Dict[str, Any]:
        return {
            "id": job.id,
            "status": job.status,
            "deduplicated": deduplicated,
            "store_hit": store_hit,
        }

    # -- dispatch ------------------------------------------------------------

    def _enqueue_unit(
        self,
        kind: str,
        payload: Any,
        meta: Dict[str, Any],
        persist: Optional[Dict[str, Any]] = None,
        deadline: Optional[float] = None,
        parent: Any = None,
    ) -> None:
        """Register, journal and hand a unit to the supervisor
        (lock held).  ``parent`` (a span or a context dict) roots the
        unit's "serve.unit" span; its context rides in the journal so a
        crash-recovered unit keeps its trace."""
        unit_id = f"u{self._unit_nonce}-{next(self._unit_counter)}"
        meta = dict(meta)
        meta["kind"] = kind
        meta["persist"] = persist or {}
        meta["queued_at"] = time.monotonic()
        trace_ctx = None
        if self._obs is not None:
            unit_span = _obs_trace.start_span(
                "serve.unit", parent=parent, unit=unit_id, kind=kind
            )
            meta["span"] = unit_span
            trace_ctx = _obs_trace.context_of(unit_span)
        self._units[unit_id] = meta
        if self.journal is not None:
            self.journal.record_unit(
                unit_id, kind, payload, persist, trace=trace_ctx
            )
        self._supervisor.submit(
            unit_id, kind, payload, deadline=deadline, trace=trace_ctx
        )

    def _dispatch_pass(self) -> None:
        """Cut the queue into units if a worker is free (lock held)."""
        if self._eval_queue and self._supervisor.has_capacity():
            batch = list(self._eval_queue)
            self._eval_queue.clear()
            self._cut_eval_units(batch)

    def _on_fleet_idle(self) -> None:
        """Supervisor callback (its scheduler thread, outside its lock):
        a worker is free for new work."""
        with self._lock:
            if self._eval_queue:
                self._dispatch_pass()

    def _cut_eval_units(
        self, batch: List[Job], deadline: Optional[float] = None
    ) -> None:
        """Group eval jobs into dispatch units (lock held)."""
        import json as _json

        groups: "OrderedDict[str, List[Job]]" = OrderedDict()
        for job in batch:
            request = job.request
            group_key = _json.dumps(
                [
                    request["system_hash"],
                    request["backend"],
                    sorted(request["options"].items()),
                ],
                default=str,
            )
            groups.setdefault(group_key, []).append(job)
        width = max(1, self.workers, self._supervisor.fleet_size)
        for jobs in groups.values():
            request = jobs[0].request
            for unit in partition_chunks(jobs, width):
                for job in unit:
                    job.status = "running"
                    job.started = time.monotonic()
                    self._timings["queue_wait_s"] += (
                        job.started - job.created
                    )
                self._enqueue_unit(
                    "eval",
                    {
                        "system": request["system"],
                        "system_hash": request["system_hash"],
                        "backend": request["backend"],
                        "options": request["options"],
                        "items": [
                            (job.id, job.request["config"]) for job in unit
                        ],
                    },
                    meta={"jobs": {job.id: job for job in unit}},
                    persist={
                        "mode": "eval",
                        "keys": {job.id: job.key for job in unit},
                    },
                    deadline=deadline,
                    parent=unit[0].span,
                )

    # -- completion ----------------------------------------------------------

    def _complete_unit(self, unit_id: str, status: str, result: Any) -> None:
        """Supervisor delivery callback — exactly once per unit.

        The one completion path of live and recovered units: persist
        the results, then journal the unit ``done``, then resolve its
        jobs.  Results stored before ``done`` means a kill between the
        two re-dispatches the unit on restart instead of losing them.
        """
        with self._lock:
            meta = self._units.pop(unit_id, None)
            if meta is None:
                return
            self._timings["units"] += 1
            self._timings["unit_compute_s"] += (
                time.monotonic() - meta["queued_at"]
            )
            _obs_trace.end_span(meta.get("span"), status)
            persisted = self._persist(meta["persist"], status, result)
            if self.journal is not None:
                self.journal.record_done(unit_id)
            self._resolve_jobs(meta, status, result, persisted)
            if not self._units and not self._eval_queue:
                self._settled.notify_all()
                # Compact once nothing is pending — never after a drain
                # abandoned units, which must stay journaled for a
                # restart.
                if self.journal is not None and not self.abandoned:
                    self.journal.reset()
        if self._obs is not None:
            self._obs.flush_local()

    def _persist(
        self, persist: Dict[str, Any], status: str, result: Any
    ) -> int:
        """Store a delivered unit's results by its journaled ``persist``
        spec (lock held); returns how many of its keys the store holds.

        ``mode: eval`` puts each ok item under ``keys[job_id]`` (a job
        without a serve key persists nothing); ``mode: cells`` puts each
        record under its own key.  A failed unit, or one journaled
        without a spec, persists nothing.  A failed put is counted by
        the store (``store_errors``); the result is still reported.
        """
        if status != "ok":
            return 0
        mode = persist.get("mode")
        if mode == "eval":
            keys = persist.get("keys") or {}
            writes = [
                (keys.get(job_id), RESULT_KIND, payload)
                for job_id, item_status, payload in result
                if item_status == "ok"
            ]
        elif mode == "cells":
            from ..explore.engine import CELL_KIND

            writes = [(record["key"], CELL_KIND, record) for record in result]
        else:
            return 0
        persisted = 0
        for key, kind, payload in writes:
            if key:
                self.store.put(key, payload, kind=kind)
                persisted += self.store.contains(key, kind)
        return persisted

    def _resolve_jobs(
        self, meta: Dict[str, Any], status: str, result: Any,
        persisted: int = 0,
    ) -> None:
        """Resolve the jobs a unit carries (lock held).

        ``status``/``result`` are the unit's delivered outcome, or the
        error a timed-out drain gives it.  An eval unit resolves one job
        per item.  A batch unit fills its slots of a sweep job (which
        fails with its first failed unit) or its one slot of the
        recovery job (which counts what it persisted); the job ends
        with its last unit.
        """
        if "jobs" in meta:
            jobs: Dict[str, Job] = meta["jobs"]
            if status != "ok":
                result = [(job_id, status, result) for job_id in jobs]
            for job_id, item_status, payload in result:
                job = jobs.get(job_id)
                if job is None:
                    continue
                if job.key is not None:
                    self._inflight.pop(job.key, None)
                if item_status == "ok":
                    self.counters["computed"] += 1
                    job.result = payload
                    self._end_job(job, "done")
                else:
                    self.counters["errors"] += 1
                    self._end_job(job, "error", payload)
            return
        job = meta["job"]
        job.pending_units -= 1
        if status != "ok":
            self.counters["errors"] += 1
        if "recovery" in meta:
            job.slots[meta["positions"][0]] = {
                "mode": meta["persist"].get("mode"),
                "status": status,
                "persisted": persisted,
            }
            computed = persisted
        elif status == "ok":
            for position, record in zip(meta["positions"], result):
                job.slots[position] = record
            computed = len(result)
        else:
            self._end_job(job, "error", result)
            return
        job.computed += computed
        self.counters["computed"] += computed
        if job.pending_units <= 0 and job.status == "running":
            self._finish_batch(job)

    def _finish_batch(self, job: Job) -> None:
        """End a sweep or recovery job whose units are all in (lock
        held)."""
        job.result = {
            "records": list(job.slots),
            "store_hits": job.store_hits,
            "computed": job.computed,
            "wall_s": time.monotonic() - job.started,
        }
        self._end_job(job, "done")

    def _end_job(
        self, job: Job, status: str, error: Optional[Any] = None
    ) -> None:
        """Resolve a job as ``done`` or ``error`` (lock held)."""
        job.status = status
        if error is not None:
            job.error = str(error)
        job.finished = time.monotonic()
        if job.span is not None:
            _obs_trace.end_span(job.span, status)
            job.span = None
        self._mark_done(job)

    def _mark_done(self, job: Job) -> None:
        """Resolve a job's waiters (lock held)."""
        job.done.set()
        self._finished.notify_all()

    # -- journal recovery ----------------------------------------------------

    def _recover_journal(self) -> None:
        """Re-dispatch units a killed predecessor left in flight.

        Pending journal entries are re-homed onto fresh unit ids under
        a ``recovery`` job; each completed unit's results are persisted
        to the store by the keys recorded at original enqueue time —
        the attached clients are gone (their connections died with the
        old process), but the *work* is not: a client that resubmits
        hits the store.  A unit of a kind this version no longer runs
        (a ``seeds`` unit journaled before campaigns became sweeps)
        resolves at once as a counted error.
        """
        if self.journal is None:
            return
        entries = self.journal.pending()
        if not entries:
            return
        with self._lock:
            job = self._new_job("recovery")
            job.request = {"journal_units": len(entries)}
            job.slots = [None] * len(entries)
            job.started = time.monotonic()
            job.status = "running"
            job.pending_units = len(entries)
            # Re-home onto fresh ids first (reset drops the old ones),
            # so a crash *during* recovery still re-dispatches.
            self.journal.reset()
            for i, entry in enumerate(entries):
                kind = entry.get("kind", "eval")
                meta = {"job": job, "positions": [i], "recovery": True}
                if kind not in UNIT_KINDS:
                    self._resolve_jobs(
                        dict(meta, persist={"mode": kind}), "error",
                        f"unit kind {kind!r} is no longer run",
                    )
                    continue
                self._enqueue_unit(
                    kind,
                    entry.get("payload"),
                    meta=meta,
                    persist=entry.get("persist") or {},
                    # A recovered unit resumes the trace it was
                    # enqueued under before the crash.
                    parent=entry.get("trace"),
                )
            self.recovered_units = len(entries)

    # -- observation ---------------------------------------------------------

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until a job resolves; raises on unknown ids."""
        job = self.job(job_id)
        if job is None:
            raise KeyError(job_id)
        job.done.wait(timeout=timeout)
        return job

    def as_completed(self, jobs: List[Job]) -> Iterator[Job]:
        """Yield ``jobs`` as they finish, in completion order.

        One wait per wakeup covers the whole set; jobs found finished
        together come out by finish time (ties in the given order).
        """
        pending = list(jobs)
        while pending:
            with self._lock:
                self._finished.wait_for(
                    lambda: any(job.done.is_set() for job in pending)
                )
                ready = sorted(
                    (job for job in pending if job.done.is_set()),
                    key=lambda job: job.finished,
                )
            for job in ready:
                pending.remove(job)
                yield job

    def census(self) -> Dict[str, Any]:
        """The ``GET /status`` (no id) payload: fleet + liveness."""
        with self._lock:
            return {
                "status": "draining" if not self._accepting else "ok",
                "accepting": self._accepting,
                "uptime_s": time.monotonic() - self._started_at,
                "queue_depth": len(self._eval_queue) + len(self._units),
                "max_pending": self.max_pending,
                "fleet": self._supervisor.fleet(),
                "supervisor": dict(self._supervisor.counters),
                "abandoned": list(self.abandoned),
                "recovered_units": self.recovered_units,
            }

    def metrics_text(self) -> str:
        """``GET /metrics``: Prometheus exposition text.

        The registry part (merged per-worker counters, histograms) is
        populated only with obs on; the service and supervisor counters
        and queue gauges are always exported, so the endpoint stays
        useful — and scrape-valid — with obs off.
        """
        from ..obs.export import prometheus_text

        with self._lock:
            extra_counters = {
                f"repro_serve_{name}_total": value
                for name, value in self._counters().items()
            }
            extra_counters.update({
                f"repro_supervisor_{name}_total": value
                for name, value in self._supervisor.counters.items()
            })
            extra_gauges = {
                "repro_serve_queue_depth":
                    len(self._eval_queue) + len(self._units),
                "repro_serve_in_flight_units": len(self._units),
                "repro_serve_fleet_size": self._supervisor.fleet_size,
                "repro_serve_uptime_seconds":
                    time.monotonic() - self._started_at,
            }
        snapshot = (
            _obs_metrics.registry().snapshot()
            if self._obs is not None else None
        )
        return prometheus_text(snapshot, extra_counters, extra_gauges)

    def trace_spans(self, job_id: str) -> Optional[Dict[str, Any]]:
        """``GET /trace?id=``: the span set of a job's trace, or None
        when obs is off / the job (or its trace) is unknown."""
        if self._obs is None:
            return None
        self._obs.flush_local()
        trace_id = self._obs.trace_of(job_id)
        if trace_id is None:
            return None
        return {
            "job": job_id,
            "trace": trace_id,
            "spans": self._obs.spans_for(trace_id),
        }

    def _counters(self) -> Dict[str, int]:
        """The service counters, plus ``store_errors``: results whose
        store write failed (the work is still reported; a resubmission
        recomputes it)."""
        return dict(
            self.counters,
            store_errors=self.store.stats.write_errors
            - self._store_errors_base,
        )

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload: queue, dedup, store and throughput."""
        with self._lock:
            elapsed = time.monotonic() - self._started_at
            units = self._timings["units"] or 1.0
            evals = self.counters["computed"]
            queued_evals = len(self._eval_queue)
            live_units = len(self._units)
            # Live view from the index (stats.segments/shards only
            # update on full refresh, which the hot path avoids).
            per_shard = self.store.shard_stats()
            store_stats = {
                "entries": self.store.stats.entries,
                "segments": sum(
                    info["segments"] for info in per_shard.values()
                ),
                "shards": len(per_shard),
                "puts": self.store.stats.puts,
            }
            submitted = self.counters["submitted"] or 1
            return {
                "uptime_s": elapsed,
                "workers": self.workers,
                "queue_depth": queued_evals + live_units,
                "max_pending": self.max_pending,
                "in_flight_units": live_units,
                "counters": self._counters(),
                "supervisor": dict(self._supervisor.counters),
                "fleet": self._supervisor.fleet(),
                "abandoned": list(self.abandoned),
                "recovered_units": self.recovered_units,
                "dedup_ratio": self.counters["dedup_hits"] / submitted,
                "evals_per_s": evals / elapsed if elapsed > 0 else 0.0,
                "timings": {
                    "queue_wait_s_avg": (
                        self._timings["queue_wait_s"]
                        / max(1, self.counters["computed"]
                              + self.counters["errors"])
                    ),
                    "unit_compute_s_avg": (
                        self._timings["unit_compute_s"] / units
                    ),
                },
                "store": store_stats,
                "obs_enabled": self._obs is not None,
            }

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: finish in-flight work, checkpoint, stop.

        Stops accepting new requests, waits for the queue and every
        dispatched unit to resolve (bounded by ``timeout``), then stops
        the fleet and closes the store.  Returns True when everything
        completed.  On timeout the remaining units are *abandoned
        visibly*: their identities land in :attr:`abandoned` (surfaced
        by ``/status``, ``/stats`` and the CLI exit message), their
        attached jobs resolve as errors so no client hangs, and — the
        crash-safety contract — they stay in the journal, so the next
        start re-dispatches them.
        """
        with self._lock:
            self._accepting = False
            clean = self._settled.wait_for(
                lambda: not self._eval_queue and not self._units, timeout
            )
        if not clean:
            self._abandon_remaining()
        self._supervisor.retire_workers()
        fleet_clean = self._supervisor.stop()
        if self._obs is not None:
            self._obs.flush_local()
        if self.journal is not None:
            self.journal.close()
        self.store.close()
        return clean and fleet_clean

    def _abandon_remaining(self) -> None:
        """Drain timed out: journal + surface what was left behind."""
        with self._lock:
            # Undispatched eval jobs become journaled units first —
            # "abandoned invisibly" is exactly the failure mode this
            # path exists to close.
            batch = list(self._eval_queue)
            self._eval_queue.clear()
            if batch:
                self._cut_eval_units(batch)
        dropped = self._supervisor.abandon_pending()
        message = (
            "abandoned at drain timeout (journaled; a restarted server "
            "re-dispatches it)"
        )
        with self._lock:
            for entry in dropped:
                self.abandoned.append({"id": entry["id"], "kind": entry["kind"]})
                meta = self._units.pop(entry["id"], None)
                if meta is not None:
                    self._resolve_jobs(meta, "error", message)

    def close(self) -> None:
        """Hard stop (tests): no drain wait, work abandoned visibly."""
        self.drain(timeout=0.0)
