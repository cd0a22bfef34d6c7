"""The campaign engine: resumable sweeps with Pareto tracking.

:func:`run_sweep` takes a :class:`repro.explore.spec.SweepSpec` (or a
conformance :class:`repro.conformance.campaign.CampaignSpec`, a sweep
of one ``conform`` cell per seed), expands it into cells, and evaluates
them through the shared chunked runner (:mod:`repro.explore.runner`).
With a :class:`repro.store.ResultStore` attached, the sweep is
*resumable*: every completed cell is persisted under its content key,
so a crashed or killed campaign restarts and recomputes nothing — the
report is reassembled from the store, bit-identically in its
deterministic part (cell records, Pareto fronts, counts).

Determinism contract
--------------------
Cell records are pure functions of the cell (workload recipe, method,
options): serial, ``workers=N`` and resumed runs produce identical
``report.to_dict()["cells"]`` / ``["fronts"]``.  Wall-clock lives only
in the ``profile`` section and in each record's ``wall_s`` field (which
a resumed run reports from the store — the time the cell *actually
cost* when it was computed) and, for ``conform`` cells, its per-phase
``profile`` timings.

Worker-side caching
-------------------
Cells of one workload share a generated :class:`repro.system.System`
and one :class:`repro.api.Session` per worker process, and the
OS/OR/SAR family shares one OptimizeSchedule run per (workload,
capacity-budget) — memoization never changes a result, only the time to
it, so the caches are invisible in the records.  A ``conform`` cell is a
one-shot evaluation of a freshly generated System and bypasses them.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..api.session import Session
from ..buses.ttp import Slot, TTPBusConfig
from ..exceptions import ReproError
from ..obs import metrics as _obs_metrics
from ..obs import state as _obs_state
from ..obs import trace as _obs_trace
from ..optim.annealing import sa_resources, sa_schedule
from ..optim.common import evaluate
from ..optim.optimize_resources import optimize_resources
from ..optim.optimize_schedule import optimize_schedule
from ..optim.straightforward import straightforward_configuration
from ..store import ResultStore
from ..synth.workload import generate_workload
from ..system import lru_lookup
from .pareto import pareto_front
from .runner import RunInterrupted, iter_chunked, partition_chunks
from .spec import KNOWN_OPTIONS, Cell, SweepSpec

__all__ = ["ExploreReport", "SweepInterrupted", "run_sweep"]

#: Format tag of serialized sweep reports.
REPORT_FORMAT = "repro-explore-report-v1"
#: Record kind under which cells live in a result store.
CELL_KIND = "sweepcell"

#: Per-worker-process state: workload key -> {system, session, os-runs}.
#: Bounded so a sweep over many workloads cannot hoard memory.
_WORKER_STATE: OrderedDict[str, Dict[str, Any]] = OrderedDict()
_WORKER_STATE_LIMIT = 4


def _option(cell: Cell, name: str) -> Any:
    default, _ = KNOWN_OPTIONS[name]
    return cell.options.get(name, default)


def _state_for(cell: Cell) -> Dict[str, Any]:
    """The worker's cached (system, session, pipeline) for a workload."""
    import json

    def build() -> Dict[str, Any]:
        system = generate_workload(cell.workload_spec())
        return {"system": system, "session": Session(system), "os": {}}

    key = json.dumps(cell.workload, sort_keys=True, separators=(",", ":"))
    return lru_lookup(_WORKER_STATE, key, build, _WORKER_STATE_LIMIT)


def _os_result(state: Dict[str, Any], cell: Cell):
    """One OptimizeSchedule run per (workload, capacity budget)."""
    budget = _option(cell, "max_capacity_candidates")
    cached = state["os"].get(budget)
    if cached is None:
        kwargs = {} if budget is None else {
            "max_capacity_candidates": budget
        }
        cached = optimize_schedule(
            state["system"], session=state["session"], **kwargs
        )
        state["os"][budget] = cached
    return cached


def _metrics_from_evaluation(run, evaluations: int) -> Dict[str, Any]:
    return {
        "schedulable": bool(run.schedulable),
        "degree": float(run.degree),
        "total_buffers": float(run.total_buffers),
        "evaluations": int(evaluations),
        "config_hash": run.metadata.get("config_hash"),
    }


def _canonical_config(state, cell: Cell):
    """The canonical HOPA configuration with the cell's bus knobs."""
    from ..conformance.campaign import conformance_configuration
    from ..synth.workload import apply_seeded_routes

    config = conformance_configuration(
        state["system"], rounds_per_period=_option(cell, "rounds_per_period")
    )
    scale = _option(cell, "slot_scale")
    if scale != 1.0:
        config.bus = TTPBusConfig([
            Slot(s.node, s.capacity, s.duration * scale)
            for s in config.bus.slots
        ])
    apply_seeded_routes(state["system"], cell.workload_spec(), config)
    return config


def _eval_sf(state, cell: Cell) -> Dict[str, Any]:
    config = straightforward_configuration(state["system"])
    run = evaluate(state["system"], config, session=state["session"])
    return _metrics_from_evaluation(run, evaluations=1)


def _eval_os(state, cell: Cell) -> Dict[str, Any]:
    os_result = _os_result(state, cell)
    return _metrics_from_evaluation(
        os_result.best, evaluations=os_result.evaluations
    )


def _eval_or(state, cell: Cell) -> Dict[str, Any]:
    os_result = _os_result(state, cell)
    or_result = optimize_resources(
        state["system"], os_result=os_result, session=state["session"]
    )
    return _metrics_from_evaluation(
        or_result.best, evaluations=or_result.evaluations
    )


def _eval_sas(state, cell: Cell) -> Dict[str, Any]:
    result = sa_schedule(
        state["system"],
        iterations=_option(cell, "sa_iterations"),
        seed=_option(cell, "sa_seed"),
        session=state["session"],
    )
    metrics = _metrics_from_evaluation(
        result.best, evaluations=result.evaluations
    )
    metrics["accepted"] = result.accepted
    return metrics


def _eval_sar(state, cell: Cell) -> Dict[str, Any]:
    os_result = _os_result(state, cell)
    result = sa_resources(
        state["system"],
        iterations=_option(cell, "sa_iterations"),
        seed=_option(cell, "sa_seed"),
        initial=os_result.best.config,
        session=state["session"],
    )
    metrics = _metrics_from_evaluation(
        result.best,
        evaluations=os_result.evaluations + result.evaluations,
    )
    metrics["accepted"] = result.accepted
    return metrics


def _eval_analysis(state, cell: Cell) -> Dict[str, Any]:
    config = _canonical_config(state, cell)
    run = state["session"].evaluate(config, backend="analysis")
    if not run.feasible:
        raise ReproError(run.error or "analysis infeasible")
    return {
        "schedulable": bool(run.schedulable),
        "degree": float(run.degree),
        "total_buffers": float(run.total_buffers),
        "evaluations": 1,
        "converged": bool(run.converged),
        "config_hash": run.metadata.get("config_hash"),
    }


def _eval_simulation(state, cell: Cell) -> Dict[str, Any]:
    config = _canonical_config(state, cell)
    run = state["session"].simulate(
        config,
        periods=_option(cell, "periods"),
        faults=_option(cell, "faults"),
    )
    if not run.feasible:
        raise ReproError(run.error or "simulation infeasible")
    metrics = {
        "schedulable": bool(run.schedulable),
        "degree": float(run.degree),
        "total_buffers": float(run.total_buffers),
        "evaluations": 2,
        "violations": run.metadata["violations"],
        "bound_excess": run.metadata["bound_excess"],
        "config_hash": run.metadata.get("config_hash"),
    }
    if "fault_injection" in run.metadata:
        metrics["fault_injection"] = run.metadata["fault_injection"]
    return metrics


def _eval_conform(state, cell: Cell) -> Dict[str, Any]:
    """One conformance seed end to end: the whole per-seed outcome.

    Runs on a freshly generated System (``state`` is unused): a
    conform cell is a one-shot evaluation that shares nothing with its
    neighbours, so it neither reads nor fills the worker's workload
    cache.  ``generate_s`` covers generation plus the seed's
    configuration (:func:`~repro.conformance.campaign.
    seed_configuration`; on the default path it is ``None`` and
    :func:`evaluate_workload` builds the canonical one itself).
    ``error`` and ``profile`` are lifted out of the metrics by
    :func:`evaluate_cell`.
    """
    from ..conformance.campaign import evaluate_workload, seed_configuration

    spec = cell.workload_spec()
    rounds = _option(cell, "rounds_per_period")
    outcome: Dict[str, Any] = {
        "status": "error", "violations": [], "processes": 0, "messages": 0,
    }
    with _obs_trace.span("conform.seed", seed=spec.seed):
        started = time.perf_counter()
        try:
            system = generate_workload(spec)
            config = seed_configuration(system, spec, rounds)
        except ReproError as exc:
            outcome["error"] = str(exc)
        else:
            generate_s = time.perf_counter() - started
            status, violations, error, profile = evaluate_workload(
                system,
                periods=_option(cell, "periods"),
                rounds_per_period=rounds,
                config=config,
                faults=_option(cell, "faults"),
            )
            profile["generate_s"] = generate_s
            outcome.update(
                status=status,
                violations=[v.to_dict() for v in violations],
                processes=system.app.process_count(),
                messages=system.app.message_count(),
                error=error,
                profile=profile,
            )
    outcome["schedulable"] = outcome["status"] in ("ok", "violation")
    if _obs_state.enabled:
        _obs_metrics.inc(
            "repro_conform_seeds_total", (("status", outcome["status"]),)
        )
    return outcome


_METHODS = {
    "SF": _eval_sf,
    "OS": _eval_os,
    "OR": _eval_or,
    "SAS": _eval_sas,
    "SAR": _eval_sar,
    "analysis": _eval_analysis,
    "simulation": _eval_simulation,
    "conform": _eval_conform,
}


def evaluate_cell(cell: Cell) -> Dict[str, Any]:
    """One cell end to end: generate, evaluate, record.

    Always returns a record — evaluation failures become error records
    (``error`` set, empty metrics); a sweep never dies on one bad cell.
    A method may report its own ``error`` (a conform seed that could
    not be evaluated keeps its process and message counts) and a
    non-deterministic ``profile`` of phase timings; both are lifted
    from its metrics onto the record, and reports strip ``profile``
    the way they strip ``wall_s``.  "Failures" covers
    :class:`ReproError` plus the ``TypeError``/``ValueError`` a
    malformed-but-JSON-valid cell parameter raises inside the workload
    generator (e.g. a scalar where a range pair is expected); genuinely
    unexpected exceptions still propagate so bugs surface instead of
    becoming error rows.
    """
    started = time.perf_counter()
    record: Dict[str, Any] = {
        "format": REPORT_FORMAT,
        "key": cell.key,
        "index": cell.index,
        "method": cell.method,
        "workload": dict(cell.workload),
        "options": dict(cell.options),
        "metrics": {},
        "error": None,
    }
    try:
        with _obs_trace.span("explore.cell", method=cell.method):
            state = None if cell.method == "conform" else _state_for(cell)
            metrics = _METHODS[cell.method](state, cell)
        record["error"] = metrics.pop("error", None)
        if "profile" in metrics:
            record["profile"] = metrics.pop("profile")
        record["metrics"] = metrics
    except (ReproError, TypeError, ValueError) as exc:
        record["error"] = str(exc)
    record["wall_s"] = time.perf_counter() - started
    if _obs_state.enabled:
        _obs_metrics.inc(
            "repro_explore_cells_total",
            (("method", cell.method),
             ("outcome", "error" if record["error"] else "ok")),
        )
        _obs_metrics.observe("repro_explore_cell_seconds", record["wall_s"])
    return record


def _evaluate_chunk(payload: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Worker entry point: one contiguous chunk of cell dicts."""
    return [evaluate_cell(Cell.from_dict(data)) for data in payload]


def plan_cells(
    cells: List[Cell],
    store: Optional[ResultStore],
    width: int,
) -> Tuple[List[Optional[Dict[str, Any]]], int, List[List[int]]]:
    """Store lookup, re-homing and unit grouping of a cell list.

    Returns ``(records, store_hits, units)``: ``records`` holds the
    stored record of every cell the store already has (``None`` for
    the rest), ``units`` the pending positions cut into dispatch units.
    :func:`run_sweep` and the serve service both plan through here, so
    a sweep or campaign run locally and one run through a server share
    each other's checkpoints and dispatch the same units.

    A stored record is re-homed onto *this* cell: the content key pins
    the experiment, but the position (index) and the user-level
    parameter spelling belong to the current sweep — a resumed
    superset or reordered spec must report exactly like a fresh run of
    itself.

    One unit per *workload*: the cells of one workload are adjacent
    (methods expand innermost) and share the worker-side System,
    Session and OS caches, so keeping them together preserves the
    one-OS-run-seeds-OR-and-SAR sharing under ``workers > 1`` exactly
    as in a serial run.  Consecutive ``conform``-only workloads share
    nothing, so they are packed instead into the contiguous
    :func:`~repro.explore.runner.partition_chunks` lanes of ``width``
    workers, amortizing per-unit dispatch over many seeds.
    """
    records: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    store_hits = 0
    if store is not None:
        store.refresh()
        for i, cell in enumerate(cells):
            payload = store.get(cell.key, kind=CELL_KIND, refresh=False)
            if isinstance(payload, dict) and payload.get("key") == cell.key:
                records[i] = {
                    **payload,
                    "index": cell.index,
                    "method": cell.method,
                    "workload": dict(cell.workload),
                    "options": dict(cell.options),
                }
                store_hits += 1
    groups: List[List[int]] = []
    for i, record in enumerate(records):
        if record is not None:
            continue
        if groups and cells[groups[-1][-1]].workload == cells[i].workload:
            groups[-1].append(i)
        else:
            groups.append([i])
    units: List[List[int]] = []
    packed: List[List[int]] = []

    def pack() -> None:
        for lane in partition_chunks(packed, width):
            units.append([i for group in lane for i in group])
        packed.clear()

    for group in groups:
        if all(cells[i].method == "conform" for i in group):
            packed.append(group)
        else:
            pack()
            units.append(group)
    pack()
    return records, store_hits, units


@dataclass
class ExploreReport:
    """Aggregated outcome of one sweep."""

    spec: SweepSpec
    #: One record per cell, in cell order (store-served and computed
    #: records are indistinguishable except for their ``wall_s``).
    records: List[Dict[str, Any]]
    #: Cells served from the persistent store (the resume counter the
    #: zero-recomputation acceptance check asserts on).
    store_hits: int = 0
    #: Cells actually evaluated in this run.
    computed: int = 0
    #: Wall-clock of the whole sweep, dispatch and store I/O included.
    wall_s: float = 0.0
    store_stats: Optional[Dict[str, Any]] = None
    #: Checkpoint writes that failed (the records are still reported;
    #: a resume recomputes them).
    store_errors: int = 0
    _fronts: Optional[List[Dict[str, Any]]] = field(
        default=None, repr=False
    )

    @property
    def errored(self) -> List[Dict[str, Any]]:
        """Cells that could not be evaluated."""
        return [r for r in self.records if r.get("error")]

    @property
    def counts(self) -> Dict[str, int]:
        return {
            "cells": len(self.records),
            "errors": len(self.errored),
            "schedulable": sum(
                1 for r in self.records
                if r["metrics"].get("schedulable") is True
            ),
        }

    def _axis_value(self, record: Dict[str, Any], axis: str):
        if axis == "wall_s":
            return record.get("wall_s")
        if axis == "method":
            return record.get("method")
        metrics = record.get("metrics", {})
        if axis in metrics:
            return metrics[axis]
        if axis in record.get("workload", {}):
            return record["workload"][axis]
        return record.get("options", {}).get(axis)

    @property
    def fronts(self) -> List[Dict[str, Any]]:
        """Per-group Pareto fronts over the spec's axes (minimized).

        Cells are grouped by the ``group_by`` axis values (one global
        group when unset); error cells and cells missing any front axis
        (e.g. ``conform`` cells, which have no ``degree``) are excluded
        from the competition.
        """
        if self._fronts is not None:
            return self._fronts
        groups: OrderedDict[Tuple, Dict[str, Any]] = OrderedDict()
        for record in self.records:
            if record.get("error"):
                continue
            point = [
                self._axis_value(record, axis)
                for axis in self.spec.pareto_axes
            ]
            if any(not isinstance(v, (int, float)) for v in point):
                continue
            label = tuple(
                (axis, self._axis_value(record, axis))
                for axis in self.spec.group_by
            )
            group = groups.setdefault(
                label, {"group": dict(label), "records": [], "points": []}
            )
            group["records"].append(record)
            group["points"].append([float(v) for v in point])
        fronts = []
        for group in groups.values():
            front = pareto_front(group["points"])
            fronts.append({
                "group": group["group"],
                "axes": list(self.spec.pareto_axes),
                "cells": [
                    {
                        "key": group["records"][i]["key"],
                        "index": group["records"][i]["index"],
                        "method": group["records"][i]["method"],
                        "point": group["points"][i],
                    }
                    for i in front
                ],
            })
        self._fronts = fronts
        return fronts

    def to_dict(self) -> Dict[str, Any]:
        """JSON form: deterministic sections + a ``profile`` section.

        ``cells``, ``fronts`` and ``counts`` are pure functions of the
        spec (records are stripped of ``wall_s`` and of a method's
        ``profile`` timings); ``profile`` carries
        timings and store statistics and differs run to run — the
        cold/warm determinism CI check compares everything *except*
        ``profile``.
        """
        cells = []
        for record in self.records:
            cell = dict(record)
            cell.pop("wall_s", None)
            cell.pop("profile", None)
            cells.append(cell)
        return {
            "format": REPORT_FORMAT,
            "name": self.spec.name,
            "spec": self.spec.to_dict(),
            "counts": self.counts,
            "cells": cells,
            "fronts": self.fronts,
            "profile": self.profile,
        }

    @property
    def profile(self) -> Dict[str, Any]:
        """Timings and store counters (not part of the deterministic
        report)."""
        out: Dict[str, Any] = {
            "wall_s": self.wall_s,
            "cell_wall_s": sum(r.get("wall_s", 0.0) for r in self.records),
            "store_hits": self.store_hits,
            "computed": self.computed,
            "store_errors": self.store_errors,
        }
        if self.store_stats is not None:
            out["store"] = dict(self.store_stats)
        return out


class SweepInterrupted(ReproError):
    """A sweep was stopped by a trapped signal after checkpointing its
    completed cells — rerunning the same spec against the same store
    resumes where it left off (``resume=True``, the default)."""

    def __init__(
        self, completed: int, total: int, store_hits: int,
        records: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        super().__init__(
            f"sweep interrupted: {store_hits + completed}/{total} cells "
            "done and checkpointed"
        )
        #: Cells evaluated (and checkpointed) by this run.
        self.completed = completed
        #: Cells of the spec, total.
        self.total = total
        #: Cells that were already in the store when the run started.
        self.store_hits = store_hits
        #: The records done so far (store hits included), in cell order.
        self.records = records or []


def run_sweep(
    spec: Union[SweepSpec, Any],
    store: Union[None, str, Path, ResultStore] = None,
    workers: int = 1,
    resume: bool = True,
    stop: Optional[threading.Event] = None,
) -> ExploreReport:
    """Run (or resume) one sweep; see the module docstring.

    ``spec`` is anything whose ``cells()`` expands the work: a
    :class:`SweepSpec`, or a conformance
    :class:`~repro.conformance.campaign.CampaignSpec` (one ``conform``
    cell per seed).  With ``store`` set, completed cells are looked up
    first (``resume=True``) and every computed cell is appended, so a
    re-issued or crashed-and-restarted campaign pays only for the cells
    the store does not yet hold.  ``workers > 1`` runs cell chunks on
    the shared runner's forked workers; store I/O stays in the parent,
    so workers need no store access (and a read-only network
    filesystem can still back a many-machine sweep through its one
    writer).

    ``stop`` (typically the event of
    :func:`repro.explore.runner.trap_signals`) makes the sweep
    interruptible: when it fires, the unit in flight finishes and is
    checkpointed, the rest is abandoned, and :class:`SweepInterrupted`
    reports how much of the campaign is durable.
    """
    started = time.perf_counter()
    if isinstance(store, (str, Path)):
        store = ResultStore(store)
    cells = spec.cells()
    records, store_hits, units = plan_cells(
        cells, store if resume else None, workers
    )
    payloads = [[cells[i].to_dict() for i in unit] for unit in units]
    computed = 0
    # The store may be shared, so the run reports its own failures.
    errors_before = store.stats.write_errors if store is not None else 0
    stream = iter_chunked(payloads, _evaluate_chunk, workers, stop=stop)
    try:
        # Units stream back in order and are checkpointed as they
        # complete, so a killed campaign loses at most the unit in
        # flight.
        for chunk_records, unit in zip(stream, units):
            for i, record in zip(unit, chunk_records):
                records[i] = record
                computed += 1
                if store is not None:
                    # A lost checkpoint only costs a recompute on
                    # resume; the store counts it.
                    store.put(record["key"], record, kind=CELL_KIND)
    except RunInterrupted as exc:
        raise SweepInterrupted(
            completed=computed, total=len(cells), store_hits=store_hits,
            records=[record for record in records if record is not None],
        ) from exc
    assert all(record is not None for record in records)
    return ExploreReport(
        spec=spec,
        records=records,  # type: ignore[arg-type]
        store_hits=store_hits,
        computed=computed,
        wall_s=time.perf_counter() - started,
        store_stats=(
            None if store is None else {
                "entries": store.stats.entries,
                "segments": store.stats.segments,
                "puts": store.stats.puts,
                "corrupt_records": store.stats.corrupt_records,
            }
        ),
        store_errors=(
            0 if store is None else store.stats.write_errors - errors_before
        ),
    )
