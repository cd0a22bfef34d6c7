"""The unified :class:`RunResult` record shared by all evaluation backends.

Every backend — analytic schedulability, discrete-event simulation, and
any future engine registered through :mod:`repro.api.backends` — reduces
one ``(System, SystemConfiguration)`` evaluation to the same record:

* the schedulability verdict and degree of schedulability ``δΓ``;
* the buffer report (``s_total`` and its per-queue breakdown);
* the per-activity timing table (offset/jitter/queueing/duration rows);
* backend identity plus backend-specific metadata (e.g. observed
  simulation responses, WCET scaling margins).

The record is JSON round-trippable (:meth:`RunResult.to_dict` /
:meth:`RunResult.from_dict`) so batch evaluations can be persisted,
shipped between processes, and diffed.  The rich in-memory objects
(``analysis``, i.e. the full :class:`MultiClusterResult`) deliberately do
not survive the round trip — the dictionary form carries only the stable,
serializable facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..analysis.buffers import BufferReport
from ..analysis.degree import SchedulabilityReport
from ..analysis.multicluster import MultiClusterResult
from ..analysis.timing import ResponseTimes
from ..model.configuration import SystemConfiguration

__all__ = ["RunResult", "INFEASIBLE_COST", "timing_table", "worst_ends"]

#: Cost assigned to configurations that cannot be evaluated at all.
INFEASIBLE_COST = 1e15

#: Version tag of the serialized form.
RUNRESULT_FORMAT = "repro-runresult-v1"


def _num(value: float) -> Optional[float]:
    """``value``, or ``None`` when it is infinite or NaN (valid JSON)."""
    return value if value == value and abs(value) != math.inf else None


def _activities(rho: ResponseTimes) -> List[tuple]:
    """``(key, kind, name, record, worst_end)`` per analysed activity, in
    table order; ``record`` is ``None`` for a TT arrival."""
    return [
        (f"{kind}:{name}", kind, name, t, t.worst_end)
        for kind, records in (
            ("process", rho.processes),
            ("can", rho.can),
            ("ttp", rho.ttp),
        )
        for name, t in records.items()
    ] + [
        (f"tt:{name}", "tt", name, None, arrival)
        for name, arrival in rho.tt_arrival.items()
    ]


def timing_table(rho: ResponseTimes) -> Dict[str, Dict[str, Any]]:
    """Flatten a :class:`ResponseTimes` into JSON-ready timing rows.

    One row per analysed activity, keyed ``"<kind>:<name>"`` so that a
    message's CAN and TTP legs stay distinct.  Infinite values (diverged
    fixed points) are mapped to ``None`` to stay valid JSON.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    for key, kind, name, t, end in _activities(rho):
        if t is None:
            rows[key] = {
                "kind": kind,
                "name": name,
                "offset": None,
                "jitter": None,
                "queuing": None,
                "duration": None,
                "response": None,
                "worst_end": _num(end),
                "converged": True,
            }
            continue
        rows[key] = {
            "kind": kind,
            "name": name,
            "offset": _num(t.offset),
            "jitter": _num(t.jitter),
            "queuing": _num(t.queuing),
            "duration": _num(t.duration),
            "response": _num(t.response),
            "worst_end": _num(end),
            "converged": t.converged,
        }
    return rows


def worst_ends(rho: ResponseTimes) -> Dict[str, Optional[float]]:
    """The ``worst_end`` column of :func:`timing_table`, same keys and
    values, without building the rows."""
    return {key: _num(end) for key, _kind, _name, _t, end in _activities(rho)}


class _TimingTable:
    """``RunResult.timing``, kept in the ``_timing`` slot: built from
    ``analysis.rho`` on first read unless assigned, so a table nobody
    reads is neither built, copied nor pickled."""

    def __get__(self, run, owner=None):
        if run is None:
            return None  # the dataclass default: build on first read
        if run.__dict__.get("_timing") is None:
            run._timing = (
                timing_table(run.analysis.rho)
                if run.analysis is not None else {}
            )
        return run._timing

    def __set__(self, run, table) -> None:
        # The dataclass passes this descriptor itself as the field's
        # default (``field(default=...)``): no table given.
        run._timing = None if table is self else table


@dataclass
class RunResult:
    """Outcome of evaluating one configuration with one backend.

    ``degree`` follows the paper's convention (smaller = better, <= 0
    means schedulable); ``total_buffers`` is ``s_total`` in bytes.  Both
    collapse to :data:`INFEASIBLE_COST` when the configuration could not
    be evaluated at all (``error`` then carries the reason).

    ``timing`` is the flattened per-activity table of
    :func:`timing_table`, built from ``analysis.rho`` on first read
    unless given; ``metadata`` is the backend's own channel
    (simulation observations, margins, worker provenance, ...).
    """

    backend: str
    schedulable: bool = False
    degree: float = INFEASIBLE_COST
    total_buffers: float = INFEASIBLE_COST
    converged: bool = False
    iterations: int = 0
    graph_responses: Dict[str, float] = field(default_factory=dict)
    #: Not part of ``==`` either: comparing two results (the optimizers'
    #: ``not in`` seed picks) must build no table.
    timing: Dict[str, Dict[str, Any]] = field(
        default=_TimingTable(), compare=False
    )
    buffers: Optional[BufferReport] = None
    report: Optional[SchedulabilityReport] = None
    config: Optional[SystemConfiguration] = None
    error: Optional[str] = None
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: Rich analysis payload; never serialized, absent after a round trip
    #: or when the backend did not run the multi-cluster loop, and not
    #: part of ``==`` (a result equals its pickle and its copy).
    analysis: Optional[MultiClusterResult] = field(default=None, compare=False)

    @property
    def feasible(self) -> bool:
        """True when the configuration could be evaluated at all."""
        return self.error is None

    # -- JSON round trip ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-compatible dictionary."""
        from ..io.serialize import config_to_dict

        out: Dict[str, Any] = {
            "format": RUNRESULT_FORMAT,
            "backend": self.backend,
            "schedulable": self.schedulable,
            "degree": self.degree,
            "total_buffers": self.total_buffers,
            "converged": self.converged,
            "iterations": self.iterations,
            "graph_responses": dict(self.graph_responses),
            "timing": {k: dict(v) for k, v in self.timing.items()},
            "error": self.error,
            "metadata": dict(self.metadata),
        }
        if self.buffers is not None:
            out["buffers"] = {
                "out_can": self.buffers.out_can,
                "out_ttp": self.buffers.out_ttp,
                "out_node": dict(self.buffers.out_node),
            }
        else:
            out["buffers"] = None
        out["config"] = (
            config_to_dict(self.config) if self.config is not None else None
        )
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Rebuild a :class:`RunResult` from :meth:`to_dict` output."""
        from ..io.serialize import config_from_dict

        buffers = None
        if data.get("buffers") is not None:
            b = data["buffers"]
            buffers = BufferReport(
                out_can=b["out_can"],
                out_ttp=b["out_ttp"],
                out_node=dict(b["out_node"]),
            )
        config = None
        if data.get("config") is not None:
            config = config_from_dict(data["config"])
        graph_responses = dict(data.get("graph_responses", {}))
        report = None
        if data.get("error") is None:
            report = SchedulabilityReport(
                degree=data["degree"],
                schedulable=data["schedulable"],
                graph_responses=graph_responses,
            )
        return cls(
            backend=data["backend"],
            schedulable=data["schedulable"],
            degree=data["degree"],
            total_buffers=data["total_buffers"],
            converged=data["converged"],
            iterations=data["iterations"],
            graph_responses=graph_responses,
            timing={k: dict(v) for k, v in data.get("timing", {}).items()},
            buffers=buffers,
            report=report,
            config=config,
            error=data.get("error"),
            metadata=dict(data.get("metadata", {})),
        )
