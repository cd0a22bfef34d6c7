"""Violation classification: one simulation run vs. its analytic bounds.

:func:`classify_run` inspects a ``"simulation"`` backend
:class:`repro.api.result.RunResult` — which carries both the analytic
verdict (timing table, graph bounds, buffer bounds) and the simulated
observations (in ``metadata``) — and emits one
:class:`ConformanceViolation` per dominance breach:

* ``missing-message`` — a TT process was dispatched before an input
  message arrived (the simulator's :class:`ScheduleViolation`, full
  causal context preserved in ``detail``);
* ``deadline`` — an observed graph end-to-end response exceeded its
  analytic bound;
* ``response-bound`` — an observed process response exceeded its bound;
* ``jitter-bound`` — an observed message delivery latency exceeded the
  analytic worst-case arrival;
* ``queue-bound`` — an observed queue peak exceeded its buffer bound.

Everything is computed from the serialized surface of the result (no
live analysis payload needed), so classification works identically on
fresh runs, memoized runs and fixture replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..api.result import worst_ends

__all__ = [
    "ConformanceViolation",
    "classify_run",
    "determinism_violations",
    "TOLERANCE",
]

#: Slack applied to every observed-vs-bound comparison; mirrors the
#: tolerance of the property-based dominance test.
TOLERANCE = 1e-6

#: Classification kinds, in reporting order.  ``nondeterminism`` is the
#: one kind not produced by :func:`classify_run`: it is emitted by the
#: fault-aware campaign when two replays of one seeded *unmodeled*
#: fault spec disagree — under unmodeled faults the dominance checks
#: are scoped out of the contract, but determinism and replayability
#: never are.
KINDS = (
    "missing-message",
    "deadline",
    "response-bound",
    "jitter-bound",
    "queue-bound",
    "nondeterminism",
)


@dataclass(frozen=True)
class ConformanceViolation:
    """One classified breach of the dominance contract."""

    kind: str
    activity: str
    observed: float
    bound: float
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def excess(self) -> float:
        """How far past the bound the observation landed."""
        return self.observed - self.bound

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (campaign reports, fixtures).

        Non-finite bounds (a message that never arrived) map to ``None``
        so ``json.dumps`` never emits the non-RFC ``Infinity`` token —
        the same convention as ``repro.api.result.timing_table``.
        """
        return {
            "kind": self.kind,
            "activity": self.activity,
            "observed": self.observed,
            "bound": self.bound if math.isfinite(self.bound) else None,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ConformanceViolation":
        """Rebuild from :meth:`to_dict` output."""
        bound = data["bound"]
        return cls(
            kind=data["kind"],
            activity=data["activity"],
            observed=data["observed"],
            bound=float("inf") if bound is None else bound,
            detail=dict(data.get("detail", {})),
        )


def _worst_ends(run) -> Dict[str, Optional[float]]:
    """``worst_end`` per ``run.timing`` key, read from ``analysis.rho``
    when the run carries it (so no timing table is built), else from the
    rows: the same numbers either way."""
    analysis = getattr(run, "analysis", None)
    if analysis is None:
        return {key: row["worst_end"] for key, row in run.timing.items()}
    return worst_ends(analysis.rho)


def _delivery_bound(ends: Dict[str, Optional[float]], name: str):
    """Analytic worst-case delivery latency of message ``name``.

    A message with several timing rows (ET->TT has a source ``can`` and
    a ``ttp`` row; a multi-hop transit message additionally ends on a
    delivering ``can`` leg) is bounded by its *last* leg.  ``worst_end``
    accumulates along the route, so the delivering leg is simply the
    row with the largest ``worst_end`` — no per-shape precedence list.
    """
    found = [
        ends[f"{kind}:{name}"]
        for kind in ("ttp", "can", "tt")
        if f"{kind}:{name}" in ends
    ]
    return max(found) if found else None


def classify_run(run) -> List[ConformanceViolation]:
    """Classify every dominance violation of one simulation run.

    ``run`` must come from the ``"simulation"`` backend (its ``metadata``
    carries the observations).  Returns an empty list when the analysis
    dominates the simulation — the conformance contract.
    """
    violations: List[ConformanceViolation] = []
    meta = run.metadata

    for detail in meta.get("violation_details", ()):
        arrival = detail.get("message_arrival")
        violations.append(
            ConformanceViolation(
                kind="missing-message",
                activity=detail["process"],
                observed=detail["dispatch_time"],
                bound=arrival if arrival is not None else float("inf"),
                detail=dict(detail),
            )
        )

    for graph, observed in meta.get("observed_graph_response", {}).items():
        bound = run.graph_responses.get(graph)
        if bound is not None and observed > bound + TOLERANCE:
            violations.append(
                ConformanceViolation(
                    kind="deadline",
                    activity=graph,
                    observed=observed,
                    bound=bound,
                )
            )

    ends = _worst_ends(run)
    for name, observed in meta.get("observed_process_response", {}).items():
        bound = ends.get(f"process:{name}")
        if bound is not None and observed > bound + TOLERANCE:
            violations.append(
                ConformanceViolation(
                    kind="response-bound",
                    activity=name,
                    observed=observed,
                    bound=bound,
                )
            )

    for name, observed in meta.get("observed_message_latency", {}).items():
        bound = _delivery_bound(ends, name)
        if bound is not None and observed > bound + TOLERANCE:
            violations.append(
                ConformanceViolation(
                    kind="jitter-bound",
                    activity=name,
                    observed=observed,
                    bound=bound,
                )
            )

    if run.buffers is not None:
        peaks = meta.get("observed_queue_peak", {})
        # Gateway queue bounds are *sums* over the per-gateway queues on
        # multi-gateway topologies (BufferReport aggregates); compare
        # against the matching sum of observed peaks — per-queue
        # dominance implies the aggregate, so a sum violation is always
        # a real one.  Single-gateway peaks use the bare queue name and
        # aggregate to themselves.
        def _gateway_peak(queue: str) -> float:
            return sum(
                peak for name, peak in peaks.items()
                if name == queue or name.startswith(queue + "@")
            )

        bounds = {"Out_CAN": run.buffers.out_can, "Out_TTP": run.buffers.out_ttp}
        bounds.update(
            (f"Out_{node}", bound)
            for node, bound in run.buffers.out_node.items()
        )
        for queue, bound in bounds.items():
            if queue in ("Out_CAN", "Out_TTP"):
                observed = _gateway_peak(queue)
            else:
                observed = peaks.get(queue, 0.0)
            if observed > bound + TOLERANCE:
                violations.append(
                    ConformanceViolation(
                        kind="queue-bound",
                        activity=queue,
                        observed=observed,
                        bound=bound,
                    )
                )

    violations.sort(key=lambda v: (KINDS.index(v.kind), v.activity))
    return violations


#: Metadata fields two replays of one seeded run must agree on bit for
#: bit — the observable surface of the determinism contract.
_DETERMINISM_FIELDS = (
    "observed_graph_response",
    "observed_process_response",
    "observed_message_latency",
    "observed_queue_peak",
    "violation_details",
    "completed_instances",
    "fault_injection",
)

def determinism_violations(first, second) -> List[ConformanceViolation]:
    """Compare two independent replays of one seeded run bit for bit.

    The fault-aware campaign's check for *unmodeled* fault specs
    (execution jitter, babbling idiot): the dominance bounds are scoped
    out of the contract there, but two runs of the same seed must still
    observe identical responses, latencies, queue peaks and injection
    counters — determinism is what makes a fault counterexample
    replayable at all.  Returns one ``nondeterminism`` violation per
    mismatched field (empty when the replays agree).
    """
    violations: List[ConformanceViolation] = []
    for name in _DETERMINISM_FIELDS:
        a = first.metadata.get(name)
        b = second.metadata.get(name)
        if a != b:
            violations.append(
                ConformanceViolation(
                    kind="nondeterminism",
                    activity=name,
                    observed=0.0,
                    bound=0.0,
                    detail={"first": a, "second": b},
                )
            )
    return violations
