"""Degree of schedulability ``δΓ`` (section 5.1) and graph response times.

The worst-case response time of a process graph is computed from its sink
nodes (footnote 1): ``r_G = max over sinks (O_sink + r_sink)``.  The degree
of schedulability is the two-level cost function

    f1 = sum over graphs of max(0, R_G - D_G)      (if any positive)
    f2 = sum over graphs of (R_G - D_G)            (if f1 == 0)

Smaller is better: a positive value is total tardiness (unschedulable), a
negative value is accumulated laxity (schedulable, with slack to trade
during buffer minimization).  Local process deadlines, when present, are
folded into the same scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..system import System
from .timing import ResponseTimes

__all__ = ["SchedulabilityReport", "graph_response_time", "degree_of_schedulability"]

#: Finite stand-in for an infinite response time so that optimizers can
#: still rank configurations that drive part of the system into overload.
OVERLOAD_PENALTY = 1e12


@dataclass(frozen=True)
class SchedulabilityReport:
    """Outcome of a schedulability evaluation.

    ``degree`` follows the paper's convention (smaller = better;
    <= 0 means schedulable).  ``graph_responses`` maps each graph to its
    worst-case end-to-end response time ``R_G``.
    """

    degree: float
    schedulable: bool
    graph_responses: Dict[str, float]


def graph_response_time(
    system: System, rho: ResponseTimes, graph_name: str
) -> float:
    """``R_G = max over sink processes of (O_sink + r_sink)``.

    Returns ``math.inf`` when *any* of the graph's activities failed to
    converge: TT processes carry schedule-fixed (finite) completion
    times, so a diverged fixed point on an interior leg — e.g. an
    overloaded gateway FIFO feeding a TT consumer — would otherwise stay
    invisible to the sink maximum and let an unboundable graph pass as
    schedulable (a verdict unsoundness found by the conformance
    campaign).
    """
    image = system.image
    g = image.graph_id[graph_name]
    for p in image.graph_procs[g]:
        if not rho.processes[image.proc_names[p]].converged:
            return math.inf
    for m in image.graph_msgs[g]:
        for legs in (rho.can, rho.ttp):
            timing = legs.get(image.msg_names[m])
            if timing is not None and not timing.converged:
                return math.inf
    worst = 0.0
    for p in image.graph_sinks[g]:
        worst = max(worst, rho.processes[image.proc_names[p]].worst_end)
    return worst


def degree_of_schedulability(
    system: System, rho: ResponseTimes
) -> SchedulabilityReport:
    """Evaluate ``δΓ`` for an analysed system (see module docstring).

    Non-converged activities contribute :data:`OVERLOAD_PENALTY` so that
    heuristics can still compare two infeasible configurations (less
    overload ranks better), as the hill-climbing of section 5 requires a
    total order on costs.
    """
    tardiness = 0.0
    laxity = 0.0
    responses: Dict[str, float] = {}
    for graph_name, graph in sorted(system.app.graphs.items()):
        r_g = graph_response_time(system, rho, graph_name)
        if math.isinf(r_g):
            r_g = OVERLOAD_PENALTY
        responses[graph_name] = r_g
        slack = r_g - graph.deadline
        tardiness += max(0.0, slack)
        laxity += slack
        for proc_name, proc in graph.processes.items():
            if proc.deadline is None:
                continue
            end = rho.processes[proc_name].worst_end
            if math.isinf(end):
                end = OVERLOAD_PENALTY
            local_slack = end - proc.deadline
            tardiness += max(0.0, local_slack)
            laxity += local_slack
    if tardiness > 0.0:
        return SchedulabilityReport(
            degree=tardiness, schedulable=False, graph_responses=responses
        )
    return SchedulabilityReport(
        degree=laxity, schedulable=True, graph_responses=responses
    )
