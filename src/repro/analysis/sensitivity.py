"""Sensitivity analysis: robustness margins of a schedulable system.

A synthesis result that is schedulable *on paper* may sit arbitrarily
close to the edge.  This module quantifies the margin, in the spirit of
the degree-of-schedulability cost the paper optimizes:

* :func:`wcet_scaling_margin` — the largest uniform factor by which all
  process WCETs can grow with the system staying schedulable under the
  same configuration ``ψ`` (binary search over the analysis);
* :func:`critical_activities` — the activities whose completion sits
  closest to a deadline, i.e. where the margin is consumed.

Both are pure consumers of the public analysis API and do not mutate the
input system (WCETs are scaled on a deep model copy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..exceptions import AnalysisError, SchedulingError
from ..io.serialize import system_from_dict, system_to_dict
from ..model.configuration import SystemConfiguration
from ..system import System
from .degree import degree_of_schedulability
from .multicluster import multi_cluster_scheduling
from .timing import ResponseTimes

__all__ = ["ScalingResult", "wcet_scaling_margin", "critical_activities"]


@dataclass(frozen=True)
class ScalingResult:
    """Outcome of the WCET scaling search."""

    factor: float
    schedulable_at_factor: bool
    iterations: int

    @property
    def margin_percent(self) -> float:
        """Headroom over the nominal WCETs, in percent."""
        return 100.0 * (self.factor - 1.0)


def _scaled_copy(system: System, factor: float) -> System:
    clone = system_from_dict(system_to_dict(system))
    for graph in clone.app.graphs.values():
        for proc in graph.processes.values():
            proc.wcet = proc.wcet * factor
    return clone


def _schedulable(system: System, config: SystemConfiguration) -> bool:
    try:
        result = multi_cluster_scheduling(
            system, config.bus, config.priorities, tt_delays=config.tt_delays
        )
    except (SchedulingError, AnalysisError):
        return False  # infeasible at this scale; any other error is a bug
    if not result.converged:
        return False
    return degree_of_schedulability(system, result.rho).schedulable


def wcet_scaling_margin(
    system: System,
    config: SystemConfiguration,
    upper: float = 4.0,
    tolerance: float = 0.01,
) -> ScalingResult:
    """Largest uniform WCET scaling factor that stays schedulable.

    Binary search in ``[1, upper]``; returns factor 1.0 (not schedulable
    at nominal WCETs) or ``upper`` (never became unschedulable within the
    search range) at the extremes.
    """
    if not _schedulable(system, config):
        return ScalingResult(factor=1.0, schedulable_at_factor=False, iterations=1)
    low, high = 1.0, upper
    iterations = 1
    if _schedulable(_scaled_copy(system, upper), config):
        return ScalingResult(
            factor=upper, schedulable_at_factor=True, iterations=2
        )
    while high - low > tolerance:
        mid = (low + high) / 2.0
        iterations += 1
        if _schedulable(_scaled_copy(system, mid), config):
            low = mid
        else:
            high = mid
    return ScalingResult(
        factor=low, schedulable_at_factor=True, iterations=iterations
    )


def critical_activities(
    system: System, rho: ResponseTimes, limit: int = 5
) -> List[Tuple[str, float]]:
    """Activities with the least slack to their effective deadline.

    Returns ``(process, slack)`` pairs sorted by slack ascending; the
    graph deadline applies to sink processes, local deadlines to any
    process that has one.
    """
    slacks: List[Tuple[str, float]] = []
    for graph in system.app.graphs.values():
        sinks = set(graph.sinks())
        for proc_name, proc in graph.processes.items():
            deadlines = []
            if proc.deadline is not None:
                deadlines.append(proc.deadline)
            if proc_name in sinks:
                deadlines.append(graph.deadline)
            if not deadlines:
                continue
            end = rho.processes[proc_name].worst_end
            slacks.append((proc_name, min(deadlines) - end))
    slacks.sort(key=lambda item: item[1])
    return slacks[:limit]
