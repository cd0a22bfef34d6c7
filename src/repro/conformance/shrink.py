"""Counterexample shrinking: reduce a violating workload to a minimal one.

A campaign counterexample is only as useful as it is small — the
seed=1654 divergence needed three graphs and one congested gateway slot,
not the hundreds of processes it was found among.  :func:`shrink_counterexample`
greedily reduces a violating :class:`repro.system.System` while the
dominance violation (re-derived from a fresh canonical configuration at
every step, since priorities and slot sizes depend on the surviving
messages) persists:

1. **drop whole graphs** — repeatedly try removing each process graph;
2. **trim chain tails** — repeatedly try removing sink processes (and
   their incoming arcs) from each surviving graph.

Both passes iterate to a fixed point, so the result is 1-minimal under
these two operations: removing any single graph or sink process makes
the violation disappear.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..exceptions import ReproError
from ..model.application import Application, Dependency, Message, Process, ProcessGraph
from ..system import System
from .classify import ConformanceViolation

__all__ = ["shrink_counterexample"]


def _rebuild(system: System, graphs: List[ProcessGraph]) -> System:
    """A new System with the same platform but a reduced application."""
    return System(
        app=Application(graphs),
        arch=system.arch,
        can_spec=system.can_spec,
        ttp_spec=system.ttp_spec,
        releases={
            name: release
            for name, release in system.releases.items()
            if any(name in g.processes for g in graphs)
        },
    )


def _without_process(graph: ProcessGraph, victim: str) -> Optional[ProcessGraph]:
    """``graph`` minus one sink process; ``None`` when it would empty it."""
    processes = [
        Process(p.name, wcet=p.wcet, node=p.node, deadline=p.deadline)
        for p in graph.processes.values()
        if p.name != victim
    ]
    if not processes:
        return None
    messages = [
        Message(m.name, src=m.src, dst=m.dst, size=m.size)
        for m in graph.messages.values()
        if victim not in (m.src, m.dst)
    ]
    dependencies = [
        Dependency(src=d.src, dst=d.dst)
        for d in graph.dependencies
        if victim not in (d.src, d.dst)
    ]
    return ProcessGraph(
        name=graph.name,
        period=graph.period,
        deadline=graph.deadline,
        processes=processes,
        messages=messages,
        dependencies=dependencies,
    )


def _still_violates(
    system: System, periods: int, rounds_per_period: int, faults=None,
) -> Optional[List[ConformanceViolation]]:
    """Violations of the reduced system, ``None`` when it became clean.

    A reduction that makes the system unschedulable, unanalysable or
    structurally invalid does not preserve the counterexample either.
    ``faults`` must be the spec the campaign observed the violation
    under: a fault-found violation is re-validated under the same
    seeded injection at every step.
    """
    from .campaign import evaluate_workload

    try:
        status, violations, _error, _profile = evaluate_workload(
            system, periods=periods, rounds_per_period=rounds_per_period,
            faults=faults,
        )
    except ReproError:
        return None
    return violations if status == "violation" else None


def shrink_counterexample(
    system: System,
    violations: List[ConformanceViolation],
    periods: int = 3,
    rounds_per_period: int = 10,
    faults=None,
) -> Tuple[System, List[ConformanceViolation]]:
    """Greedily minimize a violating workload (see module docstring).

    Returns the smallest system found and its (re-derived) violations;
    when nothing can be removed the input pair comes back unchanged.
    """
    current = system
    best_violations = violations

    # Pass 1: drop whole graphs, to a fixed point.
    reduced = True
    while reduced:
        reduced = False
        graphs = list(current.app.graphs.values())
        if len(graphs) <= 1:
            break
        for index in range(len(graphs)):
            candidate_graphs = graphs[:index] + graphs[index + 1:]
            try:
                candidate = _rebuild(current, candidate_graphs)
            except ReproError:
                continue
            found = _still_violates(
                candidate, periods, rounds_per_period, faults
            )
            if found is not None:
                current = candidate
                best_violations = found
                reduced = True
                break

    # Pass 2: trim sink processes off the surviving graphs.
    reduced = True
    while reduced:
        reduced = False
        for graph in list(current.app.graphs.values()):
            for sink in sorted(graph.sinks()):
                trimmed = _without_process(graph, sink)
                if trimmed is None:
                    continue
                candidate_graphs = [
                    trimmed if g.name == graph.name else g
                    for g in current.app.graphs.values()
                ]
                try:
                    candidate = _rebuild(current, candidate_graphs)
                except ReproError:
                    continue
                found = _still_violates(
                    candidate, periods, rounds_per_period, faults
                )
                if found is not None:
                    current = candidate
                    best_violations = found
                    reduced = True
                    break
            if reduced:
                break

    return current, best_violations
