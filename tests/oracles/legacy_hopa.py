"""The name-keyed HOPA local-deadline split (parity oracle).

:func:`legacy_local_deadlines` is :func:`repro.optim.local_deadlines`
as it was before it read the System's image: it walks the string-keyed
model per graph, and finds each process's largest outgoing message
cost by scanning every message of the graph.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.model.architecture import MessageRoute


def _activity_costs(system, graph) -> Dict[str, float]:
    """Cost of each activity: WCET, or frame time for CAN messages."""
    costs: Dict[str, float] = {}
    for proc in graph.processes.values():
        costs[proc.name] = max(proc.wcet, 1e-9)
    for msg in graph.messages.values():
        route = system.route(msg.name)
        if route is MessageRoute.TT_TO_TT:
            cost = 0.0
        else:
            cost = system.can_frame_time(msg.name)
        costs[msg.name] = max(cost, 1e-9)
    return costs


def legacy_local_deadlines(
    system, weights: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Deadline share of every activity (processes and messages)."""
    deadlines: Dict[str, float] = {}
    for graph in system.app.graphs.values():
        costs = _activity_costs(system, graph)
        if weights:
            for key in costs:
                costs[key] *= weights.get(key, 1.0)
        # Longest-cost cumulative position of each activity.
        cum: Dict[str, float] = {}
        for proc_name in graph.topological_order():
            best = 0.0
            for pred, msg_name in graph.predecessors(proc_name):
                via = cum[pred]
                if msg_name is not None:
                    via += costs[msg_name]
                best = max(best, via)
            cum[proc_name] = best + costs[proc_name]
        total = max(
            (
                cum[proc]
                + max(
                    (
                        costs[m]
                        for m in graph.messages
                        if graph.messages[m].src == proc
                    ),
                    default=0.0,
                )
                for proc in graph.processes
            ),
            default=1e-9,
        )
        total = max(total, 1e-9)
        scale = graph.deadline / total
        for proc_name in graph.processes:
            deadlines[proc_name] = cum[proc_name] * scale
        for msg_name, msg in graph.messages.items():
            deadlines[msg_name] = (cum[msg.src] + costs[msg_name]) * scale
    return deadlines
