"""HOPA — heuristic optimized priority assignment (paper reference [7],
Gutierrez Garcia & Gonzalez Harbour 1995).

HOPA turns end-to-end deadlines into *local* deadlines for every process
and message of a transaction, assigns priorities deadline-monotonically
from those local deadlines, analyses the system, and redistributes the
local deadlines based on where the slack or excess concentrates.  The
paper uses it to pick the ``π`` of every candidate configuration explored
by OptimizeSchedule.

This implementation:

1. distributes each graph's deadline over its activities proportionally to
   their cost along the longest path reaching them (WCET for processes,
   worst-case frame time for messages);
2. assigns priorities deadline-monotonically — per node for processes,
   bus-wide for CAN messages (unique tie-broken values);
3. optionally iterates: after an analysis pass, local deadlines are
   re-distributed proportionally to the *observed* worst-case completion
   times, shifting priority toward the activities that actually lag.

Iteration count 1 reproduces the cheap assignment used inside the OS inner
loop; larger counts give the full HOPA refinement.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..buses.ttp import TTPBusConfig
from ..model.configuration import PriorityAssignment
from ..system import System
from .common import evaluate
from ..model.configuration import SystemConfiguration

__all__ = ["hopa_priorities", "local_deadlines"]


def local_deadlines(
    system: System, weights: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Deadline share of every activity (processes and messages).

    The graph deadline is distributed along paths proportionally to the
    (weighted) activity costs — WCET, or frame time for CAN messages: an
    activity's local deadline is ``D_G * cum_cost(activity) /
    path_cost`` where ``cum_cost`` follows the longest-cost path from
    the sources.  ``weights`` (same keys, non-negative) scale the base
    costs, which is how the iterative refinement steers the split.  A
    graph's ``path_cost`` is its largest process ``cum_cost``: every
    message ends at a process whose ``cum_cost`` adds its own cost
    after the message's.  Read from the System's image, in id space.
    """
    image = system.image
    proc_cost = [max(wcet, 1e-9) for wcet in image.proc_wcet]
    msg_cost = [
        max(0.0 if frame is None else frame, 1e-9)
        for frame in image.msg_frame
    ]
    if weights:
        proc_cost = [cost * weights.get(name, 1.0)
                     for cost, name in zip(proc_cost, image.proc_names)]
        msg_cost = [cost * weights.get(name, 1.0)
                    for cost, name in zip(msg_cost, image.msg_names)]
    # Longest-cost cumulative position of each process (model order is
    # topological per graph).
    cum = [0.0] * len(proc_cost)
    for p, preds in enumerate(image.preds):
        best = 0.0
        for q, m in preds:
            via = cum[q]
            if m >= 0:
                via += msg_cost[m]
            best = max(best, via)
        cum[p] = best + proc_cost[p]
    pid, mid = image.pid, image.mid
    deadlines: Dict[str, float] = {}
    for g, graph in enumerate(system.app.graphs.values()):
        total = max((cum[p] for p in image.graph_procs[g]), default=1e-9)
        scale = graph.deadline / max(total, 1e-9)
        for name in graph.processes:
            deadlines[name] = cum[pid[name]] * scale
        for name, msg in graph.messages.items():
            deadlines[name] = (cum[pid[msg.src]] + msg_cost[mid[name]]) * scale
    return deadlines


def _priorities_from_deadlines(
    system: System, deadlines: Dict[str, float]
) -> PriorityAssignment:
    """Deadline-monotonic priority tables (smaller deadline = higher)."""
    proc_prios: Dict[str, int] = {}
    for node in system.arch.nodes:
        if not system.arch.is_et_node(node):
            continue
        procs = system.et_processes_on(node)
        ranked = sorted(procs, key=lambda p: (deadlines.get(p, math.inf), p))
        for rank, name in enumerate(ranked, start=1):
            proc_prios[name] = rank
    msg_prios: Dict[str, int] = {}
    ranked_msgs = sorted(
        system.can_messages(), key=lambda m: (deadlines.get(m, math.inf), m)
    )
    for rank, name in enumerate(ranked_msgs, start=1):
        msg_prios[name] = rank
    return PriorityAssignment(proc_prios, msg_prios)


def hopa_priorities(
    system: System,
    bus: Optional[TTPBusConfig] = None,
    iterations: int = 1,
    session=None,
) -> PriorityAssignment:
    """Compute a HOPA priority assignment.

    With ``iterations == 1`` the deadline-proportional split is used
    directly (no analysis pass — this is the fast mode OptimizeSchedule
    calls in its inner loop).  With more iterations and a ``bus`` to
    analyse against, local deadlines are refined from observed completion
    times and the best assignment (by ``δΓ``) is returned.  The
    refinement's analysis runs route through ``session`` when given.
    """
    deadlines = local_deadlines(system)
    priorities = _priorities_from_deadlines(system, deadlines)
    if iterations <= 1 or bus is None:
        return priorities
    if session is None:
        # A private session so the refinement's analysis passes share
        # one compiled kernel (each pass only flips priorities, which
        # the kernel absorbs as an incremental row recompile).
        from ..api.session import Session

        session = Session(system)
    best = priorities
    best_degree = math.inf
    weights: Dict[str, float] = {}
    for _ in range(iterations):
        priorities = _priorities_from_deadlines(system, deadlines)
        evaluation = evaluate(
            system,
            SystemConfiguration(bus=bus, priorities=priorities),
            session=session,
        )
        if evaluation.degree < best_degree:
            best_degree = evaluation.degree
            best = priorities
        if not evaluation.feasible or evaluation.analysis is None:
            break
        rho = evaluation.analysis.rho
        weights = {}
        for name, timing in rho.processes.items():
            r = timing.response
            weights[name] = 1.0 + (r if math.isfinite(r) else 1e6)
        for name, timing in rho.can.items():
            r = timing.response
            weights[name] = 1.0 + (r if math.isfinite(r) else 1e6)
        deadlines = local_deadlines(system, weights)
    return best
