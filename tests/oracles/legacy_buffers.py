"""The name-keyed queue-size bounds (parity oracle).

:func:`legacy_buffer_bounds` re-derives each queue's membership, every
pair's periods, ancestor flag and sizes, and each leg's timing record
by message name on every call.  It is the semantic reference the
interned-leg :func:`repro.analysis.buffers.buffer_bounds` is
parity-tested against (``tests/test_buffer_parity.py``): the same
``out_can``, ``out_ttp`` and ``out_node`` bit for bit, the
``UNBOUNDED_PENALTY`` of non-converged queues included.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.buffers import UNBOUNDED_PENALTY, BufferReport
from repro.analysis.fixed_point import Interferer
from repro.analysis.timing import ResponseTimes
from repro.model.configuration import PriorityAssignment
from repro.semantics import fifo_competitors
from repro.system import System

from .busy_window import ceil0_hits, phase_locked_hits


def _resident_hits(
    system: System, msg: str, timing, j: str, other, epsilon: float
) -> int:
    """Activations of ``j`` (timing ``other``) that can co-reside with
    ``msg`` (timing ``timing``) in a queue during ``msg``'s waiting
    window.

    Phase-locked (equal-period) messages use the interval count of
    ``j``'s activations whose queue residency (jitter + queueing delay)
    can overlap the window; ancestors of ``msg`` cannot co-reside (their
    same-instance transmission precedes its birth).  Other messages use
    ``ceil0`` arrivals, with ``epsilon`` counting a same-instant arrival
    (the priority queues' tie; 0 for the FIFO).
    """
    app = system.app
    period = app.period_of_message(j)
    if period == app.period_of_message(msg):
        rel = (other.offset - timing.offset) % period
        return phase_locked_hits(
            timing.queuing,
            timing.jitter,
            rel,
            period,
            other.jitter,
            other.queuing,
            system.message_is_ancestor(j, msg),
        )
    return ceil0_hits(
        timing.queuing,
        Interferer(
            jitter=other.jitter,
            rel_offset=0.0,
            period=period,
            cost=float(app.message(j).size),
        ),
        epsilon=epsilon,
    )


def _priority_queue_bound(
    system: System,
    priorities: PriorityAssignment,
    members,
) -> float:
    """Worst-case size of one priority-ordered CAN queue, over its
    ``(message, leg timing)`` residents."""
    worst = 0.0
    app = system.app
    for m, timing in members:
        if not timing.converged:
            return UNBOUNDED_PENALTY
        own_prio = priorities.message_priority(m)
        occupancy = float(app.message(m).size)
        for j, other in members:
            if j == m or priorities.message_priority(j) > own_prio:
                continue
            if not other.converged:
                return UNBOUNDED_PENALTY
            hits = _resident_hits(system, m, timing, j, other, 1e-9)
            occupancy += hits * app.message(j).size
        worst = max(worst, occupancy)
    return worst


def _leg_timing(rho: ResponseTimes, msg: str, pos: int):
    """Timing record of CAN leg ``pos`` of ``msg``: its ``hops`` entry,
    or ``rho.can[m]`` for a message without one."""
    hops = rho.hops.get(msg)
    return hops[pos] if hops else rho.can[msg]


def ttp_resident_bytes(
    system: System,
    msg: str,
    timing,
    rho: ResponseTimes,
    plan=None,
) -> float:
    """``I_m`` evaluated at the final fixed point (bytes ahead of
    ``msg`` in its priority-blind ``Out_TTP`` FIFO)."""
    app = system.app
    total = 0.0
    for j in fifo_competitors(system, msg, plan=plan):
        other = rho.ttp[j]
        if not other.converged:
            return UNBOUNDED_PENALTY
        hits = _resident_hits(system, msg, timing, j, other, 0.0)
        total += hits * app.message(j).size
    return total


def legacy_buffer_bounds(
    system: System,
    priorities: PriorityAssignment,
    rho: ResponseTimes,
    plan=None,
) -> BufferReport:
    """All queue bounds of an analysed configuration, by message name."""
    if plan is None:
        plan = system.default_routing()
    app = system.app
    gw_can: Dict[str, list] = {}
    src_can: Dict[str, list] = {}
    for m, legs in sorted(plan.legs.items()):
        for pos, leg in enumerate(legs):
            if leg.is_fifo:
                continue
            timing = _leg_timing(rho, m, pos)
            if leg.via is not None:
                gw_can.setdefault(leg.via, []).append((m, timing))
            else:
                src_can.setdefault(leg.sender, []).append((m, timing))
    out_can = 0.0
    for gateway in sorted(gw_can):
        out_can += _priority_queue_bound(
            system, priorities, gw_can[gateway]
        )
    out_node: Dict[str, float] = {}
    for node in system.arch.et_node_names():
        members = src_can.get(node)
        out_node[node] = (
            _priority_queue_bound(system, priorities, members)
            if members
            else 0.0
        )
    out_ttp = 0.0
    for gateway in sorted(plan.fifo_users):
        queue_worst = 0.0
        for m in plan.fifo_users[gateway]:
            timing = rho.ttp[m]
            if not timing.converged:
                queue_worst = UNBOUNDED_PENALTY
                break
            ahead = ttp_resident_bytes(system, m, timing, rho, plan=plan)
            queue_worst = max(queue_worst, app.message(m).size + ahead)
        out_ttp += queue_worst
    return BufferReport(out_can=out_can, out_ttp=out_ttp, out_node=out_node)
