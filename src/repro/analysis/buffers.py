"""Queue-size bounds and the total buffer need ``s_total`` (sections
4.1.1–4.1.2 and 5).

Three output queues exist (footnote 2: input buffers are one per message
and not part of the optimization; TTC nodes need no output queues):

* ``Out_Ni`` — CAN queue of each ETC node ``Ni``;
* ``Out_CAN`` — gateway queue of TT->ET messages awaiting CAN transmission;
* ``Out_TTP`` — gateway FIFO of ET->TT messages awaiting the gateway slot.

For the priority-ordered queues the bound takes, for each resident message
``m``, the bytes of ``m`` itself plus the higher-priority messages *of the
same queue* that can be enqueued within ``m``'s queueing window:

    s_Out = max over m of ( s_m + sum over j in hp(m), same queue, of
                            ceil0((w_m + J_j - O_mj)/T_j) * s_j )

For the FIFO ``Out_TTP`` the bound is ``max over m of (S_m + I_m)`` with
``I_m`` from the slot-drain analysis.

``s_total = s_Out^CAN + s_Out^TTP + sum over ETC nodes of s_Out^Ni``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..model.configuration import PriorityAssignment
from ..semantics import fifo_competitors
from ..system import System
from .fixed_point import Interferer, ceil0_hits
from .holistic import phase_locked_hits
from .timing import ResponseTimes

__all__ = ["BufferReport", "buffer_bounds"]

#: Finite stand-in for an unbounded queue (overloaded system), mirroring
#: :data:`repro.analysis.degree.OVERLOAD_PENALTY`.
UNBOUNDED_PENALTY = 1e12


@dataclass(frozen=True)
class BufferReport:
    """Buffer bounds of a configuration, all in bytes."""

    out_can: float
    out_ttp: float
    out_node: Dict[str, float]

    @property
    def total(self) -> float:
        """``s_total`` — the optimization objective of section 5."""
        return self.out_can + self.out_ttp + sum(self.out_node.values())


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
    ``(message, leg timing)`` residents.

    A message's residency in a queue is governed by the timing of the
    *leg* that goes through it, which for multi-hop routes is not the
    ``rho.can`` record.
    """
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
            # A same-instant higher-priority arrival co-resides in the
            # queue, so the tie counts.
            hits = _resident_hits(system, m, timing, j, other, 1e-9)
            occupancy += hits * app.message(j).size
        worst = max(worst, occupancy)
    return worst


def _leg_timing(rho: ResponseTimes, msg: str, pos: int):
    """Timing record of CAN leg ``pos`` of ``msg``: its ``hops`` entry,
    or ``rho.can[m]`` for a message without one (a single CAN leg, or
    the source leg of an ET->TT message on a one-gateway plan)."""
    hops = rho.hops.get(msg)
    return hops[pos] if hops else rho.can[msg]


def buffer_bounds(
    system: System,
    priorities: PriorityAssignment,
    rho: ResponseTimes,
    plan=None,
) -> BufferReport:
    """Compute all queue bounds for an analysed configuration.

    ``plan`` (a :class:`repro.semantics.routing.RoutingPlan`, the
    system's default plan when ``None``) supplies the queue membership —
    one ``Out_CAN``/``Out_TTP`` pair per gateway, transit legs included;
    ``out_can``/``out_ttp`` report the *sum* over the per-gateway queues
    (distinct memories).  The canonical topology is the one-gateway
    plan: one ``Out_CAN`` and one ``Out_TTP``.
    """
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
                # Source-node queue: every frame leaving an ET node —
                # ET->ET and the first leg of crossing messages alike —
                # waits in that node's CAN controller queue
                # (``et_to_et_messages_from``).
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


def ttp_resident_bytes(
    system: System,
    msg: str,
    timing,
    rho: ResponseTimes,
    plan=None,
) -> float:
    """``I_m`` evaluated at the final fixed point (bytes ahead of ``msg``).

    ``Out_TTP`` is a FIFO: every other ET->TT message can co-reside ahead
    of ``msg`` regardless of CAN priority (the shared contract of
    :func:`repro.semantics.fifo_competitors`).
    """
    app = system.app
    total = 0.0
    for j in fifo_competitors(system, msg, plan=plan):
        other = rho.ttp[j]
        if not other.converged:
            return UNBOUNDED_PENALTY
        hits = _resident_hits(system, msg, timing, j, other, 0.0)
        total += hits * app.message(j).size
    return total
