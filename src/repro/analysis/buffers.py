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

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..model.configuration import PriorityAssignment
from ..system import System, lru_lookup
from .timing import ResponseTimes

__all__ = ["BufferReport", "buffer_bounds"]

#: Finite stand-in for an unbounded queue (overloaded system), mirroring
#: :data:`repro.analysis.degree.OVERLOAD_PENALTY`.
UNBOUNDED_PENALTY = 1e12

#: Layouts a System keeps (one per routing plan it caches).
_MAX_LAYOUTS = 16

#: One queue resident: its leg id, its size, and one
#: ``(leg, size, period, equal period, ancestor)`` pair per other
#: message of the queue, in summation order.
_Resident = Tuple[int, int, List[Tuple[int, int, float, bool, bool]]]


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


class _BufferLayout:
    """The queues of one ``(System, plan)`` over its plan's leg ids.

    ``reads`` says where each leg's timing lives in ``ρ`` (position
    ``-1`` marks a FIFO leg, read from ``ρ.ttp``); each queue is a list
    of residents (:data:`_Resident`) in leg-id order, the order the
    bound sums them.
    """

    def __init__(self, system: System, plan) -> None:
        image = system.image
        legs_of = plan.image
        msg = legs_of.leg_msg
        self.reads: List[Tuple[str, int]] = [
            (image.msg_names[m], -1 if fifo else pos)
            for m, pos, fifo in zip(msg, legs_of.leg_pos, legs_of.leg_fifo)
        ]
        size = [image.msg_size[m] for m in msg]
        period = [image.msg_period[m] for m in msg]
        ancestors = image.msg_anc
        # Source-node queue: every frame leaving an ET node — ET->ET and
        # the first leg of crossing messages alike — waits in that
        # node's CAN controller queue.
        queues: List[List[int]] = [[] for _ in image.queue_names]
        for leg, queue in enumerate(legs_of.leg_queue):
            queues[queue].append(leg)

        def residents(members: List[int]) -> List[_Resident]:
            return [
                (a, size[a], [
                    (b, size[b], period[b], period[b] == period[a],
                     bool(ancestors[msg[a]] >> msg[b] & 1))
                    for b in members if msg[b] != msg[a]
                ])
                for a in members
            ]

        self.out_can = [residents(queues[q]) for q in image.out_can_q]
        self.out_ttp = [residents(queues[q]) for q in image.out_ttp_q]
        self.out_node = [
            (node, residents(queues[q]))
            for node, q in zip(image.et_nodes, image.node_q)
        ]


def _queue_bound(
    residents: List[_Resident], legs: list, prio: List[int], epsilon: float
) -> float:
    """Worst-case bytes of one queue: ``UNBOUNDED_PENALTY`` when any
    resident's analysis diverged, else the largest ``s_m`` plus the
    bytes of the higher-priority (FIFO: all) others that can co-reside
    during ``m``'s queueing window.

    The counts are those of the kernel's rows (``_solve_row`` in
    :mod:`repro.analysis.kernel`): an equal-period pair counts the
    activations whose residency (jitter + queueing) can overlap the
    window, none before the current instance for an ancestor of ``m``;
    any other pair counts ``ceil0`` arrivals, ``epsilon`` counting a
    same-instant one (the priority queues' tie, 0 in the FIFO).
    """
    for a, _, _ in residents:
        if not legs[a][3]:
            return UNBOUNDED_PENALTY
    floor = math.floor
    ceil = math.ceil
    worst = 0.0
    for a, own_size, pairs in residents:
        offset, jitter, window, _ = legs[a]
        own_prio = prio[a]
        hi = jitter + window
        occupancy = float(own_size)
        for b, b_size, period, locked, ancestor in pairs:
            if prio[b] > own_prio:
                continue
            b_offset, b_jitter, b_window, _ = legs[b]
            if locked:
                rel = (b_offset - offset) % period
                k_max = floor((hi - rel) / period + 1e-9)
                k_min = ceil((-(b_jitter + b_window) - rel) / period - 1e-9)
                if ancestor and k_min < 0:
                    k_min = 0
                if k_max >= k_min:
                    occupancy += (k_max - k_min + 1) * b_size
            else:
                x = window + b_jitter + epsilon
                if x > 0:
                    occupancy += ceil(x / period - 1e-12) * b_size
        if occupancy > worst:
            worst = occupancy
    return worst


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
    plan: one ``Out_CAN`` and one ``Out_TTP``.  A message's residency in
    a queue is governed by the timing of the *leg* through it: its
    ``ρ.hops`` entry on a multi-hop route, else ``ρ.can``/``ρ.ttp``.

    The queue layout is compiled once per ``(System, plan)`` and kept
    by the System; a call reads each leg's timing and π once.
    """
    if plan is None:
        plan = system.default_routing()
    layout = lru_lookup(
        system._buffer_layouts, plan,
        lambda: _BufferLayout(system, plan), _MAX_LAYOUTS,
    )
    legs = []
    for m, pos in layout.reads:
        if pos < 0:
            t = rho.ttp[m]
        else:
            hops = rho.hops.get(m)
            t = hops[pos] if hops else rho.can[m]
        legs.append((t.offset, t.jitter, t.queuing, t.converged))
    # The FIFO is priority-blind: all its legs rank equal, so every
    # other resident counts.
    prio = [
        priorities.message_priority(m) if pos >= 0 else 0
        for m, pos in layout.reads
    ]
    out_can = 0.0
    for residents in layout.out_can:
        out_can += _queue_bound(residents, legs, prio, 1e-9)
    out_node = {
        node: _queue_bound(residents, legs, prio, 1e-9)
        for node, residents in layout.out_node
    }
    out_ttp = 0.0
    for residents in layout.out_ttp:
        out_ttp += _queue_bound(residents, legs, prio, 0.0)
    return BufferReport(out_can=out_can, out_ttp=out_ttp, out_node=out_node)
