"""The timing-semantics contract shared by analysis and simulation.

The paper's soundness claim — the holistic analysis *dominates* observed
behaviour — is only as strong as the agreement between the two sides on
three pieces of platform semantics.  Historically each side had a private
copy and they drifted (the seed=1654 gateway divergence, see DESIGN.md);
this module is now the single owner.

**Message readiness.**  A message is available to its consumer only once
the carrying frame is *fully received*: at the CAN frame's completion for
an ET-side consumer, at the TDMA slot's end for a TTP-borne frame.  A TT
consumer may be dispatched at, but never before, the availability of every
one of its input messages (:func:`dispatch_respects_arrival`).

**Gateway transfer timing.**  Every inter-cluster hop pays the transfer
process ``T`` once (:func:`gateway_transfer_delay`): a TT->ET frame is
copied from the MBI into the priority-ordered ``Out_CAN`` queue, an ET->TT
frame from the CAN controller into the FIFO ``Out_TTP`` queue.  An ET->TT
message therefore enters ``Out_TTP`` at worst at
:func:`ettt_queue_instant` and becomes available to its TT consumer at
the *end* of the gateway slot that finally carries it (``O + J + w + C``
of the TTP leg — the ``worst_end`` composition of
:class:`repro.analysis.timing.ActivityTiming`).

**Out_TTP is a FIFO — CAN priorities do not order it.**  The gateway slot
drains ``Out_TTP`` front-first by *arrival order*; a message with a lower
CAN priority that reached the gateway earlier occupies slot capacity ahead
of a higher-priority one.  Any byte-ahead analysis of the FIFO must
therefore charge **every** other ET->TT message
(:func:`fifo_competitors`), not just the higher-priority ones.  Filtering
by priority was exactly the seed=1654 unsoundness: the analysis ignored a
lower-priority 8-byte frame sitting in front, under-estimated the drain by
one TDMA round, and the static schedule dispatched the consumer one round
before its input arrived in simulation.

**The ET->TT arrival-floor ratchet.**  The Fig. 5 loop re-derives TT
offsets from the latest arrival bounds; to exclude limit cycles the
per-message schedule constraint only ever ratchets upward
(:func:`ratchet_arrival_floors`).  Monotone growth preserves soundness —
a larger arrival bound only delays TT consumers further — and, combined
with the FIFO rule above, yields the dominance invariant enforced by
:mod:`repro.conformance`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

from ..system import System

__all__ = [
    "DISPATCH_TOLERANCE",
    "dispatch_respects_arrival",
    "et_to_tt_constraint",
    "ettt_queue_instant",
    "fifo_competitors",
    "fifo_drain_rounds",
    "gateway_transfer_delay",
    "ratchet_arrival_floors",
]

#: Tolerance used when comparing a dispatch instant against an arrival
#: bound (floating-point slack of the schedule construction; a frame
#: arriving exactly at the dispatch instant counts as present).
DISPATCH_TOLERANCE = 1e-9


def gateway_transfer_delay(
    system: System, gateway: Optional[str] = None
) -> float:
    """Worst-case cost of one gateway hop (the transfer process ``C_T``).

    Paid once per crossing of ``gateway`` — a frame is copied from the
    inbound controller (MBI or CAN) into the outbound queue (``Out_CAN``
    or ``Out_TTP``) of *that* gateway.  The simulator delays the frame
    by exactly this much; the analysis adds it to the message's queueing
    jitter.  ``gateway=None`` (every pre-generalization call site) means
    the architecture-wide default ``C_T``; per-gateway overrides come
    from the :class:`repro.model.topology.Gateway` record.
    """
    if gateway is None:
        return system.arch.gateway_transfer_wcet
    return system.arch.transfer_wcet_of(gateway)


def fifo_competitors(
    system: System, msg: str, plan=None, gateway: Optional[str] = None
) -> List[str]:
    """Every other message that can occupy a gateway ``Out_TTP`` FIFO
    ahead of ``msg``.

    The FIFO is ordered by arrival, **not** by CAN priority, so the
    competitor set is priority-blind: every other message routed through
    the *same gateway's* FIFO competes for that gateway slot's bytes.
    This is the interference set every byte-ahead bound of the FIFO
    (queue delay and buffer occupancy alike) must charge.

    The set is the other users of ``gateway``'s FIFO in the routing
    ``plan`` (the system's default plan when ``None``; ``gateway=None``
    resolves to the FIFO leg of ``msg`` itself), which includes ET->ET
    messages transiting the TT cluster.  On the canonical topology that
    is every other ET->TT message — its single FIFO.
    """
    if plan is None:
        plan = system.default_routing()
    if gateway is None:
        leg = plan.fifo_leg(msg)
        if leg is None:
            return []
        gateway = leg.sender
    return [
        other for other in plan.fifo_users.get(gateway, []) if other != msg
    ]


def fifo_drain_rounds(
    own_size: float,
    bytes_ahead: float,
    count_ahead: int,
    capacity: float,
    max_size: float,
) -> int:
    """Worst-case gateway rounds until a FIFO message departs.

    The gateway slot packs **whole frames**: a message either fits
    entirely into the slot's remaining capacity or waits for the next
    round, so the paper's byte-granular ``ceil((S_m + I_m)/size_SG)`` is
    an *under*-estimate — a 32-byte slot facing 10+26+19+18 bytes ahead
    of a 32-byte message needs five rounds, not four (head-of-line
    fragmentation; found by the conformance campaign).  Two sound upper
    bounds, combined by minimum:

    * **one-slot**: when everything ahead plus the message itself fits
      one slot (``bytes_ahead + own_size <= capacity``) the front-first
      drain never blocks and one round suffices — exact;
    * **count**: every round ships at least the head message (every
      message fits an empty slot — validated at configuration time), so
      ``count_ahead`` whole arrivals ahead drain in at most
      ``count_ahead`` rounds and the message departs by round
      ``count_ahead + 1``;
    * **gap**: each of the ``r - 1`` rounds before the departure round
      ended because some pending frame did not fit, wasting *strictly
      less* than the largest pending frame (``max_size``, own message
      included), so while ``max_size < capacity`` each drained more
      than ``gap = capacity - max_size`` bytes of the ``bytes_ahead``
      backlog: ``(r-1) * gap < bytes_ahead``, i.e. ``r <=
      ceil(bytes_ahead / gap)``.

    ``count_ahead`` must count *message instances* (the interference
    hits), not bytes.  Monotone in every argument, preserving the fixed
    point's convergence argument.
    """
    if bytes_ahead <= 0 or bytes_ahead + own_size <= capacity + 1e-12:
        return 1
    rounds = count_ahead + 1
    if max_size < capacity:
        gap_rounds = math.ceil(
            bytes_ahead / (capacity - max_size) - 1e-12
        )
        if gap_rounds < rounds:
            rounds = gap_rounds
    return rounds


def ettt_queue_instant(offset: float, queue_jitter: float) -> float:
    """Worst-case absolute instant an ET->TT message enters ``Out_TTP``.

    ``offset`` is the message's earliest transmission ``O_m``;
    ``queue_jitter`` is ``J'_m = r_m^CAN + r_T`` (CAN response plus the
    gateway transfer).
    """
    return offset + queue_jitter


def et_to_tt_constraint(
    msg_name: str,
    rho: Optional[object],
    arrival_floors: Optional[Mapping[str, float]],
) -> float:
    """Schedule-table constraint for the TT consumer of an ET->TT message.

    The worst-case availability per the previous analysis pass (``rho``,
    a :class:`repro.analysis.timing.ResponseTimes`), merged with the
    multi-cluster loop's monotonic ``arrival_floors`` ratchet.  On the
    very first pass (``rho is None``) the ETC influence is ignored,
    exactly as the initial-offset step of Fig. 5 prescribes.
    """
    arrival = 0.0
    if rho is not None and msg_name in rho.ttp:
        end = rho.ttp[msg_name].worst_end
        if not math.isinf(end):
            arrival = end
    if arrival_floors is not None:
        arrival = max(arrival, arrival_floors.get(msg_name, 0.0))
    return arrival


def ratchet_arrival_floors(floors: Dict[str, float], rho) -> Dict[str, float]:
    """Monotonically fold the latest ET->TT availability bounds into
    ``floors`` (in place; returned for convenience).

    A message's schedule constraint never decreases between Fig. 5
    iterations: this damping removes the limit cycles a literal
    re-derivation can fall into — an offset shift moves a frame to an
    earlier TDMA round, which shifts the offset back — while preserving
    soundness (a larger arrival bound only delays TT consumers further).
    """
    for msg_name, timing in rho.ttp.items():
        end = timing.worst_end
        if math.isfinite(end):
            floors[msg_name] = max(floors.get(msg_name, 0.0), end)
    return floors


def dispatch_respects_arrival(
    dispatch_time: float,
    arrival_time: Optional[float],
    tolerance: float = DISPATCH_TOLERANCE,
) -> bool:
    """TT dispatch eligibility: is an input message present at dispatch?

    ``arrival_time`` is the absolute instant the message became available
    (``None`` when it has not arrived at all).  A frame arriving exactly
    at the dispatch instant counts as present — the TTC kernel reads the
    MBI after the controller committed the frame, the boundary case of
    the paper's worked example.
    """
    if arrival_time is None:
        return False
    return arrival_time <= dispatch_time + tolerance
