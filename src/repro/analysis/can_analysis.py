"""CAN bus queueing analysis (section 4.1.1).

Covers the first two message-passing cases of the paper:

1. ET node -> ET node: the message waits in the sender node's ``Out_Ni``
   queue;
2. TT node -> ET node: the message waits in the gateway's ``Out_CAN``
   queue after the transfer process ``T`` has copied it from the MBI.

Both queues drain onto the same CAN bus, so — as the paper observes — the
same worst-case queueing equation applies:

    w_m = B_m + sum over j in hp(m) of ceil0((w_m + J_j - O_mj)/T_j) * C_j

with the blocking term ``B_m = max over k in lp(m) of C_k`` (a lower
priority frame already on the wire cannot be preempted).  ``hp``/``lp``
range over **all** CAN-borne messages, including those relayed by the
gateway.

The equation is solved by the CAN rows of the compiled kernel
(:mod:`repro.analysis.kernel`), together with the phase-locked and
ancestor refinements of DESIGN.md.  This module keeps the two pieces
the kernel and the test oracles share: the arbitration tie epsilon and
the CAN error term.
"""

from __future__ import annotations

from typing import Optional

from ..system import System
from .fixed_point import Interferer

__all__ = ["can_error_term"]

#: Tie-break epsilon: a higher-priority frame queued at the same instant
#: (zero jitter, equal offset) wins arbitration, so it must count as one
#: hit.  The paper's equation omits the term (Tindell's original uses
#: ``tau_bit``); an infinitesimal value restores soundness without
#: perturbing any other case.
TIE_EPSILON = 1e-9


def can_error_term(system: System, faults) -> Optional[Interferer]:
    """The classical CAN retransmission term as one virtual interferer.

    Tindell/Burns/Wellings model the error process as an extra demand

        E(t) = (floor(t / T_err) + 1) * (O_err + max_k C_k)

    added to every busy window: errors arrive at most once per
    ``T_err``, each costs the error-signalling overhead plus one
    retransmission of the largest corruptible frame.  Expressed in this
    codebase's interference vocabulary that is exactly an unlocked
    interferer with

        period = T_err,  cost = O_err + max C,  jitter = max C

    — the jitter turns ``ceil0`` arrivals into ``floor + 1`` and
    stretches the window so errors corrupting the frame *under
    analysis* (which completes up to ``C_m <= max C`` after its busy
    window) are counted too.  Appending it to the interferer set keeps
    the whole fixed-point machinery (and its divergence detection: an
    error process denser than the bus can absorb simply diverges to
    "unschedulable") untouched.

    Returns None when ``faults`` carries no CAN error process or the
    system has no CAN traffic.  ``faults`` only needs the
    ``can_error_interval`` / ``can_error_overhead`` fields — any
    modeled projection of a :class:`repro.faults.FaultSpec` works.
    """
    if faults is None or faults.can_error_interval is None:
        return None
    can_msgs = system.can_messages()
    if not can_msgs:
        return None
    max_frame = max(system.can_frame_time(name) for name in can_msgs)
    return Interferer(
        jitter=max_frame,
        rel_offset=0.0,
        period=faults.can_error_interval,
        cost=faults.can_error_overhead + max_frame,
    )
