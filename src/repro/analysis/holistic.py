"""Holistic ETC response-time analysis (the ``ResponseTimeAnalysis`` of
Fig. 5, detailed in section 4.1).

Given offsets ``φ`` (from the static scheduler), priorities ``π`` and the
TDMA configuration ``β``, this computes worst-case response times for:

* every ET process (busy-window analysis with offsets and jitter),
* the CAN leg of every CAN-borne message,
* the TTP leg (gateway FIFO + slot) of every ET->TT message.

The couplings form a cyclic dependency — a receiver's jitter is the
response time of its incoming message, message jitter is the sender's
response time, and interference depends on everyone's jitter — so the
whole system is iterated as one monotone fixed point starting from zero
jitter, converging to the least solution (the standard holistic-analysis
argument of Tindell & Clark, which the paper extends).

Jitter propagation rules (section 4.1, calibrated on the Fig. 4/6 worked
example; see DESIGN.md):

* TT process: activated exactly at its offset; ``J = 0``, ``w = 0``,
  ``r = C``.
* Message sent by an ET process ``P_S``: ``O_m = O_S + C_S`` (earliest
  completion) and ``J_m = r_S - C_S``.
* TT->ET message: ``O_m`` is the frame's arrival at the gateway MBI (set
  by the static schedule/MEDL) and ``J_m = r_T`` (the gateway transfer
  process moves it into ``Out_CAN``).
* ET->TT message: enters ``Out_TTP`` with jitter ``J'_m = r_m^CAN + r_T``.
* ET process receiving message ``m``: ``J_D = (O_m + r_m) - O_D`` — the
  release jitter equals the message's worst-case arrival relative to the
  receiver's offset (``J_D(m) = r_m`` when offsets coincide, as in the
  paper).

The fixed point is solved by the compiled kernel
(:mod:`repro.analysis.kernel`), which compiles the per-activity
interference structure (who interferes with whom, relative phases,
periods, costs, blocking) once and lets only the jitters evolve across
the outer iterations.  These rules are the one-gateway case of the
per-leg rules of :mod:`repro.analysis.multihop`: the kernel compiles
every system from its routing plan.  This module keeps the public
wrapper and :func:`phase_locked_hits`, the phase-locked interference
count the buffer analysis shares.
"""

from __future__ import annotations

import math
from ..buses.ttp import TTPBusConfig
from ..model.configuration import OffsetTable, PriorityAssignment
from ..system import System
from .kernel import kernel_for
from .timing import ResponseTimes

__all__ = ["response_time_analysis"]


def response_time_analysis(
    system: System,
    offsets: OffsetTable,
    priorities: PriorityAssignment,
    bus: TTPBusConfig,
    faults=None,
) -> ResponseTimes:
    """Run the holistic analysis; see module docstring.

    Since the compiled kernel (:mod:`repro.analysis.kernel`) became the
    hot path this is a thin wrapper: it re-targets the System's
    :class:`~repro.analysis.kernel.AnalysisContext` (compiled on first
    use, :func:`~repro.analysis.kernel.kernel_for`) at the default
    routes and solves once, exactly as
    :func:`~repro.analysis.multihop.multihop_response_time_analysis`
    does on a plan's routes.  The pre-kernel implementation is kept as
    a test oracle (``tests/oracles``) and the parity suite asserts the
    two agree.

    ``faults`` folds a modeled CAN error process into every bus window
    (:func:`repro.analysis.can_analysis.can_error_term`).  Degradation
    factors (slow node / slow bus) are *not* interpreted here: derate
    the ``system`` first (``FaultSpec.derate_system``).
    """
    rho, _ = kernel_for(system, priorities, bus, faults).solve(offsets)
    return rho


def phase_locked_hits(
    window: float,
    own_jitter: float,
    rel: float,
    period: float,
    j_jitter: float,
    j_residency: float,
    is_ancestor: bool,
) -> int:
    """Activations of a phase-locked interferer overlapping a busy window.

    The activity under analysis starts its busy window of length
    ``window`` at ``t in [O_m, O_m + own_jitter]``; the interferer's k-th
    activation arrives at phase ``rel + k*T + [0, j_jitter]`` (relative to
    ``O_m``) and remains present for ``j_residency`` after arrival
    (queueing + service).  The worst-case number of overlapping
    activations is the count of integers ``k`` with

        -(j_jitter + j_residency) <= rel + k*T <= own_jitter + window

    (closed bounds: a simultaneous higher-priority arrival wins
    non-preemptive arbitration, so ties count).

    For *ancestors* of the analysed activity all ``k < 0`` instances are
    excluded: the same-instance execution of an upstream activity
    causally precedes its descendant's activation and has already
    completed — the precedence-aware refinement in the spirit of
    Palencia & Harbour, without which chains would charge themselves
    their own upstream work.
    """
    hi = own_jitter + window
    k_max = math.floor((hi - rel) / period + 1e-9)
    lo = -(j_jitter + j_residency)
    k_min = math.ceil((lo - rel) / period - 1e-9)
    if is_ancestor and k_min < 0:
        k_min = 0
    return max(0, k_max - k_min + 1)
