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
wrapper.
"""

from __future__ import annotations

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
