"""Discrete-event simulator of the two-cluster platform.

Simulates, cycle-accurately at the message/process granularity, the
runtime described in sections 2.2–2.3:

* **TTC nodes** dispatch processes at their schedule-table times each
  period and the TTP controllers broadcast the MEDL frames in their TDMA
  slots;
* **ETC nodes** run preemptive fixed-priority schedulers; completed
  processes enqueue messages in their node's ``Out_Ni`` queue;
* the **CAN bus** transmits, whenever idle, the globally highest-priority
  pending message (non-preemptive once started);
* the **gateway** transfer process ``T`` moves TTC frames from the MBI
  into the priority-ordered ``Out_CAN`` queue (after ``C_T``) and CAN
  deliveries into the FIFO ``Out_TTP`` queue; the gateway's TDMA slot
  drains ``Out_TTP`` front-first up to the slot capacity per round.

The simulator is the reproduction's substitute for the paper's hardware
platform (see DESIGN.md): analysis bounds are validated by dominance over
simulated traces.  It is deterministic; execution times default to the
WCETs (the regime in which the offset-based analysis promises dominance)
and can be scaled per activation for robustness experiments.  The
implementation is the compiled kernel (:mod:`repro.sim.kernel`); this
module's :func:`simulate` is its entry point.

Restrictions (asserted): all graphs share one period, and that period is
an integer multiple of the TDMA round length, so the static schedule and
the TDMA grid tile the timeline consistently.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..model.configuration import SystemConfiguration
from ..schedule.schedule_table import StaticSchedule
from ..system import System
from .kernel import SimContext
from .trace import SimulationTrace

__all__ = ["simulate"]

ExecutionModel = Callable[[str, int], float]


def simulate(
    system: System,
    config: SystemConfiguration,
    schedule: StaticSchedule,
    periods: int = 4,
    execution: Optional[ExecutionModel] = None,
    faults=None,
) -> SimulationTrace:
    """Simulate ``periods`` period instances and return the trace.

    ``config`` is a *complete* configuration (offsets are taken from
    ``schedule``, the static schedule the multi-cluster loop produced
    for it: tables + MEDL).  ``execution`` is an optional execution-time
    model ``(process, instance) -> time`` that defaults to the WCET;
    its values must not exceed the WCET.  ``faults`` is an optional
    :class:`repro.faults.FaultSpec` injected through the kernel's
    dynamic path (see :meth:`SimContext.run`).

    Compiles a :class:`repro.sim.kernel.SimContext` for the triple and
    replays it once; a caller replaying one schedule many times keeps
    the context and calls :meth:`SimContext.run` itself.  The
    pre-kernel event-by-event engine lives on as a test oracle
    (``tests/oracles``) that the kernel is trace-parity-tested against
    (``tests/test_sim_parity.py``).
    """
    return SimContext(system, config, schedule).run(
        periods=periods, execution=execution, faults=faults,
    )
