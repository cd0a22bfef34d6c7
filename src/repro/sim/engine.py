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
module is its entry point.

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

__all__ = ["Simulator", "simulate"]

ExecutionModel = Callable[[str, int], float]


class Simulator:
    """Deterministic discrete-event simulation of the platform.

    A thin wrapper over :class:`repro.sim.kernel.SimContext`:
    construction compiles (or adopts) a context, :meth:`run` replays
    it.  The pre-kernel event-by-event engine lives on as a test oracle
    (``tests/oracles``) that the kernel is trace-parity-tested against
    (``tests/test_sim_parity.py``).

    Parameters
    ----------
    system, config:
        The problem instance and a *complete* configuration (offsets are
        taken from ``schedule``).
    schedule:
        The static schedule produced by the multi-cluster loop for
        ``config`` (tables + MEDL).
    periods:
        How many period instances to simulate.
    execution:
        Optional execution-time model ``(process, instance) -> time``;
        defaults to the WCET.  Values must not exceed the WCET.
    context:
        Optional pre-compiled :class:`SimContext` for this
        ``(system, config, schedule)`` triple (a Session passes its
        cached one); compiled here when absent.
    faults:
        Optional :class:`repro.faults.FaultSpec` injected through the
        kernel's dynamic path (see :meth:`SimContext.run`).
    """

    def __init__(
        self,
        system: System,
        config: SystemConfiguration,
        schedule: StaticSchedule,
        periods: int = 4,
        execution: Optional[ExecutionModel] = None,
        context: Optional[SimContext] = None,
        faults=None,
    ) -> None:
        self.system = system
        self.config = config
        self.schedule = schedule
        self.periods = periods
        self.context = (
            context
            if context is not None
            else SimContext(system, config, schedule)
        )
        self._execution = execution
        self._faults = faults

    def run(self) -> SimulationTrace:
        """Execute the simulation and return the trace."""
        return self.context.run(
            periods=self.periods, execution=self._execution,
            faults=self._faults,
        )


def simulate(
    system: System,
    config: SystemConfiguration,
    schedule: StaticSchedule,
    periods: int = 4,
    execution: Optional[ExecutionModel] = None,
    context: Optional[SimContext] = None,
    faults=None,
) -> SimulationTrace:
    """Convenience wrapper around :class:`Simulator` (compiled kernel)."""
    return Simulator(
        system, config, schedule, periods=periods, execution=execution,
        context=context, faults=faults,
    ).run()
