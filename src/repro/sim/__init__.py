"""Discrete-event simulation of the two-cluster platform (validation).

:func:`simulate` runs the compiled kernel
(:mod:`repro.sim.kernel`): a :class:`SimContext` compiles a system's
static timeline once and replays it per run.
"""

from .engine import simulate
from .kernel import SimContext, SimStats
from .trace import ScheduleViolation, SimulationTrace

__all__ = [
    "ScheduleViolation",
    "SimContext",
    "SimStats",
    "SimulationTrace",
    "simulate",
]
