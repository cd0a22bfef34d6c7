"""The ``MultiClusterScheduling`` algorithm (Fig. 5).

Alternates static scheduling of the TTC (offsets ``φ``) with holistic
response-time analysis of the ETC (response times ``ρ``) until the offsets
stop changing:

1. assign initial offsets by static scheduling *without* ETC influence;
2. ``ρ = ResponseTimeAnalysis(Γ, φ, π)``;
3. ``φ = StaticScheduling(Γ, ρ, β)`` — TT processes that consume ET->TT
   messages are pushed after the messages' worst-case arrivals;
4. repeat from 2 until ``φ`` is unchanged.

Termination is guaranteed when processor and bus loads are below 100% and
deadlines do not exceed periods (section 4); an iteration cap converts
pathological cases into a non-converged result instead of a hang.

The analysis runs on the compiled kernel
(:class:`repro.analysis.kernel.AnalysisContext`) the System caches for
the modeled fault spec: the interference structure is compiled once per
System and re-targeted incrementally at each call's ``(π, β)``.  Every
pass solves from zero jitter; within a pass each busy-window
equation is warm-started from the previous outer iteration, which is
exact (see :mod:`repro.analysis.kernel`).  A pass packages only the
gateway FIFO records the next schedule reads; the full ``ρ`` is packaged
once, from the last pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..buses.ttp import TTPBusConfig
from ..model.configuration import OffsetTable, PriorityAssignment
from ..schedule.list_scheduler import static_schedule
from ..schedule.schedule_table import StaticSchedule
from ..semantics import ratchet_arrival_floors
from ..system import System
from .kernel import kernel_for
from .timing import ResponseTimes

__all__ = ["MultiClusterResult", "multi_cluster_scheduling"]

#: Offsets are compared with this tolerance when testing the fixed point.
_OFFSET_TOLERANCE = 1e-9


@dataclass
class MultiClusterResult:
    """Output of the multi-cluster scheduling loop.

    ``offsets``/``rho`` are the paper's ``φ``/``ρ``; ``schedule`` carries
    the concrete schedule tables and MEDL behind ``φ``.  ``converged`` is
    False when the loop hit its iteration cap with offsets still moving
    (treated as unschedulable by the optimizers).  ``iterations`` is the
    *true* number of analysis passes performed — when the cap is hit it
    reads ``max_iterations + 1``, not a value clamped to the cap, so
    memoized results stay honest about the work done.
    """

    offsets: OffsetTable
    rho: ResponseTimes
    schedule: StaticSchedule
    iterations: int
    converged: bool


def multi_cluster_scheduling(
    system: System,
    bus: TTPBusConfig,
    priorities: PriorityAssignment,
    tt_delays: Optional[Mapping[str, float]] = None,
    max_iterations: int = 30,
    faults=None,
    routes: Optional[Mapping[str, tuple]] = None,
) -> MultiClusterResult:
    """Run the fixed-point loop of Fig. 5; see module docstring.

    The ET->TT arrival constraints are ratcheted monotonically (a message's
    schedule-table constraint never decreases between iterations).  This
    damping removes the limit cycles a literal re-derivation can fall into
    — when an offset shift moves a frame to an earlier TDMA round, which
    shifts the offset back — while preserving soundness: a larger arrival
    bound only delays TT consumers further.

    The System's kernel is re-targeted at ``(π, β)`` incrementally; the
    results equal a fresh compile bit for bit.

    ``faults`` adds a modeled CAN error process to every bus window;
    slow-node/slow-bus degradation must already be derated into
    ``system`` (the :class:`repro.api.backends.AnalysisBackend` does
    both).
    """
    kernel = kernel_for(system, priorities, bus, faults, routes)
    routing = system.routing_for(routes)
    schedule = static_schedule(
        system, bus, rho=None, tt_delays=tt_delays, routing=routing
    )
    offsets = schedule.offsets
    # Between passes the loop reads only ρ.ttp (the ET->TT arrivals);
    # the full ρ is packaged once, from the last pass.
    rho, state = kernel.solve(offsets, ttp_only=True)
    iterations = 1
    converged = False
    floors: dict = {}
    while iterations <= max_iterations:
        ratchet_arrival_floors(floors, rho)
        new_schedule = static_schedule(
            system,
            bus,
            rho=rho,
            tt_delays=tt_delays,
            arrival_floors=floors,
            routing=routing,
        )
        if new_schedule.offsets.within(offsets, _OFFSET_TOLERANCE):
            converged = True
            break
        schedule = new_schedule
        offsets = new_schedule.offsets
        rho, state = kernel.solve(offsets, ttp_only=True)
        iterations += 1
    return MultiClusterResult(
        offsets=offsets,
        rho=kernel.package(state),
        schedule=schedule,
        iterations=iterations,
        converged=converged,
    )
