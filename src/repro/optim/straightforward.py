"""The straightforward (SF) baseline configuration of section 6.

SF makes no effort on the bus configuration: nodes are allocated to TDMA
slots in plain ascending name order and each slot is sized to the largest
message its node transmits ("a straightforward ascending order of
allocation of the nodes to the TDMA slots; the slot lengths were selected
to accommodate the largest message sent by the respective node").
Priorities use the same HOPA assignment as the optimized heuristics, so
the SF-vs-OS comparison isolates the bus-access decisions — the subject
of Fig. 9a.  The multi-cluster scheduling algorithm is then run once.

In the paper SF fails to schedule 26 of 150 generated applications and is
the reference point the OS heuristic improves on.
"""

from __future__ import annotations

from ..api.result import RunResult
from ..model.configuration import SystemConfiguration
from ..system import System
from .common import evaluate
from .hopa import hopa_priorities
from .slots import build_bus, default_capacities

__all__ = ["straightforward_configuration", "run_straightforward"]


def straightforward_configuration(system: System) -> SystemConfiguration:
    """Build the SF configuration ``ψ`` (see module docstring)."""
    order = system.arch.ttp_slot_owners()  # ascending, gateway last
    bus = build_bus(system, order, default_capacities(system))
    return SystemConfiguration(bus=bus, priorities=hopa_priorities(system))


def run_straightforward(system: System) -> RunResult:
    """Evaluate the SF baseline."""
    return evaluate(system, straightforward_configuration(system))
