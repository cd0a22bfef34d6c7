"""Trace records collected by the simulator.

The trace captures exactly the quantities the schedulability analysis
bounds, so the two can be compared mechanically:

* per-process worst observed response time (completion minus the start of
  the owning graph's period instance);
* per-graph worst end-to-end response;
* per-message worst delivery latency;
* peak byte occupancy of every output queue (``Out_Ni``, ``Out_CAN``,
  ``Out_TTP``);
* schedule violations: a TT process dispatched before all of its inputs
  arrived (must never happen if the offsets were synthesized correctly —
  asserting emptiness of this list is one of the strongest end-to-end
  checks in the test suite).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["ScheduleViolation", "SimulationTrace"]


@dataclass(frozen=True)
class ScheduleViolation:
    """A TT process started before one of its inputs was present.

    Beyond the identification fields, the record carries the full causal
    context of the missing message's journey through the platform — as
    far as the simulation had progressed by the dispatch instant — so a
    divergence between analysis and simulation is diagnosable from the
    serialized record alone (CI logs, conformance fixtures):

    * ``producer``/``producer_finish`` — the sending process and when it
      completed (``None``: it had not finished yet);
    * ``can_delivery`` — when the CAN leg delivered the frame to the
      gateway controller (ET->TT messages);
    * ``fifo_entry`` — when the transfer process ``T`` placed the frame
      in the ``Out_TTP`` FIFO;
    * ``gateway_slot_start``/``gateway_slot_end`` — the transfer window
      of the gateway TDMA slot that eventually carried the frame;
    * ``message_arrival`` — when the message finally became available
      (``None``: never, within the simulated horizon);
    * ``consumer_slot_start``/``consumer_slot_end`` — the consumer's
      schedule-table slot that fired too early;
    * ``route`` — the message's route (e.g. ``"ET_TO_TT"``).
    """

    process: str
    instance: int
    dispatch_time: float
    missing_message: str
    producer: Optional[str] = None
    producer_finish: Optional[float] = None
    can_delivery: Optional[float] = None
    fifo_entry: Optional[float] = None
    gateway_slot_start: Optional[float] = None
    gateway_slot_end: Optional[float] = None
    message_arrival: Optional[float] = None
    consumer_slot_start: Optional[float] = None
    consumer_slot_end: Optional[float] = None
    route: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (used by result metadata and fixtures)."""
        return asdict(self)


@dataclass
class SimulationTrace:
    """Aggregated observations of one simulation run."""

    process_response: Dict[str, float] = field(default_factory=dict)
    graph_response: Dict[str, float] = field(default_factory=dict)
    message_latency: Dict[str, float] = field(default_factory=dict)
    queue_peak: Dict[str, float] = field(default_factory=dict)
    violations: List[ScheduleViolation] = field(default_factory=list)
    completed_instances: int = 0
