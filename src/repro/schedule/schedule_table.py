"""Schedule-table and MEDL artifacts produced by the static scheduler.

On a TTC the kernel of every node activates processes from a local
*schedule table* and the TTP controller transmits frames according to its
*message descriptor list* (MEDL) — section 2.3.  This module holds the
concrete artifacts:

* :class:`ScheduleEntry` — one row of a node's schedule table;
* :class:`FrameSlot` — the contents of one node's TDMA slot in one round
  (several messages may be packed into the frame, bounded by the slot's
  byte capacity);
* :class:`StaticSchedule` — everything together, plus the offset table
  ``φ`` consumed by the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..model.configuration import OffsetTable

__all__ = ["ScheduleEntry", "FrameSlot", "StaticSchedule"]


@dataclass(frozen=True)
class ScheduleEntry:
    """One activation in a node's schedule table."""

    process: str
    start: float
    end: float


@dataclass
class FrameSlot:
    """The frame transmitted by ``node`` in round ``round_index``.

    ``messages`` lists the packed message names in packing order;
    ``used_bytes`` tracks the consumed capacity.
    """

    node: str
    round_index: int
    start: float
    end: float
    capacity: int
    messages: List[str] = field(default_factory=list)
    used_bytes: int = 0

    @property
    def free_bytes(self) -> int:
        """Remaining payload capacity of the frame."""
        return self.capacity - self.used_bytes


@dataclass
class StaticSchedule:
    """Full output of the static scheduling step (the ``φ`` of Fig. 5).

    ``offsets`` is the offset table fed to the response-time analysis.
    ``tables`` maps each TT node to its schedule-table rows (sorted by
    start time).  ``medl`` maps ``(node, round_index)`` to the frame
    transmitted there; only rounds that carry statically scheduled
    messages appear.  ``message_arrival`` gives, for every statically
    routed message (TT->TT and the TTP leg of TT->ET), the absolute time
    the frame is fully received.
    """

    offsets: OffsetTable
    tables: Dict[str, List[ScheduleEntry]]
    medl: Dict[Tuple[str, int], FrameSlot]
    message_arrival: Dict[str, float]
    makespan: float = 0.0

    def table_of(self, node: str) -> List[ScheduleEntry]:
        """Schedule table of one node (empty if the node runs no process)."""
        return self.tables.get(node, [])

    def frame_of(self, msg_name: str) -> Optional[FrameSlot]:
        """The frame carrying a statically scheduled message, if any."""
        for frame in self.medl.values():
            if msg_name in frame.messages:
                return frame
        return None
