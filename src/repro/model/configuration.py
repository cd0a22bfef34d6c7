"""System configuration ``ψ = <φ, β, π>`` (section 3 of the paper).

A configuration bundles the three synthesis decisions:

* ``φ`` — the *offsets* of every process and message.  On the TTC the
  offsets of processes are their schedule-table start times and the offsets
  of messages encode the MEDL; on the ETC the offsets are earliest-start
  times derived from precedence, used by the offset-aware response-time
  analysis.
* ``β`` — the TDMA bus configuration (slot order and sizes), a
  :class:`repro.buses.ttp.TTPBusConfig`.
* ``π`` — the priorities of the event-triggered processes and of the
  messages transmitted on the CAN bus.

Priorities use the CAN convention: **a smaller value means a higher
priority** (it wins arbitration).  Priority values must be unique within
each arbitration domain (per CPU for processes, bus-wide for messages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..buses.ttp import TTPBusConfig
from ..exceptions import ConfigurationError
from .application import Application
from .architecture import Architecture

__all__ = ["PriorityAssignment", "OffsetTable", "SystemConfiguration"]


class PriorityAssignment:
    """The ``π`` component: priorities for ET processes and CAN messages.

    Two independent maps are kept because processes and messages arbitrate
    in different domains (CPU vs. bus).  Smaller value = higher priority.
    The gateway transfer process ``T`` always has the highest priority on
    the gateway node (section 2.3) and needs no entry.
    """

    def __init__(
        self,
        process_priorities: Optional[Mapping[str, int]] = None,
        message_priorities: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.process_priorities: Dict[str, int] = dict(process_priorities or {})
        self.message_priorities: Dict[str, int] = dict(message_priorities or {})

    def process_priority(self, name: str) -> int:
        """Priority of an ET process (smaller = higher)."""
        try:
            return self.process_priorities[name]
        except KeyError:
            raise ConfigurationError(
                f"no priority assigned to process {name}"
            ) from None

    def message_priority(self, name: str) -> int:
        """Priority of a CAN message (smaller = higher)."""
        try:
            return self.message_priorities[name]
        except KeyError:
            raise ConfigurationError(
                f"no priority assigned to message {name}"
            ) from None

    def __eq__(self, other) -> bool:
        # By value; mutable, so unhashable.
        return type(other) is type(self) and vars(other) == vars(self)

    def swap_processes(self, a: str, b: str) -> None:
        """Swap the priorities of two processes (an OR move)."""
        pa = self.process_priority(a)
        pb = self.process_priority(b)
        self.process_priorities[a] = pb
        self.process_priorities[b] = pa

    def swap_messages(self, a: str, b: str) -> None:
        """Swap the priorities of two messages (an OR move)."""
        pa = self.message_priority(a)
        pb = self.message_priority(b)
        self.message_priorities[a] = pb
        self.message_priorities[b] = pa

    def copy(self) -> "PriorityAssignment":
        """Deep copy, for neighborhood generation."""
        return PriorityAssignment(
            dict(self.process_priorities), dict(self.message_priorities)
        )

    def validate(self, app: Application, arch: Architecture) -> None:
        """Check completeness and uniqueness of the assignment.

        Every process mapped on an ET node (including none on the gateway)
        needs a unique priority among the processes of the same node; every
        message that travels on the CAN bus needs a unique bus-wide
        priority.
        """
        from ..system import System

        System(app, arch).configuration_rules().check_priorities(self)


class OffsetTable:
    """The ``φ`` component: offsets of processes and messages.

    Offsets are measured from the start of the process graph's period
    (section 4).  For a TT process the offset is its start time in the
    schedule table; for an ET process it is the earliest possible
    activation; for a message it is the earliest possible transmission.
    """

    def __init__(
        self,
        process_offsets: Optional[Mapping[str, float]] = None,
        message_offsets: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.process_offsets: Dict[str, float] = dict(process_offsets or {})
        self.message_offsets: Dict[str, float] = dict(message_offsets or {})

    def __eq__(self, other) -> bool:
        # By value; mutable, so unhashable.
        return type(other) is type(self) and vars(other) == vars(self)

    def process_offset(self, name: str) -> float:
        """Offset ``O_i`` of a process."""
        try:
            return self.process_offsets[name]
        except KeyError:
            raise ConfigurationError(f"no offset for process {name}") from None

    def message_offset(self, name: str) -> float:
        """Offset ``O_m`` of a message."""
        try:
            return self.message_offsets[name]
        except KeyError:
            raise ConfigurationError(f"no offset for message {name}") from None

    def copy(self) -> "OffsetTable":
        """Deep copy, for neighborhood generation."""
        return OffsetTable(dict(self.process_offsets), dict(self.message_offsets))

    def _deltas(self, other: "OffsetTable"):
        """Absolute offset changes vs. ``other`` (absent keys count as
        0), skipping tables that are equal outright."""
        for mine, theirs in (
            (self.process_offsets, other.process_offsets),
            (self.message_offsets, other.message_offsets),
        ):
            if mine != theirs:
                for key in mine.keys() | theirs.keys():
                    yield abs(mine.get(key, 0.0) - theirs.get(key, 0.0))

    def within(self, other: "OffsetTable", tolerance: float) -> bool:
        """True when no offset moved by more than ``tolerance`` against
        ``other``: the convergence test of the multi-cluster fixed
        point ("until φ not changed", Fig. 5), stopping at the first
        offset that moved further."""
        return not any(delta > tolerance for delta in self._deltas(other))


@dataclass
class SystemConfiguration:
    """A complete system configuration ``ψ = <φ, β, π>``.

    ``offsets`` may be ``None`` before the first run of the multi-cluster
    scheduling algorithm, which produces them.

    ``tt_delays`` holds the "move a TT process/message inside its
    [ASAP, ALAP] interval" decisions of the OptimizeResources moves
    (section 5.1): a non-negative extra delay, keyed by process or message
    name, that the static list scheduler adds to the activity's earliest
    start.  Keeping the delays in ``ψ`` (rather than patching ``φ``) lets
    the multi-cluster loop re-derive a consistent schedule after each move.
    """

    bus: TTPBusConfig
    priorities: PriorityAssignment
    offsets: Optional[OffsetTable] = None
    tt_delays: Dict[str, float] = field(default_factory=dict)
    #: Per-message gateway routes (the fourth synthesis dimension):
    #: message name -> tuple of gateway names crossed, in order.  An
    #: absent entry means "the topology's default (shortest) route";
    #: an **empty** routes dict is therefore the canonical state and is
    #: omitted from config hashes so every pre-routing hash, store key
    #: and serve address is byte-identical.
    routes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def copy(self) -> "SystemConfiguration":
        """Deep copy, for neighborhood generation in the optimizers."""
        return SystemConfiguration(
            bus=TTPBusConfig(list(self.bus.slots)),
            priorities=self.priorities.copy(),
            offsets=self.offsets.copy() if self.offsets is not None else None,
            tt_delays=dict(self.tt_delays),
            routes={name: tuple(hops) for name, hops in self.routes.items()},
        )
