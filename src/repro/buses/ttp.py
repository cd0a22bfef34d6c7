"""Time-Triggered Protocol (TTP) bus substrate.

Implements the TDMA bus access scheme of section 2.2: each node with a TTP
controller — every TTC node plus the gateway — owns exactly one slot ``Si``
in a TDMA *round*; the sequence of rounds repeats as a *cycle*.  A slot can
carry a *frame* of several messages, limited by the slot's byte capacity.

The slot sequence and sizes constitute the ``β`` part of a system
configuration; this module provides :class:`Slot` and :class:`TTPBusConfig`
(the configuration object itself) plus the timing helpers used by the
analyses: slot start offsets, round length ``T_TDMA``, and the time at
which a frame sent in a given slot of a given round is fully received.

Frame assignment to concrete rounds (the MEDL content) is produced by the
static scheduler (:mod:`repro.schedule.schedule_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..exceptions import ConfigurationError

__all__ = ["TTPBusSpec", "Slot", "TTPBusConfig"]


@dataclass(frozen=True)
class TTPBusSpec:
    """Physical parameters of a TTP bus.

    Converts slot byte capacities into slot durations:
    ``duration = overhead + capacity_bytes * byte_time``.

    Parameters
    ----------
    byte_time:
        Time to transmit one payload byte.
    slot_overhead:
        Per-slot protocol overhead (frame header/CRC, inter-frame gap).
    """

    byte_time: float = 1.0
    slot_overhead: float = 0.0

    def slot_duration(self, capacity_bytes: int) -> float:
        """Duration of a slot carrying up to ``capacity_bytes`` of payload."""
        if capacity_bytes <= 0:
            raise ConfigurationError("slot capacity must be positive")
        return self.slot_overhead + capacity_bytes * self.byte_time


@dataclass(frozen=True)
class Slot:
    """One TDMA slot: owning node, byte capacity and duration.

    ``capacity`` is the ``size_Si`` of the paper (used by the gateway queue
    analysis to decide how many queued bytes drain per round); ``duration``
    is the slot's length on the wire.  They are kept independent so that
    the worked examples of the paper (where durations are given directly in
    milliseconds) can be reproduced exactly.
    """

    node: str
    capacity: int
    duration: float

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError(
                f"slot of {self.node}: capacity must be positive"
            )
        if self.duration <= 0:
            raise ConfigurationError(
                f"slot of {self.node}: duration must be positive"
            )


class TTPBusConfig:
    """The TDMA bus configuration ``β``: an ordered sequence of slots.

    Exactly one slot per node with a TTP controller (TTC nodes + gateway).
    Rounds repeat back-to-back forever starting at time 0.

    Parameters
    ----------
    slots:
        Slot sequence, in transmission order within a round.
    """

    def __init__(self, slots: Sequence[Slot]) -> None:
        if not slots:
            raise ConfigurationError("a TDMA round needs at least one slot")
        owners = [s.node for s in slots]
        if len(set(owners)) != len(owners):
            raise ConfigurationError(
                "a node can own only one slot per TDMA round "
                f"(duplicates in {owners})"
            )
        self.slots: Tuple[Slot, ...] = tuple(slots)
        self._offsets: List[float] = []
        t = 0.0
        for slot in self.slots:
            self._offsets.append(t)
            t += slot.duration
        self._round_length = t
        self._index_of: Dict[str, int] = {
            s.node: i for i, s in enumerate(self.slots)
        }

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.slots == self.slots

    def __hash__(self) -> int:
        return hash(self.slots)

    # -- basic timing -------------------------------------------------------

    @property
    def round_length(self) -> float:
        """``T_TDMA``, the length of one TDMA round."""
        return self._round_length

    def slot_index(self, node: str) -> int:
        """Position of ``node``'s slot within the round (0-based)."""
        try:
            return self._index_of[node]
        except KeyError:
            raise ConfigurationError(
                f"node {node} owns no TDMA slot in this round"
            ) from None

    def slot_of(self, node: str) -> Slot:
        """The slot owned by ``node``."""
        return self.slots[self.slot_index(node)]

    def slot_offset(self, node: str) -> float:
        """Offset ``O_Si`` of ``node``'s slot from the start of a round."""
        return self._offsets[self.slot_index(node)]

    # -- occurrence arithmetic ----------------------------------------------

    def slot_start(self, node: str, round_index: int) -> float:
        """Absolute start time of ``node``'s slot in round ``round_index``."""
        if round_index < 0:
            raise ConfigurationError("round index must be non-negative")
        return round_index * self._round_length + self.slot_offset(node)

    def slot_end(self, node: str, round_index: int) -> float:
        """Absolute end time of ``node``'s slot in round ``round_index``.

        A frame broadcast in this slot is fully received by every node at
        this instant; receiver offsets are constrained by it.
        """
        return self.slot_start(node, round_index) + self.slot_of(node).duration

    def next_slot_start(self, node: str, ready_time: float) -> Tuple[int, float]:
        """First slot of ``node`` starting at or after ``ready_time``.

        Returns ``(round_index, start_time)``.  A frame handed to the TTP
        controller strictly before a slot's start can ride that slot; the
        boundary case (ready exactly at the start) is also allowed, which
        matches the paper's worked example where the kernel prepares the
        frame in the MBI ahead of the slot.
        """
        if ready_time < 0:
            ready_time = 0.0
        offset = self.slot_offset(node)
        rounds_before = (ready_time - offset) / self._round_length
        round_index = int(rounds_before)
        if round_index < rounds_before:
            round_index += 1
        if round_index < 0:
            round_index = 0
        # Guard against floating point: ensure the start is >= ready_time.
        while self.slot_start(node, round_index) < ready_time - 1e-9:
            round_index += 1
        return round_index, self.slot_start(node, round_index)

    def waiting_time(self, node: str, ready_time: float) -> float:
        """Time from ``ready_time`` until the start of ``node``'s next slot.

        This is the blocking term ``B_m`` of the gateway queue analysis
        (section 4.1.2) when ``node`` is the gateway.
        """
        _round, start = self.next_slot_start(node, ready_time)
        return start - ready_time

    def nodes(self) -> List[str]:
        """Slot owners in slot order."""
        return [s.node for s in self.slots]

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{s.node}:{s.capacity}B/{s.duration}" for s in self.slots
        )
        return f"TTPBusConfig([{inner}], T_TDMA={self._round_length})"
