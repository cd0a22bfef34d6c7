"""Design-space moves for the hill climber and the annealers (section 5.1).

The paper's neighborhood consists of four move families:

* moving a TT process or message inside its [ASAP, ALAP] interval —
  realized as an extra start delay recorded in ``config.tt_delays`` and
  honoured by the static scheduler;
* swapping the priorities of two ETC processes (same node) or of two CAN
  messages;
* increasing or decreasing the size of a TDMA slot;
* swapping two slots of the TDMA round.

A :class:`Move` is a small immutable description; ``apply`` produces a new
:class:`SystemConfiguration` (the original is never mutated, so rejected
moves cost nothing).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..api.result import RunResult
from ..model.architecture import MessageRoute
from ..model.configuration import SystemConfiguration
from ..model.validation import minimum_slot_capacity
from ..schedule.asap_alap import slack_of_message
from ..system import System
from .slots import recommended_capacities

__all__ = [
    "Move",
    "SwapSlots",
    "ResizeSlot",
    "SwapProcessPriorities",
    "SwapMessagePriorities",
    "DelayActivity",
    "generate_neighbors",
    "random_move",
]


class Move:
    """Base class: a reversible design transformation on ``ψ``."""

    def apply(self, config: SystemConfiguration) -> SystemConfiguration:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class SwapSlots(Move):
    """Swap the TDMA positions of two slots (keeps per-node sizes)."""

    first: int
    second: int

    def apply(self, config: SystemConfiguration) -> SystemConfiguration:
        new = config.copy()
        slots = list(new.bus.slots)
        slots[self.first], slots[self.second] = (
            slots[self.second],
            slots[self.first],
        )
        new.bus = type(new.bus)(slots)
        return new

    def describe(self) -> str:
        return f"swap TDMA slots #{self.first} and #{self.second}"


@dataclass(frozen=True)
class ResizeSlot(Move):
    """Set the byte capacity (and derived duration) of one node's slot."""

    node: str
    capacity: int

    def apply(self, config: SystemConfiguration) -> SystemConfiguration:
        new = config.copy()
        slots = []
        for slot in new.bus.slots:
            if slot.node == self.node:
                duration = self._duration
                slots.append(
                    type(slot)(
                        node=slot.node,
                        capacity=self.capacity,
                        duration=duration,
                    )
                )
            else:
                slots.append(slot)
        new.bus = type(new.bus)(slots)
        return new

    # Duration is attached at generation time (it needs the TTPBusSpec).
    _duration: float = 0.0

    def describe(self) -> str:
        return f"resize slot of {self.node} to {self.capacity} bytes"


@dataclass(frozen=True)
class SwapProcessPriorities(Move):
    """Swap the priorities of two ETC processes on the same node."""

    first: str
    second: str

    def apply(self, config: SystemConfiguration) -> SystemConfiguration:
        new = config.copy()
        new.priorities.swap_processes(self.first, self.second)
        return new

    def describe(self) -> str:
        return f"swap priorities of processes {self.first}/{self.second}"


@dataclass(frozen=True)
class SwapMessagePriorities(Move):
    """Swap the CAN priorities of two messages."""

    first: str
    second: str

    def apply(self, config: SystemConfiguration) -> SystemConfiguration:
        new = config.copy()
        new.priorities.swap_messages(self.first, self.second)
        return new

    def describe(self) -> str:
        return f"swap priorities of messages {self.first}/{self.second}"


@dataclass(frozen=True)
class DelayActivity(Move):
    """Set the extra schedule delay of a TT process or message.

    ``delay`` is absolute (not incremental); 0 removes the adjustment.
    """

    activity: str
    delay: float

    def apply(self, config: SystemConfiguration) -> SystemConfiguration:
        new = config.copy()
        if self.delay <= 0.0:
            new.tt_delays.pop(self.activity, None)
        else:
            new.tt_delays[self.activity] = self.delay
        return new

    def describe(self) -> str:
        return f"delay {self.activity} by {self.delay:g}"


def _resize_move(system: System, node: str, capacity: int) -> ResizeSlot:
    move = ResizeSlot(node=node, capacity=capacity)
    object.__setattr__(move, "_duration", system.ttp_spec.slot_duration(capacity))
    return move


def _slot_moves(system: System, config: SystemConfiguration) -> List[Move]:
    moves: List[Move] = []
    slot_count = len(config.bus.slots)
    for i in range(slot_count):
        for j in range(i + 1, slot_count):
            moves.append(SwapSlots(i, j))
    for slot in config.bus.slots:
        floor = minimum_slot_capacity(system, slot.node)
        step = max(4, floor // 2)
        candidates = {slot.capacity - step, floor, slot.capacity + step}
        candidates.update(recommended_capacities(system, slot.node))
        for capacity in sorted(candidates):
            if capacity >= floor and capacity != slot.capacity:
                moves.append(_resize_move(system, slot.node, capacity))
    return moves


def _priority_moves(system: System, config: SystemConfiguration) -> List[Move]:
    moves: List[Move] = []
    for node in system.et_nodes_with_processes():
        procs = sorted(
            system.et_processes_on(node),
            key=lambda p: config.priorities.process_priority(p),
        )
        for a, b in zip(procs, procs[1:]):
            moves.append(SwapProcessPriorities(a, b))
    msgs = sorted(
        system.can_messages(),
        key=lambda m: config.priorities.message_priority(m),
    )
    for a, b in zip(msgs, msgs[1:]):
        moves.append(SwapMessagePriorities(a, b))
    return moves


def _delay_moves(
    system: System, config: SystemConfiguration, evaluation: Optional[RunResult]
) -> List[Move]:
    """Delays for TT activities that feed the gateway queues."""
    moves: List[Move] = []
    rho = None
    offsets = config.offsets
    if evaluation is not None and evaluation.analysis is not None:
        rho = evaluation.analysis.rho
        offsets = evaluation.analysis.offsets
    for msg in system.app.all_messages():
        if system.route(msg.name) is not MessageRoute.TT_TO_ET:
            continue
        current = config.tt_delays.get(msg.name, 0.0)
        if current > 0.0:
            moves.append(DelayActivity(msg.name, 0.0))
        if offsets is None:
            continue
        arrival = offsets.message_offsets.get(msg.name, 0.0)
        slack = slack_of_message(system, msg.name, arrival, rho)
        for fraction in (0.25, 0.5):
            delta = slack * fraction
            if delta > 1e-9:
                moves.append(DelayActivity(msg.name, current + delta))
    return moves


def _targeted_spread_moves(
    system: System, config: SystemConfiguration, evaluation: Optional[RunResult]
) -> List[Move]:
    """Delay moves aimed at the actual buffer-bound contributors.

    The ``s_Out^CAN`` bound is dominated by higher-priority TT->ET
    messages whose windows overlap the critical message's queueing delay.
    For each such overlapping pair this proposes the *exact* delay that
    pushes the interferer's phase past the window, making the two
    messages' queue residencies disjoint — the "move a message inside its
    [ASAP, ALAP] interval" move, aimed where it pays.
    """
    if evaluation is None or evaluation.analysis is None:
        return []
    rho = evaluation.analysis.rho
    app = system.app
    members = system.tt_to_et_messages()
    moves: List[Move] = []
    for m in members:
        timing = rho.can.get(m)
        if timing is None or not timing.converged:
            continue
        for j in members:
            if j == m:
                continue
            if (
                config.priorities.message_priority(j)
                > config.priorities.message_priority(m)
            ):
                continue
            other = rho.can.get(j)
            if other is None or not other.converged:
                continue
            period = app.period_of_message(j)
            if period != app.period_of_message(m):
                continue  # not phase-locked; a delay cannot separate them
            rel = (other.offset - timing.offset) % period
            overlap = timing.queuing + other.jitter - rel
            if overlap <= 0:
                continue  # already disjoint
            needed = overlap + 0.5
            # Option 1: push the interferer j later, past m's window.
            slack_j = slack_of_message(system, j, other.offset, rho)
            if needed <= slack_j:
                current = config.tt_delays.get(j, 0.0)
                moves.append(DelayActivity(j, current + needed))
            # Option 2: push m itself later, past j's residency window.
            escape = (
                other.jitter + other.queuing + timing.duration
                - ((timing.offset - other.offset) % period)
                + 0.5
            )
            if escape > 0:
                slack_m = slack_of_message(system, m, timing.offset, rho)
                if escape <= slack_m:
                    current = config.tt_delays.get(m, 0.0)
                    moves.append(DelayActivity(m, current + escape))
    return moves


def generate_neighbors(
    system: System,
    config: SystemConfiguration,
    evaluation: Optional[RunResult] = None,
    rng: Optional[random.Random] = None,
    limit: int = 24,
) -> List[Move]:
    """The GenerateNeighbors of Fig. 7: a bounded, mixed move set.

    Targeted buffer-spread moves (computed from the current analysis) are
    always included; the generic move families fill the remaining budget
    with a reproducible random sample (the paper bounds the neighborhood
    the same way to keep iterations cheap).
    """
    from .routing import route_moves

    targeted = _targeted_spread_moves(system, config, evaluation)
    if len(targeted) > limit:
        rng = rng or random.Random(0)
        targeted = rng.sample(targeted, limit)
    generic = (
        _slot_moves(system, config)
        + _priority_moves(system, config)
        + _delay_moves(system, config, evaluation)
        + route_moves(system, config)
    )
    budget = max(0, limit - len(targeted))
    if len(generic) > budget:
        rng = rng or random.Random(0)
        generic = rng.sample(generic, budget)
    return targeted + generic


def random_move(
    system: System,
    config: SystemConfiguration,
    rng: random.Random,
    evaluation: Optional[RunResult] = None,
) -> Move:
    """One uniformly random move (the annealers' neighbor function).

    Routing moves join the pool only on topologies with actual routing
    freedom (:func:`repro.optim.routing.route_moves` is empty
    otherwise), so canonical annealing runs draw the same sequence as
    before the generalization.
    """
    from .routing import route_moves

    moves = (
        _slot_moves(system, config)
        + _priority_moves(system, config)
        + _delay_moves(system, config, evaluation)
        + route_moves(system, config)
    )
    return rng.choice(moves)
