"""ASCII Gantt rendering of static schedules and TDMA rounds.

Turns a :class:`repro.schedule.StaticSchedule` into the kind of timeline
the paper draws in Fig. 4: one row per TT node's schedule table, one row
per bus showing the TDMA slot grid and the frames that carry messages.
Purely presentational — handy in examples, docs and debugging sessions.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..buses.ttp import TTPBusConfig
from ..schedule.schedule_table import StaticSchedule
from ..system import System

__all__ = ["render_schedule"]


def _scale(t: float, width: int, horizon: float) -> int:
    return min(width - 1, max(0, int(round(t / horizon * (width - 1)))))


def _paint(row: List[str], start: float, end: float, label: str,
           width: int, horizon: float) -> None:
    a = _scale(start, width, horizon)
    b = max(a + 1, _scale(end, width, horizon))
    for i in range(a, b):
        row[i] = "#"
    for i, ch in enumerate(label[: b - a]):
        row[a + i] = ch


def render_schedule(
    system: System,
    schedule: StaticSchedule,
    bus: TTPBusConfig,
    width: int = 72,
    horizon: Optional[float] = None,
) -> str:
    """Render schedule tables and the TDMA grid as ASCII rows.

    ``horizon`` defaults to the schedule makespan rounded up to a whole
    TDMA round.
    """
    if horizon is None:
        makespan = max(schedule.makespan, bus.round_length)
        rounds = math.ceil(makespan / bus.round_length)
        horizon = rounds * bus.round_length
    lines: List[str] = []
    header = f"0{' ' * (width - len(str(horizon)) - 1)}{horizon:g}"
    lines.append(f"{'time':>10} |{header}|")

    for node in sorted(schedule.tables):
        row = ["."] * width
        for entry in schedule.tables[node]:
            _paint(row, entry.start, entry.end, entry.process, width, horizon)
        lines.append(f"{node:>10} |{''.join(row)}|")

    # TDMA grid: slot boundaries plus the frames that carry messages.
    grid = ["."] * width
    rounds = int(math.ceil(horizon / bus.round_length))
    for round_index in range(rounds):
        for slot in bus.slots:
            start = bus.slot_start(slot.node, round_index)
            if start >= horizon:
                continue
            grid[_scale(start, width, horizon)] = "|"
    lines.append(f"{'TTP grid':>10} |{''.join(grid)}|")
    frames = ["."] * width
    for (node, _round), frame in sorted(schedule.medl.items()):
        if not frame.messages or frame.start >= horizon:
            continue
        label = ",".join(frame.messages)
        _paint(frames, frame.start, frame.end, label, width, horizon)
    lines.append(f"{'frames':>10} |{''.join(frames)}|")
    return "\n".join(lines)
