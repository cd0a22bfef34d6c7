"""Structural-parity deltas of analysis records.

The shipped fixed point only asks whether offsets moved past a
tolerance (:meth:`repro.model.configuration.OffsetTable.within`); the
parity suites and the kernel benchmark need the size of the largest
difference, so these measures live beside them.
"""

from __future__ import annotations

import math

from repro.analysis.timing import ResponseTimes
from repro.model.configuration import OffsetTable

__all__ = ["offsets_max_abs_delta", "rho_max_abs_delta"]


def offsets_max_abs_delta(mine: OffsetTable, other: OffsetTable) -> float:
    """Largest absolute offset change of ``mine`` against ``other``
    (a key absent on one side counts as offset 0)."""
    deltas = [
        abs(a.get(key, 0.0) - b.get(key, 0.0))
        for a, b in (
            (mine.process_offsets, other.process_offsets),
            (mine.message_offsets, other.message_offsets),
        )
        for key in a.keys() | b.keys()
    ]
    return max([0.0, *deltas])


def rho_max_abs_delta(mine: ResponseTimes, other: ResponseTimes) -> float:
    """Largest absolute per-field difference of two ``ρ`` records.

    Returns 0.0 when the two records are bit-identical, ``math.inf``
    when they differ structurally (key sets, per-leg ``hops`` counts,
    convergence flags, TT arrivals) or one side diverged where the
    other did not.  Per-leg ``hops`` records count like any other
    record, so a difference confined to a non-final leg is not lost.
    The parity tests and benchmarks assert a delta of 0.0.
    """
    pairs = []
    for ours, theirs in (
        (mine.processes, other.processes),
        (mine.can, other.can),
        (mine.ttp, other.ttp),
    ):
        if set(ours) != set(theirs):
            return math.inf
        pairs.extend((timing, theirs[key]) for key, timing in ours.items())
    if set(mine.hops) != set(other.hops):
        return math.inf
    for key, legs in mine.hops.items():
        if len(legs) != len(other.hops[key]):
            return math.inf
        pairs.extend(zip(legs, other.hops[key]))
    if mine.tt_arrival != other.tt_arrival:
        return math.inf
    worst = 0.0
    for timing, against in pairs:
        if timing.converged != against.converged:
            return math.inf
        for a, b in (
            (timing.offset, against.offset),
            (timing.jitter, against.jitter),
            (timing.queuing, against.queuing),
            (timing.duration, against.duration),
        ):
            if math.isinf(a) and math.isinf(b):
                continue
            delta = abs(a - b)
            if delta > worst:
                worst = delta
    return worst
