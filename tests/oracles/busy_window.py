"""Busy-window primitives of the interpreted reference analyses.

:func:`_solve_window` iterates one busy-window equation over name-keyed
dicts, recomputing every phase-locked count through
:func:`repro.analysis.holistic.phase_locked_hits`.  The compiled kernel
(:func:`repro.analysis.kernel._solve_row`) mirrors it operation for
operation over index rows; only the oracles call it.
"""

from __future__ import annotations

import math
from typing import List, Mapping

from repro.analysis.holistic import phase_locked_hits

_MAX_OUTER_ITERATIONS = 1_000
_MAX_INNER_ITERATIONS = 50_000


def _solve_window(
    base: float,
    own_jitter: float,
    names: List[str],
    rels: List[float],
    periods: List[float],
    costs: List[float],
    locked: List[bool],
    ancestor: List[bool],
    jitters: Mapping[str, float],
    residencies: Mapping[str, float],
    epsilon: float,
    bound: float,
) -> float:
    """Least fixed point of the busy-window equation.

    Phase-locked interferers are counted with :func:`phase_locked_hits`
    (offset-, jitter- and residency-aware); unlocked interferers use the
    classic ``ceil((w + J_j)/T_j)`` criterion with the non-preemptive tie
    epsilon.  Returns ``math.inf`` on divergence.
    """
    if not names:
        return base
    if (
        math.isinf(base)
        or math.isinf(own_jitter)
        or any(math.isinf(jitters[n]) for n in names)
    ):
        return math.inf
    w = base
    for _ in range(_MAX_INNER_ITERATIONS):
        total = base
        for i in range(len(names)):
            j = names[i]
            if locked[i]:
                n = phase_locked_hits(
                    w,
                    own_jitter,
                    rels[i],
                    periods[i],
                    jitters[j],
                    residencies.get(j, 0.0),
                    ancestor[i],
                )
            else:
                x = w + jitters[j] + epsilon
                n = math.ceil(x / periods[i] - 1e-12) if x > 0 else 0
            total += n * costs[i]
        if total == w:
            return w
        if total > bound or math.isinf(total):
            return math.inf
        w = total
    return math.inf


def _rel_offset(offset_j: float, offset_i: float, period: float, locked: bool) -> float:
    """Phase of activity j relative to i (0 when not phase-locked)."""
    if not locked:
        return 0.0
    return (offset_j - offset_i) % period
