"""Busy-window primitives of the interpreted reference analyses.

:func:`phase_locked_hits` and :func:`ceil0_hits` are the reference
activation counts.  :func:`_solve_window` iterates one busy-window
equation over name-keyed dicts, recomputing every phase-locked count
through :func:`phase_locked_hits`.  The compiled kernel
(:func:`repro.analysis.kernel._solve_row`) and the buffer bounds
(:mod:`repro.analysis.buffers`) inline the same expressions over index
rows; only the oracles call these.
"""

from __future__ import annotations

import math
from typing import List, Mapping

from repro.analysis.fixed_point import Interferer

_MAX_OUTER_ITERATIONS = 1_000
_MAX_INNER_ITERATIONS = 50_000

def phase_locked_hits(
    window: float,
    own_jitter: float,
    rel: float,
    period: float,
    j_jitter: float,
    j_residency: float,
    is_ancestor: bool,
) -> int:
    """Activations of a phase-locked interferer overlapping a busy window.

    The activity under analysis starts its busy window of length
    ``window`` at ``t in [O_m, O_m + own_jitter]``; the interferer's k-th
    activation arrives at phase ``rel + k*T + [0, j_jitter]`` (relative to
    ``O_m``) and remains present for ``j_residency`` after arrival
    (queueing + service).  The worst-case number of overlapping
    activations is the count of integers ``k`` with

        -(j_jitter + j_residency) <= rel + k*T <= own_jitter + window

    (closed bounds: a simultaneous higher-priority arrival wins
    non-preemptive arbitration, so ties count).

    For *ancestors* of the analysed activity all ``k < 0`` instances are
    excluded: the same-instance execution of an upstream activity
    causally precedes its descendant's activation and has already
    completed — the precedence-aware refinement in the spirit of
    Palencia & Harbour, without which chains would charge themselves
    their own upstream work.
    """
    hi = own_jitter + window
    k_max = math.floor((hi - rel) / period + 1e-9)
    lo = -(j_jitter + j_residency)
    k_min = math.ceil((lo - rel) / period - 1e-9)
    if is_ancestor and k_min < 0:
        k_min = 0
    return max(0, k_max - k_min + 1)


def ceil0_hits(window: float, interferer: Interferer, epsilon: float = 0.0) -> int:
    """Number of activations of ``interferer`` inside ``window``.

    ``ceil0((window + J - O_rel + epsilon) / T)``.  ``epsilon`` breaks the
    simultaneous-release tie for non-preemptive arbitration (a message
    queued at the same instant with higher priority transmits first even
    with zero jitter); the paper's equations omit it, we default it to 0
    and enable it only where soundness requires (see
    :mod:`repro.analysis.can_analysis`).
    """
    x = window + interferer.jitter - interferer.rel_offset + epsilon
    if x <= 0:
        return 0
    return math.ceil(x / interferer.period - 1e-12)


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
