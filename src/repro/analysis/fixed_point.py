"""Interference primitives of the section 4.1 busy-window equations.

Both the process interference equation and the message queueing equations
of section 4.1 have the shape

    w = B + sum over interferers j of ceil0((w + J_j - O_ij) / T_j) * C_j

where ``ceil0(x) = max(0, ceil(x))`` clamps windows that open after the
busy period (the offset-aware clamping of Tindell's analysis, which the
paper builds on).  The compiled kernel (:mod:`repro.analysis.kernel`)
solves these equations; this module keeps the interferer record and the
activation count that the buffer bounds and the CAN error term share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Interferer", "ceil0_hits"]


@dataclass(frozen=True)
class Interferer:
    """One higher-priority activity contributing interference.

    ``rel_offset`` is ``O_ij``, the phase of the interferer relative to the
    activity under analysis (0 when the two are not phase-locked, i.e.
    belong to different process graphs).  ``cost`` is the time (``C_j``) or
    bytes (``s_j``, for buffer bounds) charged per hit.
    """

    jitter: float
    rel_offset: float
    period: float
    cost: float


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
