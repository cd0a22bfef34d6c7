"""Interference primitives of the section 4.1 busy-window equations.

Both the process interference equation and the message queueing equations
of section 4.1 have the shape

    w = B + sum over interferers j of ceil0((w + J_j - O_ij) / T_j) * C_j

where ``ceil0(x) = max(0, ceil(x))`` clamps windows that open after the
busy period (the offset-aware clamping of Tindell's analysis, which the
paper builds on).  The compiled kernel (:mod:`repro.analysis.kernel`)
solves these equations; this module keeps the interferer record of the
CAN error term.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Interferer"]


@dataclass(frozen=True)
class Interferer:
    """One higher-priority activity contributing interference.

    ``rel_offset`` is ``O_ij``, the phase of the interferer relative to the
    activity under analysis (0 when the two are not phase-locked, i.e.
    belong to different process graphs).  ``cost`` is the time (``C_j``)
    charged per hit.
    """

    jitter: float
    rel_offset: float
    period: float
    cost: float
