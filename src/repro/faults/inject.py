"""Runtime fault state of a simulation run.

A :class:`FaultRuntime` is instantiated once per simulation run from a
:class:`~repro.faults.spec.FaultSpec` and consumed *sequentially* by the
compiled simulation kernel: the CAN bus is a single serial resource, so
transmissions start in one global order and the error-process pointer
advances monotonically.  The pre-kernel event simulator kept as the
parity oracle (``tests/oracles``) serializes bus activity the same way
and consumes the same object (and the seeded ``stable_unit`` stream),
which is what makes fault traces bit-for-bit comparable.
"""

from __future__ import annotations

from typing import List, Optional

from ..exceptions import ConfigurationError
from .spec import FaultSpec, stable_unit

__all__ = ["FaultRuntime"]


class FaultRuntime:
    """Mutable per-run fault processes derived from a :class:`FaultSpec`.

    Holds the CAN error-instant pointer, pre-derived per-node speed
    factors, the babble frame geometry, and injection counters that the
    engines surface as run metadata.
    """

    __slots__ = (
        "spec",
        "bus_factor",
        "node_factor",
        "babble_frame_time",
        "can_errors",
        "babble_frames",
        "_err_interval",
        "_err_overhead",
        "_next_err",
    )

    def __init__(self, spec: FaultSpec, system) -> None:
        self.spec = spec
        self.bus_factor = spec.bus_slow
        self.node_factor = dict(spec.node_slow)
        if self.node_factor:
            spec.validate_nodes(system)
        self.can_errors = 0
        self.babble_frames = 0
        self._err_interval: Optional[float] = spec.can_error_interval
        self._err_overhead = spec.can_error_overhead
        if self._err_interval is not None:
            # Seeded phase in [0, interval): the first error instant.
            # Full-entropy hash phase — never exactly on a schedule grid
            # point, so engine tie-break rules are never exercised by
            # the error process itself.
            self._next_err = (
                stable_unit(spec.seed, "can-error") * self._err_interval
            )
        else:
            self._next_err = 0.0
        if spec.babble_period is not None:
            self.babble_frame_time = (
                system.can_spec.frame_time(spec.babble_size) * self.bus_factor
            )
        else:
            self.babble_frame_time = 0.0
        if self._err_interval is not None:
            # A frame whose wire time exceeds ``interval - overhead`` is
            # corrupted by *every* retransmission attempt and never
            # completes — the simulated bus would livelock.  The
            # analysis side diverges on such specs (unschedulable); the
            # simulator must reject them up front instead of hanging.
            wire_times = [
                system.can_frame_time(name) * self.bus_factor
                for name in system.can_messages()
            ]
            wire_times.append(self.babble_frame_time)
            longest = max(wire_times)
            budget = self._err_interval - self._err_overhead
            if longest > budget:
                raise ConfigurationError(
                    "CAN error process denser than the longest frame: "
                    f"wire time {longest:.6g} exceeds interval - overhead "
                    f"= {budget:.6g}; no such frame could ever complete"
                )

    # -- per-node degradation ----------------------------------------------

    def speed(self, node: str) -> float:
        """Execution-time multiplier of one node (1.0 = healthy)."""
        return self.node_factor.get(node, 1.0)

    # -- the CAN error process ----------------------------------------------

    def can_span(self, start: float, duration: float) -> float:
        """Wire time of a frame starting at ``start``, with errors.

        The error process corrupts the frame being transmitted at each
        error instant; the controller signals the error (``overhead``)
        and immediately retransmits.  Error instants that fall on an
        idle bus are consumed without effect.  Returns the total bus
        occupancy (>= ``duration``); ``overhead < interval`` guarantees
        each retransmission outruns the next error, so this terminates.
        """
        if self._err_interval is None:
            return duration
        while self._next_err < start:
            self._next_err += self._err_interval  # idle-bus error
        t = start
        while self._next_err < t + duration:
            t = self._next_err + self._err_overhead
            self._next_err += self._err_interval
            self.can_errors += 1
        return (t + duration) - start

    # -- the babbling idiot --------------------------------------------------

    def babble_times(self, horizon: float) -> List[float]:
        """Queueing instants of all babble frames up to ``horizon``.

        Seeded phase in ``(0, period)``: a full-entropy hash offset, so
        babble instants never coincide exactly with schedule grid
        points and cross-engine tie-breaking stays untested territory.
        """
        period = self.spec.babble_period
        if period is None:
            return []
        t = stable_unit(self.spec.seed, "babble") * period
        out = []
        while t <= horizon:
            out.append(t)
            t += period
        return out

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """Injection counters for run metadata."""
        return {
            "can_errors": self.can_errors,
            "babble_frames": self.babble_frames,
        }
