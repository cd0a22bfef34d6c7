"""Declarative fault specifications: seeded, deterministic, replayable.

A :class:`FaultSpec` is the sibling of :class:`repro.explore.SweepSpec`
for the *fault axis*: one JSON-round-trippable value describing every
fault process injected into a simulation run (and, for the modeled
subset, into the analysis).  The processes are all seeded and
deterministic — the same spec replays the same fault trace on either
simulation engine, which is what makes fault counterexamples shrinkable
and pinnable as fixtures.

Fault processes
---------------

Modeled (the analysis accounts for them, so the dominance contract must
*still hold* under injection):

* ``can_error_interval`` / ``can_error_overhead`` — a periodic CAN
  bus-error process: at most one frame corruption every ``interval``
  time units, each costing ``overhead`` of error signalling before the
  corrupted frame is retransmitted.  The analysis side is the classical
  retransmission term (:func:`repro.analysis.can_analysis.can_error_term`),
  one more interferer in every CAN row of the analysis kernel.
* ``node_slow`` — per-ET-node degradation factors (>= 1): the *limplock*
  scenario, a CPU that is slow rather than dead.  The analysis runs on
  a derated system (WCETs scaled by the factor).
* ``bus_slow`` — a degraded CAN bus (all frame times scaled).

Unmodeled (the dominance contract is *explicitly scoped out*; the
conformance harness still checks determinism and replayability):

* ``exec_jitter`` — sub-WCET execution-time jitter: every job runs for
  ``wcet * (1 - exec_jitter * u)`` with ``u`` a seeded per-job uniform.
* ``babble_period`` / ``babble_size`` / ``babble_priority`` — a
  babbling-idiot node injecting periodic background frames onto the CAN
  bus (gateway-overload scenario).  Phantom frames occupy the bus and
  win arbitration at ``babble_priority`` but are never delivered.

The *null* spec (no fault process active) is behaviourally — and, by
session-level contract, bit-for-bit — identical to not passing a spec
at all: null specs are dropped before any cache or store key is formed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Union

from ..exceptions import ConfigurationError
from ..system import lru_lookup

__all__ = ["FAULT_FORMAT", "FaultSpec", "stable_unit"]

#: Format tag of serialized fault specs.
FAULT_FORMAT = "repro-faultspec-v1"

#: Derated Systems a System keeps (one per modeled fault spec).
_MAX_DERATED = 8


def stable_unit(*parts: Any) -> float:
    """A deterministic uniform in ``[0, 1)`` from hashed identifiers.

    Process-stable (unlike ``hash()``, which is salted per interpreter):
    both simulation engines, every worker process and every replay see
    the same value for the same ``parts`` — the property the
    determinism and parity contracts rest on.
    """
    text = "|".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault scenario (see module docstring)."""

    seed: int = 0
    #: Minimum spacing of CAN bus errors (None = no error process).
    can_error_interval: Optional[float] = None
    #: Error-signalling cost per corruption, before retransmission.
    can_error_overhead: float = 0.0
    #: ET node name -> degradation factor (>= 1.0); the limplock knob.
    node_slow: Mapping[str, float] = field(default_factory=dict)
    #: CAN speed degradation factor (>= 1.0) applied to all frame times.
    bus_slow: float = 1.0
    #: Sub-WCET execution jitter fraction in [0, 1).
    exec_jitter: float = 0.0
    #: Period of babbling-idiot background frames (None = off).
    babble_period: Optional[float] = None
    #: Payload bytes of each babble frame.
    babble_size: int = 8
    #: Arbitration priority of babble frames (lower wins; -1 beats every
    #: legitimately assigned priority — the true babbling idiot).
    babble_priority: int = -1
    #: ET cluster whose CAN bus the idiot babbles on (None = the first
    #: ET cluster in sorted order, which on the canonical two-cluster
    #: topology is *the* CAN bus — the pre-topology behaviour).
    babble_bus: Optional[str] = None

    def __post_init__(self) -> None:
        if self.can_error_interval is not None:
            if self.can_error_interval <= 0:
                raise ConfigurationError(
                    "can_error_interval must be positive"
                )
            if not 0.0 <= self.can_error_overhead < self.can_error_interval:
                raise ConfigurationError(
                    "can_error_overhead must be non-negative and smaller "
                    "than can_error_interval (error recovery must finish "
                    "before the next error can occur)"
                )
        elif self.can_error_overhead:
            raise ConfigurationError(
                "can_error_overhead without can_error_interval"
            )
        for node, factor in dict(self.node_slow).items():
            if not isinstance(node, str):
                raise ConfigurationError(
                    f"node_slow keys must be node names, got {node!r}"
                )
            if not factor >= 1.0:
                raise ConfigurationError(
                    f"node_slow[{node!r}] must be >= 1.0 (got {factor})"
                )
        if not self.bus_slow >= 1.0:
            raise ConfigurationError("bus_slow must be >= 1.0")
        if not 0.0 <= self.exec_jitter < 1.0:
            raise ConfigurationError("exec_jitter must be in [0, 1)")
        if self.babble_period is not None and self.babble_period <= 0:
            raise ConfigurationError("babble_period must be positive")
        if self.babble_size < 1:
            raise ConfigurationError("babble_size must be >= 1 byte")
        if self.babble_bus is not None and self.babble_period is None:
            raise ConfigurationError(
                "babble_bus without babble_period (no babble process)"
            )

    # -- classification ------------------------------------------------------

    @property
    def is_null(self) -> bool:
        """No fault process is active (seed alone activates nothing)."""
        return (
            self.can_error_interval is None
            and not self.node_slow
            and self.bus_slow == 1.0
            and self.exec_jitter == 0.0
            and self.babble_period is None
        )

    @property
    def modeled_only(self) -> bool:
        """Every active fault process is covered by the analysis.

        True means the dominance contract is *in force* under this spec
        (the conformance harness enforces it); False scopes the
        contract out and downgrades conformance to determinism checks.
        """
        return self.exec_jitter == 0.0 and self.babble_period is None

    @property
    def affects_analysis(self) -> bool:
        """The analysis side must be derated / extended for this spec."""
        return (
            self.can_error_interval is not None
            or bool(self.node_slow)
            or self.bus_slow != 1.0
        )

    def analysis_spec(self) -> "FaultSpec":
        """The modeled projection: what the analysis must account for.

        Unmodeled processes (exec jitter, babble) are sub-WCET or
        bus-load-only phenomena the WCET-regime analysis does not see;
        two specs with the same projection share one analysis record.
        """
        return replace(
            self, exec_jitter=0.0, babble_period=None,
            babble_size=FaultSpec.babble_size,
            babble_priority=FaultSpec.babble_priority,
            babble_bus=None,
        )

    # -- derating (the modeled analysis-side view) ---------------------------

    def derate_system(self, system):
        """The analysis view of a degraded platform: a derated System.

        ``node_slow`` scales the WCET of every process mapped on the
        slowed ET node; ``bus_slow`` scales the CAN bit time (and the
        fixed frame time, when set).  TT-side timing is untouched — the
        static schedule's slot grid is a clock domain of its own.  The
        returned system is a fresh object, kept by ``system`` per
        modeled spec (:meth:`analysis_spec`), so repeated evaluations
        share its compiled kernels; the caller's is never mutated.  An
        invalid spec raises on every call.
        """
        if not self.node_slow and self.bus_slow == 1.0:
            return system
        return lru_lookup(
            system._derated, self.analysis_spec().canonical(),
            lambda: self._derate(system), _MAX_DERATED,
        )

    def _derate(self, system):
        from ..io.serialize import system_from_dict, system_to_dict

        self.validate_nodes(system)
        data = system_to_dict(system)
        if self.node_slow:
            for graph in data["application"]["graphs"]:
                for proc in graph["processes"]:
                    factor = self.node_slow.get(proc["node"])
                    if factor is not None:
                        proc["wcet"] = proc["wcet"] * factor
        if self.bus_slow != 1.0:
            can = data["can_spec"]
            can["bit_time"] = can["bit_time"] * self.bus_slow
            if can.get("fixed_frame_time") is not None:
                can["fixed_frame_time"] = (
                    can["fixed_frame_time"] * self.bus_slow
                )
        return system_from_dict(data)

    def validate_nodes(self, system) -> None:
        """Reject slow-node entries that name no (pure) ET node.

        TT processes run in statically scheduled slots — a slowed TT
        node would break the schedule, not degrade it — and the gateway
        transfer budget is a bus-protocol constant, so only the ET
        application nodes are derateable.
        """
        if not self.node_slow:
            return
        et_nodes = set(system.arch.et_node_names())
        gateways = set(system.arch.gateways())
        for node in self.node_slow:
            if node not in et_nodes or node in gateways:
                raise ConfigurationError(
                    f"node_slow names {node!r}, which is not a "
                    "non-gateway ET node (only event-triggered "
                    "application nodes can be derated)"
                )

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Minimal JSON form: only non-default fields travel.

        Minimality is a keying property, not a convenience — two specs
        spelling the same faults must canonicalize to the same string.
        """
        out: Dict[str, Any] = {}
        if self.seed != 0:
            out["seed"] = self.seed
        if self.can_error_interval is not None:
            out["can_error_interval"] = self.can_error_interval
            if self.can_error_overhead:
                out["can_error_overhead"] = self.can_error_overhead
        if self.node_slow:
            out["node_slow"] = {
                node: self.node_slow[node] for node in sorted(self.node_slow)
            }
        if self.bus_slow != 1.0:
            out["bus_slow"] = self.bus_slow
        if self.exec_jitter:
            out["exec_jitter"] = self.exec_jitter
        if self.babble_period is not None:
            out["babble_period"] = self.babble_period
            if self.babble_size != 8:
                out["babble_size"] = self.babble_size
            if self.babble_priority != -1:
                out["babble_priority"] = self.babble_priority
            if self.babble_bus is not None:
                out["babble_bus"] = self.babble_bus
        return out

    def canonical(self) -> str:
        """The canonical string folded into cache/store keys."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault-spec fields {sorted(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        kwargs = dict(data)
        if "node_slow" in kwargs:
            kwargs["node_slow"] = dict(kwargs["node_slow"])
        return cls(**kwargs)

    @classmethod
    def coerce(
        cls, value: Union[None, str, Mapping[str, Any], "FaultSpec"]
    ) -> Optional["FaultSpec"]:
        """A FaultSpec from any accepted spelling; None for null specs.

        Accepts ``None``, an existing spec, a dict, or the canonical
        JSON string (the form the session normalizes options to).  A
        spec with no active fault process normalizes to ``None`` — the
        null-fault bit-identity contract.
        """
        if value is None:
            return None
        if isinstance(value, cls):
            spec = value
        elif isinstance(value, str):
            try:
                data = json.loads(value)
            except ValueError as exc:
                raise ConfigurationError(
                    f"faults string is not valid JSON: {value!r}"
                ) from exc
            if not isinstance(data, dict):
                raise ConfigurationError(
                    "faults JSON must be an object of FaultSpec fields"
                )
            spec = cls.from_dict(data)
        elif isinstance(value, Mapping):
            spec = cls.from_dict(value)
        else:
            raise ConfigurationError(
                f"cannot interpret {type(value).__name__} as a FaultSpec"
            )
        return None if spec.is_null else spec
