"""Replayable conformance fixtures.

A fixture pins one (workload, configuration) pair together with the
violations observed when it was captured, in the plain-JSON formats of
:mod:`repro.io.serialize` — diffable, editable, and replayable years
later without the generator that produced it.  Two uses:

* campaign counterexamples (shrunk before persisting) uploaded as CI
  artifacts;
* permanent regression pins under ``tests/fixtures/`` (e.g. the
  seed=1654 gateway divergence), asserting that a once-broken scenario
  stays fixed — verdict *and* dispatch times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..io.serialize import (
    config_from_dict,
    config_to_dict,
    system_from_dict,
    system_to_dict,
)
from ..model.configuration import SystemConfiguration
from ..system import System
from .classify import ConformanceViolation, classify_run

__all__ = ["Fixture", "load_fixture", "replay_fixture", "save_fixture"]

_FORMAT = "repro-conformance-fixture-v1"


@dataclass
class Fixture:
    """One loaded conformance fixture."""

    system: System
    config: SystemConfiguration
    #: Violations observed when the fixture was captured (empty for a
    #: regression pin of a *fixed* scenario).
    expected_violations: List[ConformanceViolation] = field(
        default_factory=list
    )
    meta: Dict[str, Any] = field(default_factory=dict)


def save_fixture(
    path: Union[str, Path],
    system: System,
    config: SystemConfiguration,
    violations: List[ConformanceViolation],
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Persist a fixture (see module docstring)."""
    payload = {
        "format": _FORMAT,
        "system": system_to_dict(system),
        "config": config_to_dict(config),
        "violations": [v.to_dict() for v in violations],
        "meta": dict(meta or {}),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_fixture(path: Union[str, Path]) -> Fixture:
    """Load a fixture written by :func:`save_fixture`."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != _FORMAT:
        raise ValueError(
            f"{path}: not a conformance fixture (format "
            f"{data.get('format')!r})"
        )
    return Fixture(
        system=system_from_dict(data["system"]),
        config=config_from_dict(data["config"]),
        expected_violations=[
            ConformanceViolation.from_dict(v) for v in data["violations"]
        ],
        meta=dict(data.get("meta", {})),
    )


def replay_fixture(
    path: Union[str, Path], periods: Optional[int] = None
) -> Tuple["Fixture", Any, List[ConformanceViolation]]:
    """Re-run a fixture end to end.

    Returns ``(fixture, run, violations)``: the loaded fixture, the
    fresh ``"simulation"`` :class:`repro.api.result.RunResult`, and the
    violations classified *now* — to be compared against
    ``fixture.expected_violations`` (a regression pin expects an empty
    list).  ``periods`` defaults to the value recorded in the fixture's
    metadata (falling back to 3).

    Raises :class:`repro.exceptions.ReproError` when the fixture cannot
    even be evaluated (analysis or simulation error): an infeasible
    replay exercised nothing, so returning the empty violation list a
    passing regression pin expects would be a silent false-clean.

    A fixture captured under fault injection records the spec in
    ``meta["faults"]``; the replay re-injects exactly those seeded fault
    processes, so fault-found counterexamples reproduce bit for bit.
    """
    from ..api.session import Session
    from ..exceptions import ReproError

    fixture = load_fixture(path)
    if periods is None:
        periods = int(fixture.meta.get("periods", 3))
    session = Session(fixture.system)
    faults = fixture.meta.get("faults")
    run = session.simulate(fixture.config, periods=periods, faults=faults)
    if not run.feasible:
        raise ReproError(
            f"conformance fixture {path} no longer evaluates: {run.error}"
        )
    from ..faults import FaultSpec

    fault_spec = FaultSpec.coerce(faults)
    if fault_spec is not None and not fault_spec.modeled_only:
        # Unmodeled-fault fixture (a pinned nondeterminism scenario):
        # re-check the same property the campaign checked — two
        # replays of the seeded spec must agree bit for bit.  The
        # second run bypasses the memo tiers, otherwise it would be
        # the cached first run comparing equal to itself; its fresh
        # analysis pass yields a new schedule object, so its replay
        # template is compiled anew too.
        from .classify import determinism_violations

        second = session.simulate(
            fixture.config, periods=periods, faults=faults, memoize=False
        )
        if not second.feasible:
            raise ReproError(
                f"conformance fixture {path} no longer evaluates: "
                f"{second.error}"
            )
        return fixture, run, determinism_violations(run, second)
    return fixture, run, classify_run(run)
