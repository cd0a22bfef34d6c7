"""Declarative sweep specifications: grids and samples over the design
space.

A :class:`SweepSpec` names *axes* — workload-generator parameters
(:class:`repro.synth.WorkloadSpec` fields), synthesis methods, and
method options (slot-length / SA knobs) — and expands them into a
deterministic list of :class:`Cell` instances, the unit of evaluation,
persistence and resume.  Any value in ``workload`` or ``options`` may
be a list (an axis swept over) or a scalar (held fixed); the cells are
the cartesian product, optionally down-sampled reproducibly.

Every cell has a stable content key (:attr:`Cell.key`) derived from its
*fully resolved* parameters — workload defaults and method-option
defaults included — so a stored result is reused only by a cell that
evaluates the exact same experiment, even across library versions that
change a default.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..exceptions import ConfigurationError
from ..store.store import content_key
from ..synth.workload import WorkloadSpec

__all__ = ["Cell", "SweepSpec", "KNOWN_METHODS", "KNOWN_OPTIONS"]

#: Format tag folded into every cell key: bump to invalidate stored
#: sweep results after an incompatible change to cell semantics.
CELL_FORMAT = "repro-explore-cell-v1"
#: Record tag folded into ``conform`` cell keys only: a conform record
#: carries the whole per-seed outcome (violation dicts, process and
#: message counts), so records stored in the older count-only shape
#: are never served as hits.  Every other key is unchanged.
CONFORM_RECORD = "conform-outcome-v2"

#: The sweepable synthesis methods (the paper's heuristics plus the
#: plain evaluation paths and the conformance probe).
KNOWN_METHODS = (
    "SF", "OS", "OR", "SAS", "SAR", "analysis", "simulation", "conform",
)

#: Method options a spec may set (scalar or axis), with defaults and
#: the methods that consume them.
KNOWN_OPTIONS: Dict[str, Tuple[Any, Tuple[str, ...]]] = {
    # TDMA rounds per graph period of the canonical (HOPA) configuration.
    "rounds_per_period": (10, ("analysis", "simulation", "conform")),
    # Scale factor on the canonical slot durations (slot-length knob).
    "slot_scale": (1.0, ("analysis", "simulation")),
    # Simulated periods for the validation paths.
    "periods": (3, ("simulation", "conform")),
    # Annealing budget and chain seed for the SA baselines.
    "sa_iterations": (120, ("SAS", "SAR")),
    "sa_seed": (0, ("SAS", "SAR")),
    # Slot-capacity candidates explored by OS (and OR/SAR via their OS
    # seed): the paper's full search, trimmed for bounded sweeps.
    "max_capacity_candidates": (None, ("OS", "OR", "SAR")),
    # Seeded fault processes injected into the validation paths: a
    # repro.faults.FaultSpec in dict or canonical-string form (None =
    # fault-free).  Sweeping this axis with increasing severity yields
    # a degradation curve per workload.
    "faults": (None, ("simulation", "conform")),
}

_WORKLOAD_FIELDS = {f.name for f in dataclasses.fields(WorkloadSpec)}


def _axis(value: Any) -> List[Any]:
    """A spec value as an axis: lists sweep, scalars hold fixed."""
    if isinstance(value, (list, tuple)):
        if not value:
            raise ConfigurationError("an empty list is not a sweepable axis")
        return list(value)
    return [value]


def _jsonable(value: Any) -> Any:
    """Reject values that cannot live in a canonical JSON cell key."""
    try:
        json.dumps(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"sweep parameter value {value!r} is not JSON-serializable"
        ) from exc
    return value


@dataclass(frozen=True)
class Cell:
    """One fully resolved experiment: a workload × a method × options."""

    index: int
    method: str
    workload: Dict[str, Any]
    options: Dict[str, Any]

    def workload_spec(self) -> WorkloadSpec:
        """The generator recipe of this cell's workload."""
        return WorkloadSpec(**self.workload)

    def resolved(self) -> Dict[str, Any]:
        """Canonical, default-complete form (the content-key payload)."""
        # Tuples (e.g. message_size_range) canonicalize as lists.  The
        # spec's fields are flat values, so its __dict__ is its asdict().
        full_workload = json.loads(json.dumps(vars(self.workload_spec())))
        # Topology parameters enter the key only off their canonical
        # defaults: a canonical 2-cluster cell has the exact key it had
        # before the topology generalization, so every stored sweep
        # result stays valid without a format bump.
        for name, default in (
            ("clusters", 2), ("gateways", 1), ("route_strategy", "default"),
        ):
            if full_workload.get(name) == default:
                del full_workload[name]
        options = {}
        for name, (default, methods) in KNOWN_OPTIONS.items():
            if self.method in methods:
                options[name] = self.options.get(name, default)
        # The faults option enters the key in its *minimal* normalized
        # form and is omitted entirely when null: a fault-free cell has
        # the exact key it had before fault injection existed, so every
        # stored sweep result stays valid without a format bump.
        faults = options.pop("faults", None)
        if faults is not None:
            from ..faults import FaultSpec

            spec = FaultSpec.coerce(faults)
            if spec is not None:
                options["faults"] = spec.to_dict()
        resolved = {
            "format": CELL_FORMAT,
            "method": self.method,
            "workload": full_workload,
            "options": options,
        }
        if self.method == "conform":
            resolved["record"] = CONFORM_RECORD
        return resolved

    @functools.cached_property
    def key(self) -> str:
        """Content address of this cell in a result store.

        Computed once per cell: the cell dedupe, the dispatch payload
        and the evaluated record all read it.
        """
        return content_key(self.resolved())

    def reindexed(self, index: int) -> "Cell":
        """This cell at another position, its key carried over."""
        cell = dataclasses.replace(self, index=index)
        cell.__dict__["key"] = self.key
        return cell

    def label(self) -> str:
        """Compact human-readable identity for tables and logs."""
        parts = [f"{k}={self.workload[k]}" for k in sorted(self.workload)]
        parts += [f"{k}={self.options[k]}" for k in sorted(self.options)]
        return f"{self.method}({', '.join(parts)})"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "method": self.method,
            "workload": dict(self.workload),
            "options": dict(self.options),
            "key": self.key,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Cell":
        """Rebuild a cell from :meth:`to_dict`; a carried ``key`` is
        taken as computed, not recomputed."""
        cell = cls(
            index=data["index"],
            method=data["method"],
            workload=dict(data["workload"]),
            options=dict(data["options"]),
        )
        if "key" in data:
            cell.__dict__["key"] = data["key"]
        return cell


@dataclass(frozen=True)
class SweepSpec:
    """Parameters of one design-space sweep (see module docstring).

    ``group_by`` names axes whose value combinations partition the
    cells into comparison groups; a Pareto front is tracked per group
    over ``pareto_axes`` (all minimized).  The default axes — degree of
    schedulability, total buffer need, and the evaluation count as the
    deterministic stand-in for wall time — are the paper's Fig. 9
    trade-off; swap ``evaluations`` for ``wall_s`` to rank by measured
    runtime at the cost of run-to-run report determinism.
    """

    name: str = "sweep"
    workload: Mapping[str, Any] = field(default_factory=dict)
    methods: Tuple[str, ...] = ("analysis",)
    options: Mapping[str, Any] = field(default_factory=dict)
    sample: Optional[int] = None
    sample_seed: int = 0
    group_by: Tuple[str, ...] = ()
    pareto_axes: Tuple[str, ...] = ("degree", "total_buffers", "evaluations")

    def __post_init__(self) -> None:
        unknown = set(self.workload) - _WORKLOAD_FIELDS
        if unknown:
            raise ConfigurationError(
                f"unknown workload parameters {sorted(unknown)}; "
                f"WorkloadSpec fields are {sorted(_WORKLOAD_FIELDS)}"
            )
        for method in self.methods:
            if method not in KNOWN_METHODS:
                raise ConfigurationError(
                    f"unknown sweep method {method!r} "
                    f"(known: {', '.join(KNOWN_METHODS)})"
                )
        unknown = set(self.options) - set(KNOWN_OPTIONS)
        if unknown:
            raise ConfigurationError(
                f"unknown sweep options {sorted(unknown)} "
                f"(known: {', '.join(sorted(KNOWN_OPTIONS))})"
            )
        if not self.methods:
            raise ConfigurationError("a sweep needs at least one method")
        for mapping in (self.workload, self.options):
            for value in mapping.values():
                _jsonable(value)

    # -- expansion -----------------------------------------------------------

    def cells(self) -> List[Cell]:
        """The deterministic cell list of this sweep.

        Expansion order: workload axes (sorted by name, values in
        listed order), then option axes, then methods — so cells of one
        workload sit together and methods alternate innermost, which
        keeps per-workload caches (worker-side system generation, OS
        seeding) hot.  ``sample`` keeps a reproducible subset, chosen
        by ``sample_seed``, in original order.
        """
        workload_axes = [
            (name, _axis(self.workload[name]))
            for name in sorted(self.workload)
        ]
        option_axes = [
            (name, _axis(self.options[name]))
            for name in sorted(self.options)
        ]
        combos: List[Tuple[Dict[str, Any], Dict[str, Any], str]] = []

        def expand(axes, chosen, out):
            if not axes:
                out.append(dict(chosen))
                return
            name, values = axes[0]
            for value in values:
                chosen[name] = value
                expand(axes[1:], chosen, out)
            chosen.pop(name, None)

        workload_combos: List[Dict[str, Any]] = []
        expand(workload_axes, {}, workload_combos)
        option_combos: List[Dict[str, Any]] = []
        expand(option_axes, {}, option_combos)
        for workload in workload_combos:
            for options in option_combos:
                for method in self.methods:
                    combos.append((workload, options, method))
        cells = [
            Cell(
                index=index,
                method=method,
                workload=workload,
                # Only the options the method consumes enter the cell:
                # a cell's identity must not vary with knobs that
                # cannot change its outcome.
                options={
                    k: v for k, v in options.items()
                    if method in KNOWN_OPTIONS[k][1]
                },
            )
            for index, (workload, options, method) in enumerate(combos)
        ]
        # The per-method option filter can collapse distinct grid points
        # onto one experiment (an SF cell is the same cell for every
        # value of an OS-only axis): deduplicate by content key so no
        # experiment is evaluated or reported twice.
        seen = set()
        unique: List[Cell] = []
        for cell in cells:
            key = cell.key
            if key not in seen:
                seen.add(key)
                unique.append(cell)
        if len(unique) != len(cells):
            cells = [
                cell.reindexed(index) for index, cell in enumerate(unique)
            ]
        if self.sample is not None and self.sample < len(cells):
            rng = random.Random(self.sample_seed)
            keep = sorted(rng.sample(range(len(cells)), self.sample))
            cells = [
                cells[i].reindexed(rank) for rank, i in enumerate(keep)
            ]
        return cells

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "workload": dict(self.workload),
            "methods": list(self.methods),
            "options": dict(self.options),
            "sample": self.sample,
            "sample_seed": self.sample_seed,
            "group_by": list(self.group_by),
            "pareto_axes": list(self.pareto_axes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        known = {
            "name", "workload", "methods", "options",
            "sample", "sample_seed", "group_by", "pareto_axes",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown sweep-spec fields {sorted(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        kwargs: Dict[str, Any] = {}
        for name in known:
            if name not in data:
                continue
            value = data[name]
            if name in ("methods", "group_by", "pareto_axes"):
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SweepSpec":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def save(self, path: Union[str, Path]) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
