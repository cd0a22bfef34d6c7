"""The conformance campaign: fuzz the dominance contract at scale.

A campaign sweeps ``N`` seeded random workloads (the paper's generator,
:func:`repro.synth.workload.generate_workload`, at a size chosen for
throughput) through analysis *and* simulation, classifies every breach
of the dominance contract, shrinks counterexamples to minimal graphs and
persists them as replayable fixtures.  Per seed:

1. generate the workload (the seed also varies utilization and the
   inter-cluster message count, so campaigns cover light and congested
   gateways alike);
2. build the canonical configuration — HOPA priorities plus a TDMA round
   aligned to the graph period (:func:`conformance_configuration`);
3. run the ``"simulation"`` backend through a
   :class:`repro.api.Session` (memoization off — every seed is a fresh
   system evaluated once), which performs the analysis pass, replays
   the schedule tables on the compiled simulation kernel and reports
   both sides in one record;
4. classify (:func:`repro.conformance.classify.classify_run`).

Schedulable-and-converged verdicts are the contract's domain — the
dominance promise of the paper holds in the WCET regime for schedulable
systems — so unschedulable/non-converged seeds count as covered but are
not simulated.

A campaign is a sweep: :meth:`CampaignSpec.cells` expands it into one
``conform`` cell per seed, which :func:`repro.explore.engine.run_sweep`
(locally) or ``repro serve`` (through ``POST /sweep``) evaluates with
the one cell evaluator, :func:`repro.explore.engine.evaluate_cell`.
The per-seed outcome is the cell record; :class:`CampaignReport` is
built over the records, and violating seeds are shrunk and pinned as
fixtures by the caller once the cells finish
(:func:`campaign_report`).  Serial, ``--workers N`` and served runs of
one spec therefore produce identical outcome sequences and identical
shrunk counterexamples.  Every seed records per-phase timings,
aggregated into ``CampaignReport.profile`` (events/s, seeds/s;
``repro conform --profile``).
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..api.session import Session
from ..buses.ttp import Slot, TTPBusConfig
from ..exceptions import ConfigurationError
from ..model.configuration import SystemConfiguration
from ..optim.hopa import hopa_priorities
from ..optim.slots import default_capacities
from ..faults import FaultSpec
from ..synth.workload import WorkloadSpec, generate_workload
from ..system import System
from .classify import (
    ConformanceViolation,
    classify_run,
    determinism_violations,
)

__all__ = [
    "CampaignReport",
    "CampaignSpec",
    "SeedOutcome",
    "campaign_report",
    "conformance_configuration",
    "evaluate_workload",
    "run_campaign",
    "seed_configuration",
]


@dataclass(frozen=True)
class CampaignSpec:
    """Parameters of one conformance campaign.

    ``campaign`` workloads are generated from seeds ``seed0 ..
    seed0+campaign-1``.  The workload size is deliberately small (a few
    dozen processes): the contract is about *semantics*, which small
    systems with a busy gateway probe far faster than the paper's
    400-process experiments — and a campaign must be able to afford
    thousands of seeds.  Per-seed, the target utilization and the
    gateway message count are varied deterministically so the sweep
    covers both idle and congested gateways.
    """

    campaign: int = 100
    seed0: int = 0
    workers: int = 1
    periods: int = 3
    nodes: int = 2
    processes_per_node: int = 8
    rounds_per_period: int = 10
    utilizations: Tuple[float, ...] = (0.2, 0.35, 0.5)
    gateway_messages: Tuple[int, ...] = (2, 4, 8)
    shrink: bool = True
    fixture_dir: Optional[str] = None
    #: Optional fault spec injected into every seed, normalized to the
    #: canonical JSON string of :meth:`repro.faults.FaultSpec.canonical`
    #: (``None`` = fault-free).  A *modeled-only* spec keeps the full
    #: dominance classification (the analysis bounds absorb the modeled
    #: faults, so dominance must still hold); a spec with unmodeled
    #: processes switches the campaign to the determinism check.
    faults: Optional[str] = None
    #: Topology axes (PR 8): cluster count, gateway count and the
    #: seeded route strategy of every generated workload.  The defaults
    #: are the canonical 2-cluster shape, so pre-topology campaigns are
    #: byte-identical.  A non-default ``route_strategy`` seeds per-seed
    #: route overrides and fits the TDMA slots to them, and the
    #: dominance contract is then asserted per hop of every overridden
    #: route (the analysis bounds each gateway's queues individually).
    clusters: int = 2
    gateways: int = 1
    route_strategy: str = "default"

    def __post_init__(self) -> None:
        spec = FaultSpec.coerce(self.faults)
        object.__setattr__(
            self, "faults", None if spec is None else spec.canonical()
        )

    def fault_spec(self) -> Optional[FaultSpec]:
        """The campaign's parsed fault spec (``None`` = fault-free)."""
        return FaultSpec.coerce(self.faults)

    def workload_spec(self, seed: int) -> WorkloadSpec:
        """The deterministic workload recipe of one seed."""
        return WorkloadSpec(
            nodes=self.nodes,
            processes_per_node=self.processes_per_node,
            target_utilization=self.utilizations[seed % len(self.utilizations)],
            gateway_messages=self.gateway_messages[
                (seed // len(self.utilizations)) % len(self.gateway_messages)
            ],
            graph_size_range=(3, max(4, self.processes_per_node)),
            seed=seed,
            clusters=self.clusters,
            gateways=self.gateways,
            route_strategy=self.route_strategy,
        )

    def cells(self) -> List[Any]:
        """One ``conform`` sweep cell per seed, in seed order.

        Each cell's workload is the seed's :meth:`workload_spec` fields
        (``Cell.workload_spec()`` rebuilds it exactly); its options are
        the ones that decide the outcome.  ``workers``, ``shrink`` and
        ``fixture_dir`` stay out: they decide where a seed runs and
        what the caller does with a violation, never the record.
        """
        from ..explore.spec import Cell

        options = {
            "periods": self.periods,
            "rounds_per_period": self.rounds_per_period,
            "faults": self.faults,
        }
        return [
            Cell(
                index=index,
                method="conform",
                workload=dict(vars(self.workload_spec(seed))),
                options=dict(options),
            )
            for index, seed in enumerate(
                range(self.seed0, self.seed0 + self.campaign)
            )
        ]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (how a campaign travels to a server)."""
        return {
            "campaign": self.campaign,
            "seed0": self.seed0,
            "workers": self.workers,
            "periods": self.periods,
            "nodes": self.nodes,
            "processes_per_node": self.processes_per_node,
            "rounds_per_period": self.rounds_per_period,
            "utilizations": list(self.utilizations),
            "gateway_messages": list(self.gateway_messages),
            "shrink": self.shrink,
            "fixture_dir": self.fixture_dir,
            "faults": self.faults,
            "clusters": self.clusters,
            "gateways": self.gateways,
            "route_strategy": self.route_strategy,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        kwargs = dict(data)
        # Campaigns once carried a simulation-engine choice; the
        # compiled kernel is now the only engine.  Dicts naming it
        # still load, anything else is refused rather than ignored.
        named = kwargs.pop("engine", "kernel")
        if named != "kernel":
            raise ConfigurationError(
                f"unknown simulation engine {named!r}: the compiled "
                "kernel is the only engine"
            )
        if "utilizations" in kwargs:
            kwargs["utilizations"] = tuple(kwargs["utilizations"])
        if "gateway_messages" in kwargs:
            kwargs["gateway_messages"] = tuple(kwargs["gateway_messages"])
        return cls(**kwargs)


@dataclass
class SeedOutcome:
    """What one seed contributed to the campaign."""

    seed: int
    #: ``"ok"`` (dominance held), ``"unschedulable"`` (outside the
    #: contract's domain), ``"error"`` (could not be evaluated) or
    #: ``"violation"``.
    status: str
    violations: List[ConformanceViolation] = field(default_factory=list)
    processes: int = 0
    messages: int = 0
    error: Optional[str] = None
    fixture: Optional[str] = None
    #: Per-phase timings (``generate_s``/``analyze_s``/``simulate_s``)
    #: plus the simulation engine's event counters — the raw material of
    #: the campaign's ``--profile`` report.  Deliberately *not* part of
    #: :meth:`to_dict`: the outcome record is the deterministic artifact
    #: (serial ≡ ``--workers N``); timings never are.
    profile: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible (and deterministic) form — campaign reports."""
        return {
            "seed": self.seed,
            "status": self.status,
            "violations": [v.to_dict() for v in self.violations],
            "processes": self.processes,
            "messages": self.messages,
            "error": self.error,
            "fixture": self.fixture,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "SeedOutcome":
        """The outcome a ``conform`` cell record carries.

        A record whose cell could not be evaluated at all has empty
        metrics; it reads as an ``"error"`` seed with its error.
        """
        metrics = record["metrics"]
        return cls(
            seed=record["workload"]["seed"],
            status=metrics.get("status", "error"),
            violations=[
                ConformanceViolation.from_dict(v)
                for v in metrics.get("violations", [])
            ],
            processes=metrics.get("processes", 0),
            messages=metrics.get("messages", 0),
            error=record.get("error"),
            profile=record.get("profile", {}),
        )


@dataclass
class CampaignReport:
    """Aggregated outcome of one campaign."""

    spec: CampaignSpec
    outcomes: List[SeedOutcome]
    #: Wall-clock of the whole campaign (dispatch overhead included).
    wall_s: float = 0.0

    @property
    def profile(self) -> Dict[str, float]:
        """Aggregated per-phase timings and throughput of the campaign.

        Sums the per-seed phase timings, adds the simulation engine's
        event totals and derives two throughput figures: simulated
        events per second (events / time spent inside the simulator)
        and seeds per second of campaign wall-clock.
        """
        totals: Dict[str, float] = {
            "generate_s": 0.0,
            "analyze_s": 0.0,
            "simulate_s": 0.0,
            "sim_events": 0.0,
            "sim_compile_s": 0.0,
            "sim_replay_s": 0.0,
        }
        for outcome in self.outcomes:
            for key in totals:
                totals[key] += outcome.profile.get(key, 0.0)
        totals["sim_events"] = int(totals["sim_events"])
        totals["seeds"] = len(self.outcomes)
        totals["wall_s"] = self.wall_s
        totals["events_per_s"] = (
            totals["sim_events"] / totals["sim_replay_s"]
            if totals["sim_replay_s"] > 0
            else 0.0
        )
        totals["seeds_per_s"] = (
            len(self.outcomes) / self.wall_s if self.wall_s > 0 else 0.0
        )
        return totals

    @property
    def violating(self) -> List[SeedOutcome]:
        """Seeds on which the dominance contract broke."""
        return [o for o in self.outcomes if o.status == "violation"]

    @property
    def errored(self) -> List[SeedOutcome]:
        """Seeds that could not be evaluated at all."""
        return [o for o in self.outcomes if o.status == "error"]

    @property
    def counts(self) -> Dict[str, int]:
        """Seed count per status."""
        tally: Dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally

    @property
    def clean(self) -> bool:
        """True when no seed violated the contract *and* none errored.

        An errored seed exercised nothing — a campaign whose seeds all
        fail to evaluate must not pass as evidence that the dominance
        contract holds (the same false-clean rule as
        :func:`repro.conformance.fixtures.replay_fixture`).
        """
        return not self.violating and not self.errored

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (the CLI's ``--format json`` payload)."""
        return {
            "campaign": self.spec.campaign,
            "seed0": self.spec.seed0,
            "counts": self.counts,
            "clean": self.clean,
            "wall_s": self.wall_s,
            "profile": self.profile,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def conformance_configuration(
    system: System, rounds_per_period: int = 10
) -> SystemConfiguration:
    """Canonical configuration for a generated workload.

    HOPA priorities (the baseline every heuristic starts from) and a
    TDMA round aligned to the common graph period: each TTP slot owner
    gets its minimal legal capacity and an equal share of
    ``period / rounds_per_period`` — the alignment the simulator requires
    (the cyclic schedule and the TDMA grid must tile consistently).
    """
    owners = system.arch.ttp_slot_owners()
    period = min(g.period for g in system.app.graphs.values())
    duration = period / (rounds_per_period * len(owners))
    capacities = default_capacities(system)
    bus = TTPBusConfig(
        [Slot(node, capacities[node], duration) for node in owners]
    )
    return SystemConfiguration(bus=bus, priorities=hopa_priorities(system))


def seed_configuration(
    system: System, workload: WorkloadSpec, rounds_per_period: int = 10
) -> Optional[SystemConfiguration]:
    """One seed's configuration, or ``None`` for the canonical default.

    Only a non-default ``route_strategy`` needs an explicit
    configuration: seeded route overrides plus TDMA slots grown to
    carry the relayed payloads (:func:`repro.optim.routing.
    fit_bus_to_routes`).  Returning ``None`` otherwise keeps the
    default-path campaign on the exact pre-topology code path.  The
    seed's evaluation (the ``conform`` cell) and the pinning of its
    counterexample both configure through here, so a fixture always
    carries the configuration its violation was observed under.
    """
    if workload.route_strategy == "default":
        return None
    from ..synth.workload import apply_seeded_routes

    config = conformance_configuration(system, rounds_per_period)
    apply_seeded_routes(system, workload, config)
    return config


def evaluate_workload(
    system: System,
    periods: int = 3,
    rounds_per_period: int = 10,
    config: Optional[SystemConfiguration] = None,
    faults=None,
) -> Tuple[str, List[ConformanceViolation], Optional[str], Dict[str, float]]:
    """Analyse + simulate one workload and classify the outcome.

    Returns ``(status, violations, error, profile)`` with ``status`` as
    in :class:`SeedOutcome` and ``profile`` carrying the per-phase
    timings (plus the simulation engine's event counters).  The
    evaluation goes through a :class:`repro.api.Session` — the surface
    production sweeps use — but with memoization off: every campaign
    seed is a fresh system evaluated exactly once, so paying for result
    snapshots would only cut throughput.

    ``faults`` (FaultSpec / dict / canonical JSON) decides the
    classification regime.  *Modeled-only* specs (CAN errors, slow
    nodes, slow bus) stay inside the dominance contract: the analysis
    runs under the same spec, so its bounds must still dominate the
    faulted replay and :func:`classify_run` applies unchanged.  Specs
    with *unmodeled* processes (execution jitter, babble) are outside
    the contract's bound guarantees; the campaign then checks what the
    contract still promises — seeded determinism — by replaying the
    simulation and comparing observations bit for bit.
    """
    profile: Dict[str, float] = {}
    if config is None:
        config = conformance_configuration(system, rounds_per_period)
    fault_spec = FaultSpec.coerce(faults)
    analysis_options: Dict[str, str] = {}
    sim_options: Dict[str, str] = {}
    if fault_spec is not None:
        sim_options["faults"] = fault_spec.canonical()
        analysis_faults = fault_spec.analysis_spec()
        if not analysis_faults.is_null:
            analysis_options["faults"] = analysis_faults.canonical()
    session = Session(system)
    started = time.perf_counter()
    analysis = session.evaluate(
        config, backend="analysis", memoize=False, **analysis_options
    )
    profile["analyze_s"] = time.perf_counter() - started
    if not analysis.feasible:
        return "error", [], analysis.error, profile
    if not (analysis.schedulable and analysis.converged):
        return "unschedulable", [], None, profile
    # Hand the analysis pass over so the simulation backend does not
    # re-run the Fig. 5 fixed point.
    started = time.perf_counter()
    run = session.evaluate(
        config, backend="simulation", memoize=False, periods=periods,
        analysis_run=analysis, **sim_options,
    )
    profile["simulate_s"] = time.perf_counter() - started
    if not run.feasible:
        return "error", [], run.error, profile
    sim = run.metadata.get("sim", {})
    profile["sim_events"] = sim.get("events", 0)
    profile["sim_compile_s"] = sim.get("compile_s", 0.0)
    profile["sim_replay_s"] = sim.get("replay_s", 0.0)
    if fault_spec is None or fault_spec.modeled_only:
        violations = classify_run(run)
    else:
        # Unmodeled faults: dominance is explicitly scoped out, so a
        # bound excess is not a violation — but a second replay of the
        # same seeded spec must reproduce the first bit for bit.  It
        # runs on a pickled copy of the System, which carries no
        # compiled state: the two replays are compiled independently.
        started = time.perf_counter()
        replica = Session(pickle.loads(pickle.dumps(system)))
        second = replica.evaluate(
            config, backend="simulation", memoize=False, periods=periods,
            analysis_run=analysis, **sim_options,
        )
        profile["determinism_s"] = time.perf_counter() - started
        if not second.feasible:
            return "error", [], second.error, profile
        violations = determinism_violations(run, second)
    return ("violation" if violations else "ok"), violations, None, profile


def _pin_counterexample(
    spec: CampaignSpec,
    seed: int,
    system: System,
    violations: List[ConformanceViolation],
    config: Optional[SystemConfiguration] = None,
) -> str:
    """Shrink a violating workload and persist it as a fixture."""
    from .fixtures import save_fixture
    from .shrink import shrink_counterexample

    # A route-strategy campaign observed the violation under seeded
    # route overrides; the shrinker rebuilds a default configuration at
    # every reduction step, which would validate the candidate against
    # the wrong routes.  Pin such counterexamples unshrunk — the fixture
    # carries the exact config (routes and fitted bus), so replay is
    # still bit-exact.
    shrunk = spec.shrink and config is None
    if shrunk:
        # Shrink under the same fault spec: a fault-found violation
        # must persist under the same seeded injection at every
        # reduction step.
        system, violations = shrink_counterexample(
            system,
            violations,
            periods=spec.periods,
            rounds_per_period=spec.rounds_per_period,
            faults=spec.faults,
        )
    path = Path(spec.fixture_dir) / f"seed{seed}.json"
    meta = {
        "seed": seed,
        "periods": spec.periods,
        "rounds_per_period": spec.rounds_per_period,
        "shrunk": shrunk,
    }
    fault_spec = spec.fault_spec()
    if fault_spec is not None:
        # The dict form rides in the fixture so replay_fixture can
        # re-inject the exact seeded fault processes the violation
        # was observed under.
        meta["faults"] = fault_spec.to_dict()
    save_fixture(
        path,
        system,
        config if config is not None
        else conformance_configuration(system, spec.rounds_per_period),
        violations,
        meta=meta,
    )
    return str(path)


def _pin_seed(
    payload: Tuple[CampaignSpec, int, List[ConformanceViolation]]
) -> str:
    """Worker entry point: pin one violating seed (picklable).

    The System is regenerated from the seed's recipe, so a seed
    evaluated anywhere (a local worker, a server) pins the same file.
    """
    spec, seed, violations = payload
    workload = spec.workload_spec(seed)
    system = generate_workload(workload)
    config = seed_configuration(system, workload, spec.rounds_per_period)
    return _pin_counterexample(spec, seed, system, violations, config)


def campaign_report(
    spec: CampaignSpec,
    records: List[Dict[str, Any]],
    started: float,
    stop: Optional[threading.Event] = None,
) -> CampaignReport:
    """The campaign's report over its cell records, fixtures pinned.

    ``records`` are the cell records of seeds ``seed0`` onwards, in
    seed order.  Violating seeds are shrunk and pinned here, after the
    cells finish, one seed per unit on ``spec.workers`` workers.
    ``started`` is the campaign's ``perf_counter`` start.

    ``stop`` makes the pinning interruptible like the sweep itself:
    the pins in flight finish, and :class:`repro.explore.engine.
    SweepInterrupted` reports the seeds before the first unpinned
    violating seed as done, so the resume seed re-runs (and pins)
    every seed whose fixture is missing.
    """
    from ..explore.engine import SweepInterrupted
    from ..explore.runner import RunInterrupted, iter_chunked

    outcomes = [SeedOutcome.from_record(record) for record in records]
    if spec.fixture_dir is not None:
        Path(spec.fixture_dir).mkdir(parents=True, exist_ok=True)
        violating = [o for o in outcomes if o.status == "violation"]
        pins = iter_chunked(
            [(spec, o.seed, o.violations) for o in violating],
            _pin_seed, spec.workers, stop=stop,
        )
        try:
            for outcome, path in zip(violating, pins):
                outcome.fixture = path
        except RunInterrupted as exc:
            done = violating[exc.completed].seed - spec.seed0
            raise SweepInterrupted(
                completed=done, total=spec.campaign, store_hits=0,
                records=records[:done],
            ) from exc
    return CampaignReport(
        spec=spec, outcomes=outcomes,
        wall_s=time.perf_counter() - started,
    )


def run_campaign(
    spec: CampaignSpec,
    stop: Optional[threading.Event] = None,
) -> CampaignReport:
    """Run one conformance campaign (see module docstring).

    The campaign's cells run through the sweep engine with
    ``spec.workers`` workers; parallel outcomes are the serial objects,
    per-seed ``profile`` included.  ``stop`` (typically from
    :func:`repro.explore.runner.trap_signals`) makes the campaign
    interruptible: the in-flight unit finishes, the rest is abandoned,
    and :class:`repro.explore.engine.SweepInterrupted` reports the
    seeds done, contiguous from ``seed0`` (resume at ``seed0 +
    completed``).  The counterexamples of the seeds done are pinned
    before the interrupt is raised: the resume seed skips them.
    """
    from ..explore.engine import SweepInterrupted, run_sweep

    started = time.perf_counter()
    try:
        sweep = run_sweep(spec, workers=spec.workers, stop=stop)
    except SweepInterrupted as exc:
        campaign_report(spec, exc.records, started)
        raise
    return campaign_report(spec, sweep.records, started, stop=stop)
