"""repro — schedulability analysis and synthesis for multi-cluster
distributed embedded systems.

Reproduction of Pop, Eles, Peng, *"Schedulability Analysis and
Optimization for the Synthesis of Multi-Cluster Distributed Embedded
Systems"*, DATE 2003.

Quickstart (the :mod:`repro.api` facade is the supported entry point)::

    from repro.api import Session
    from repro import Application, Architecture, Message, Process, ProcessGraph, System

    graph = ProcessGraph("G1", period=240, deadline=200, processes=[...],
                         messages=[...])
    system = System(Application([graph]),
                    Architecture(tt_nodes=["N1"], et_nodes=["N2"]))
    session = Session(system)
    synth = session.synthesize()              # synthesize beta + pi (OS)
    print(synth.schedulable, synth.best.total_buffers)
    runs = session.evaluate_many(configs, workers=4)   # batch evaluation

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.api` — the public facade: :class:`Session`, pluggable
  evaluation backends, the unified :class:`RunResult`, batch evaluation;
* :mod:`repro.model` — applications, architectures, configurations;
* :mod:`repro.buses` — TTP/TDMA and CAN protocol substrates;
* :mod:`repro.schedule` — static list scheduling (schedule tables, MEDL);
* :mod:`repro.analysis` — the multi-cluster schedulability and buffer
  analyses (section 4);
* :mod:`repro.optim` — SF/OS/OR heuristics and the SA baselines
  (sections 5–6);
* :mod:`repro.synth` — paper examples and random workload generation;
* :mod:`repro.sim` — discrete-event simulator used for validation;
* :mod:`repro.semantics` — the timing-semantics contract shared by the
  scheduler, the analyses and the simulator (message readiness, gateway
  transfer, FIFO drain, dispatch eligibility);
* :mod:`repro.conformance` — the simulator–analysis conformance
  harness: seeded campaigns, violation classification, counterexample
  shrinking, replayable fixtures (CLI: ``repro conform``);
* :mod:`repro.store` — the persistent experiment store: a
  content-addressed, append-only on-disk result store that plugs into
  :class:`Session` as a second memo tier (in-memory -> store ->
  compute) and is shared bit-identically across processes/machines;
* :mod:`repro.explore` — resumable design-space campaigns: declarative
  sweep specs, the shared chunked dispatch runner, per-group Pareto
  tracking (CLI: ``repro explore``);
* :mod:`repro.io` — JSON serialization and paper-style reports.

Each layer has one implementation: one compiled analysis kernel
(:class:`AnalysisContext`) and one compiled simulation kernel
(:class:`repro.sim.SimContext`).  The module-level functions live in
their subpackages (:func:`repro.analysis.multi_cluster_scheduling`,
:func:`repro.optim.optimize_schedule`, :func:`repro.sim.simulate`, ...);
workflows go through :class:`repro.api.Session`.
"""

from .analysis import (
    ActivityTiming,
    AnalysisContext,
    BufferReport,
    KernelStats,
    MultiClusterResult,
    ResponseTimes,
    SchedulabilityReport,
    buffer_bounds,
    degree_of_schedulability,
    graph_response_time,
    response_time_analysis,
)
from .api import (
    AnalysisBackend,
    EvaluationBackend,
    RunResult,
    Session,
    SimulationBackend,
    SynthesisResult,
    available_backends,
    config_hash,
    get_backend,
    register_backend,
    store_key,
)
from .buses import CanBusSpec, Slot, TTPBusConfig, TTPBusSpec
from .exceptions import (
    AnalysisError,
    ConfigurationError,
    ConvergenceError,
    MappingError,
    ModelError,
    ReproError,
    SchedulingError,
    SimulationError,
    StoreError,
    UnschedulableError,
)
from .explore import ExploreReport, SweepSpec, run_sweep
from .model import (
    Application,
    Architecture,
    ClusterKind,
    Dependency,
    Message,
    MessageRoute,
    OffsetTable,
    PriorityAssignment,
    Process,
    ProcessGraph,
    SystemConfiguration,
)
from .optim import (
    ORResult,
    OSResult,
    SAResult,
    hopa_priorities,
    run_straightforward,
    sa_resources,
    sa_schedule,
    straightforward_configuration,
)
from .schedule import StaticSchedule, static_schedule
from .sim import SimulationTrace
from .store import ResultStore
from .system import System

__version__ = "1.1.0"

__all__ = [
    "ActivityTiming",
    "AnalysisBackend",
    "AnalysisError",
    "Application",
    "Architecture",
    "BufferReport",
    "CanBusSpec",
    "ClusterKind",
    "ConfigurationError",
    "ConvergenceError",
    "Dependency",
    "EvaluationBackend",
    "MappingError",
    "Message",
    "MessageRoute",
    "ModelError",
    "MultiClusterResult",
    "ORResult",
    "OSResult",
    "OffsetTable",
    "PriorityAssignment",
    "Process",
    "ProcessGraph",
    "ExploreReport",
    "ReproError",
    "ResponseTimes",
    "ResultStore",
    "RunResult",
    "SAResult",
    "SchedulabilityReport",
    "SchedulingError",
    "Session",
    "SimulationBackend",
    "SimulationError",
    "SimulationTrace",
    "Slot",
    "StaticSchedule",
    "StoreError",
    "SweepSpec",
    "SynthesisResult",
    "System",
    "SystemConfiguration",
    "TTPBusConfig",
    "TTPBusSpec",
    "UnschedulableError",
    "available_backends",
    "buffer_bounds",
    "config_hash",
    "degree_of_schedulability",
    "get_backend",
    "graph_response_time",
    "hopa_priorities",
    "register_backend",
    "AnalysisContext",
    "KernelStats",
    "response_time_analysis",
    "run_straightforward",
    "run_sweep",
    "sa_resources",
    "sa_schedule",
    "static_schedule",
    "store_key",
    "straightforward_configuration",
    "__version__",
]
