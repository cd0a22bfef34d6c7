"""Pluggable evaluation backends and their string-keyed registry.

A backend turns one ``(System, SystemConfiguration)`` pair into a
:class:`repro.api.result.RunResult`.  Two ship with the package:

* ``"analysis"`` — the paper's analytic path: the multi-cluster
  scheduling fixed point (Fig. 5) followed by the degree-of-
  schedulability cost and the buffer bounds.  This is the engine behind
  every synthesis heuristic.
* ``"simulation"`` — the discrete-event simulation kernel of
  :mod:`repro.sim.kernel`, replaying a compiled :class:`SimContext` on
  top of an analysis pass (the simulator needs the synthesized schedule
  tables), reporting observed responses, latencies and queue peaks in
  the result metadata.

Third parties extend the registry with :func:`register_backend`; the
:class:`repro.api.session.Session` batch API resolves backends by name so
registered engines immediately gain memoization and parallel dispatch.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Union

from ..analysis.buffers import buffer_bounds
from ..analysis.degree import SchedulabilityReport, degree_of_schedulability
from ..analysis.multicluster import multi_cluster_scheduling
from ..exceptions import (
    AnalysisError,
    ConfigurationError,
    SchedulingError,
    SimulationError,
)
from ..faults import FaultSpec
from ..model.configuration import SystemConfiguration
from ..system import System
from .result import INFEASIBLE_COST, RunResult

__all__ = [
    "AnalysisBackend",
    "EvaluationBackend",
    "SimulationBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]


class EvaluationBackend(abc.ABC):
    """Protocol implemented by every evaluation engine.

    Subclasses must define a class-level ``name`` (the registry key) and
    :meth:`run`.  Backends should be stateless — a :class:`Session` may
    share one instance across many configurations and worker processes.
    """

    #: Registry key; override in subclasses.
    name: str = ""

    @abc.abstractmethod
    def run(
        self, system: System, config: SystemConfiguration, **options
    ) -> RunResult:
        """Evaluate one configuration and return the unified record."""


class AnalysisBackend(EvaluationBackend):
    """The analytic schedulability engine (section 4 of the paper).

    Reproduces exactly the evaluation semantics the synthesis heuristics
    were built on: validation, the multi-cluster fixed point, ``δΓ`` and
    buffer bounds, with a non-converged outer loop mapped to a large but
    ordered penalty and non-analysable configurations collapsed to
    :data:`INFEASIBLE_COST`.  As a side effect the evaluated
    configuration's ``offsets`` are set to the synthesized ``φ`` (the
    contract optimizers rely on).
    """

    name = "analysis"

    def run(
        self,
        system: System,
        config: SystemConfiguration,
        max_iterations: int = 30,
        faults=None,
    ) -> RunResult:
        # No **options catch-all: a misspelled option should raise a
        # TypeError, not silently evaluate with defaults (and fragment
        # the session cache under the typo'd key).
        # ``faults`` (a FaultSpec, its dict, or its canonical JSON) adds
        # the *modeled* fault processes to the analysis: slow nodes and
        # a slow bus derate the system before the fixed point runs, a
        # CAN error process adds the classical retransmission term to
        # every bus busy window.  Unmodeled processes (execution
        # jitter, babble) are outside the analysis contract and are
        # stripped here via ``FaultSpec.analysis_spec``.
        try:
            fault_spec = FaultSpec.coerce(faults)
            analysis_faults = None
            run_system = system
            if fault_spec is not None:
                analysis_faults = fault_spec.analysis_spec()
                if analysis_faults.is_null:
                    analysis_faults = None
                else:
                    run_system = analysis_faults.derate_system(system)
            run_system.configuration_rules().check(config)
            result = multi_cluster_scheduling(
                run_system,
                config.bus,
                config.priorities,
                tt_delays=config.tt_delays,
                max_iterations=max_iterations,
                faults=analysis_faults,
                routes=config.routes or None,
            )
        except (SchedulingError, AnalysisError, ConfigurationError) as exc:
            return RunResult(
                backend=self.name, config=config, error=str(exc)
            )
        config.offsets = result.offsets
        report = degree_of_schedulability(run_system, result.rho)
        buffers = buffer_bounds(
            run_system, config.priorities, result.rho,
            plan=run_system.routing_for(config.routes),
        )
        if not result.converged:
            # Non-converged outer loop: unschedulable with a large but
            # ordered penalty (section 4's termination conditions failed).
            report = SchedulabilityReport(
                degree=max(report.degree, 0.0) + INFEASIBLE_COST / 1e3,
                schedulable=False,
                graph_responses=report.graph_responses,
            )
        return RunResult(
            backend=self.name,
            schedulable=report.schedulable,
            degree=report.degree,
            total_buffers=buffers.total,
            converged=result.converged,
            iterations=result.iterations,
            graph_responses=dict(report.graph_responses),
            buffers=buffers,
            report=report,
            config=config,
            analysis=result,
            # The true (unclamped) Fig. 5 iteration count, recorded so
            # memoized results stay honest about the work performed.
            metadata=self._metadata(result, fault_spec, run_system, system),
        )

    @staticmethod
    def _metadata(result, fault_spec, run_system, system):
        metadata = {"multicluster_iterations": result.iterations}
        if fault_spec is not None:
            metadata["faults"] = fault_spec.to_dict()
            metadata["fault_derated"] = run_system is not system
        return metadata


class SimulationBackend(EvaluationBackend):
    """The discrete-event simulation engine (validation path).

    Runs the analysis first — the simulator executes the synthesized
    schedule tables and MEDL — then simulates ``periods`` graph periods
    and reports the observations in ``metadata``:

    * ``periods``, ``violations`` (count) and ``violation_details``;
    * ``observed_graph_response`` / ``observed_process_response`` /
      ``observed_message_latency`` / ``observed_queue_peak``;
    * ``bound_excess`` — the largest amount by which an observed graph
      response exceeded its analytic bound (<= 0 when analysis
      dominates, as it must on deterministic WCET-regime runs);
    * ``sim`` — engine instrumentation (compile/replay timings,
      static/dynamic event counts, events per second).

    The verdict fields (``schedulable``, ``degree``, ``total_buffers``)
    are the analytic ones, so results from both backends rank
    identically; the metadata carries the simulation's own evidence.
    """

    name = "simulation"

    def run(
        self,
        system: System,
        config: SystemConfiguration,
        periods: int = 4,
        execution=None,
        max_iterations: int = 30,
        analysis_run: RunResult = None,
        faults=None,
    ) -> RunResult:
        # ``faults`` injects the spec's seeded fault processes into the
        # replay (and, through the analysis pass, its modeled subset
        # into the bounds); a caller-supplied ``analysis_run`` must have
        # been produced under the same fault spec (Session.simulate
        # guarantees this).
        try:
            fault_spec = FaultSpec.coerce(faults)
        except ConfigurationError as exc:
            return RunResult(
                backend=self.name, config=config, error=str(exc)
            )
        if analysis_run is not None and not analysis_run.feasible:
            # A known-infeasible analysis pass settles the outcome;
            # don't pay for a second fixed-point attempt.
            return RunResult(
                backend=self.name, config=config, error=analysis_run.error
            )
        if analysis_run is not None and analysis_run.analysis is not None:
            # Reuse a caller-supplied analysis pass (Session.simulate
            # hands over the memoized one) instead of re-running the
            # fixed point.
            base = analysis_run
        else:
            base = AnalysisBackend().run(
                system, config, max_iterations=max_iterations,
                faults=faults,
            )
        if not base.feasible or base.analysis is None:
            return RunResult(
                backend=self.name, config=config, error=base.error
            )
        fault_counters = None
        try:
            from ..sim.kernel import SimContext, sim_template

            if base is analysis_run:
                # The caller's schedule object can recur (a memoized
                # analysis run), so its template is the System's to keep.
                template = sim_template(system, config, base.analysis.schedule)
            else:
                template = SimContext(system, config, base.analysis.schedule)
            # The compile cost belongs to the run that first uses the
            # template; replays of a reused template paid none.
            first_use = template.stats.replays == 0
            trace = template.run(
                periods=periods, execution=execution, faults=fault_spec
            )
            sim_profile = template.profile()
            if not first_use:
                sim_profile["compile_s"] = 0.0
            if fault_spec is not None:
                fault_counters = {
                    key: template.last_replay.get(key, 0)
                    for key in ("can_errors", "babble_frames")
                }
        except (SimulationError, ConfigurationError) as exc:
            return RunResult(
                backend=self.name, config=config, error=str(exc)
            )
        bound_excess = 0.0
        for graph, observed in trace.graph_response.items():
            # The analysis pass's R_G.  Where it is unbounded δΓ stored
            # the finite OVERLOAD_PENALTY instead of inf; a simulated
            # response minus either is negative, so neither beats 0.0.
            bound_excess = max(
                bound_excess, observed - base.graph_responses[graph]
            )
        metadata = {
            "periods": periods,
            "violations": len(trace.violations),
            # Full causal context per violation (producer finish, gateway
            # transfer window, consumer dispatch slot, route) so a
            # dominance divergence is diagnosable from serialized
            # results — CI logs, conformance fixtures — alone.
            "violation_details": [v.as_dict() for v in trace.violations],
            "observed_graph_response": dict(trace.graph_response),
            "observed_process_response": dict(trace.process_response),
            "observed_message_latency": dict(trace.message_latency),
            "observed_queue_peak": dict(trace.queue_peak),
            "completed_instances": trace.completed_instances,
            "bound_excess": bound_excess,
            # Mirror the analysis backend's honest Fig. 5 iteration
            # count so both backends' metadata read the same way.
            "multicluster_iterations": base.iterations,
            # Engine instrumentation: compile/replay timings and the
            # event throughput (``repro simulate --stats`` and the
            # conformance campaign's --profile report read this).
            "sim": sim_profile,
        }
        if fault_spec is not None:
            # The spec travels with the result so a counterexample can
            # be replayed under the exact fault processes it saw, and
            # the injection counters testify the processes actually
            # fired (a degradation curve with zero injections is a
            # sweep bug, not resilience).
            metadata["faults"] = fault_spec.to_dict()
            metadata["fault_injection"] = fault_counters or {}
            metadata["faults_modeled_only"] = fault_spec.modeled_only
        return RunResult(
            backend=self.name,
            schedulable=base.schedulable,
            degree=base.degree,
            total_buffers=base.total_buffers,
            converged=base.converged,
            iterations=base.iterations,
            graph_responses=base.graph_responses,
            buffers=base.buffers,
            report=base.report,
            config=config,
            metadata=metadata,
            analysis=base.analysis,
        )


# -- registry ---------------------------------------------------------------

BackendFactory = Callable[[], EvaluationBackend]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(
    name: str,
    factory: Union[BackendFactory, EvaluationBackend],
    replace: bool = False,
) -> None:
    """Register an evaluation backend under ``name``.

    ``factory`` is either a zero-argument callable producing backend
    instances or an instance itself (shared across all sessions).
    Re-registering an existing name requires ``replace=True`` so typos
    don't silently shadow the built-ins.
    """
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"evaluation backend {name!r} is already registered "
            "(pass replace=True to override)"
        )
    if isinstance(factory, EvaluationBackend):
        instance = factory
        _REGISTRY[name] = lambda: instance
    else:
        _REGISTRY[name] = factory


def get_backend(
    backend: Union[str, EvaluationBackend]
) -> EvaluationBackend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, EvaluationBackend):
        return backend
    try:
        factory = _REGISTRY[backend]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ConfigurationError(
            f"unknown evaluation backend {backend!r} (registered: {known})"
        ) from None
    return factory()


def available_backends() -> List[str]:
    """Sorted names of all registered backends."""
    return sorted(_REGISTRY)


register_backend(AnalysisBackend.name, AnalysisBackend)
register_backend(SimulationBackend.name, SimulationBackend)
