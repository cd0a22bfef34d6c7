"""Fault injection & degraded-mode evaluation (ISSUE 7 tentpole).

Four layers:

* :class:`TestFaultSpec` — the declarative spec: JSON round trips,
  *minimal* serialization (only non-default fields, so the spec is a
  stable keying value), coercion from every accepted spelling, range
  validation, and the modeled/unmodeled split.
* :class:`TestNullFaultIdentity` — the bit-identity satellite: a null
  ``FaultSpec`` produces verdicts, traces and store keys bit-identical
  to a fault-free run, on both engines.
* :class:`TestEngineParity` / :class:`TestInjection` — the kernel and
  the legacy engine (:mod:`oracles.legacy_sim`) replay the same seeded
  fault processes trace for trace, the injection actually perturbs
  observations, and a spec too dense to ever drain the bus is rejected
  up front.
* :class:`TestDegradedConformance` / :class:`TestFixtureReplay` — the
  campaign regimes (dominance under modeled faults, seeded determinism
  under unmodeled ones) and fault-carrying fixture replay.
"""

import pytest

from repro.analysis import multi_cluster_scheduling
from repro.api import Session
from repro.conformance import conformance_configuration
from repro.conformance.campaign import (
    CampaignSpec,
    evaluate_workload,
    run_campaign,
)
from repro.conformance.fixtures import replay_fixture, save_fixture
from repro.exceptions import ConfigurationError
from repro.faults import FaultRuntime, FaultSpec
from repro.io import run_result_to_dict
from repro.sim import simulate
from repro.synth import WorkloadSpec, generate_workload

from oracles import legacy_simulate
from test_sim_parity import assert_traces_identical

#: A spec of every modeled process: CAN errors, a slow node, a slow
#: bus.  Stays inside the dominance contract.
MODELED = {
    "can_error_interval": 40.0,
    "can_error_overhead": 1.0,
    "node_slow": {"ET1": 1.2},
    "bus_slow": 1.1,
}
#: Execution jitter + a babbling idiot: outside the analysis model,
#: checked for seeded determinism instead.
UNMODELED = {"exec_jitter": 0.3, "babble_period": 70.0, "babble_size": 4}


def _system(seed=5, processes=6):
    return generate_workload(
        WorkloadSpec(nodes=2, processes_per_node=processes, seed=seed)
    )


def _scheduled(system, rounds_per_period=10):
    config = conformance_configuration(system, rounds_per_period)
    result = multi_cluster_scheduling(
        system, config.bus, config.priorities, tt_delays=config.tt_delays
    )
    config.offsets = result.offsets
    return config, result.schedule


def run_both(system, config, schedule, periods=3, faults=None):
    legacy = legacy_simulate(
        system, config, schedule, periods=periods, faults=faults
    )
    kernel = simulate(
        system, config, schedule, periods=periods, faults=faults
    )
    return legacy, kernel


class TestFaultSpec:
    def test_to_dict_is_minimal(self):
        """Only non-default fields serialize — the keying property."""
        assert FaultSpec().to_dict() == {}
        assert FaultSpec().canonical() == "{}"
        spec = FaultSpec(can_error_interval=50.0, can_error_overhead=1.0)
        assert spec.to_dict() == {
            "can_error_interval": 50.0, "can_error_overhead": 1.0,
        }

    def test_round_trip(self):
        spec = FaultSpec.coerce(MODELED)
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        assert FaultSpec.coerce(spec.canonical()) == spec

    def test_coerce_forms_collapse(self):
        assert FaultSpec.coerce(None) is None
        assert FaultSpec.coerce("{}") is None
        assert FaultSpec.coerce({}) is None
        assert FaultSpec.coerce({"seed": 0}) is None  # default seed
        by_dict = FaultSpec.coerce({"bus_slow": 1.5})
        by_json = FaultSpec.coerce('{"bus_slow": 1.5, "seed": 0}')
        assert by_dict == by_json
        assert by_dict.canonical() == by_json.canonical()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            FaultSpec.from_dict({"can_errors_interval": 5.0})

    @pytest.mark.parametrize("bad", [
        {"can_error_interval": -1.0},
        {"can_error_interval": 10.0, "can_error_overhead": 10.0},
        {"can_error_overhead": 1.0},  # overhead without a process
        {"node_slow": {"ET1": 0.5}},  # a *fast* node is not a fault
        {"bus_slow": 0.9},
        {"exec_jitter": 1.0},
        {"babble_period": 0.0},
    ])
    def test_range_validation(self, bad):
        with pytest.raises(ConfigurationError):
            FaultSpec.coerce(bad)

    def test_modeled_unmodeled_split(self):
        modeled = FaultSpec.coerce(MODELED)
        unmodeled = FaultSpec.coerce(UNMODELED)
        assert modeled.modeled_only and modeled.affects_analysis
        assert not unmodeled.modeled_only
        assert not unmodeled.affects_analysis
        # analysis_spec strips exactly the unmodeled processes.
        both = FaultSpec.coerce({**MODELED, **UNMODELED})
        assert both.analysis_spec() == modeled

    def test_validate_nodes(self):
        system = _system()
        FaultSpec.coerce(MODELED).validate_nodes(system)
        ghost = FaultSpec.coerce({"node_slow": {"NO_SUCH": 2.0}})
        with pytest.raises(ConfigurationError, match="NO_SUCH"):
            ghost.validate_nodes(system)


class TestDeratedSystemReuse:
    """A slow-node or slow-bus spec derates the System once: the derated
    copy is kept per modeled spec, so repeated evaluations share one
    analysis kernel instead of compiling a fresh System each time."""

    @staticmethod
    def _compiles(monkeypatch):
        from repro.analysis.kernel import AnalysisContext

        compiles = []
        compile_activities = AnalysisContext._compile_activities

        def counted(self):
            compiles.append(self)
            compile_activities(self)

        monkeypatch.setattr(AnalysisContext, "_compile_activities", counted)
        return compiles

    @pytest.mark.parametrize("faults", [
        {"bus_slow": 1.2},
        {"node_slow": {"N1": 1.3}},
        {"node_slow": {"N1": 1.3}, "exec_jitter": 0.2},
    ])
    def test_five_evaluations_compile_once(self, monkeypatch, faults):
        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        if "node_slow" in faults:
            et_node = system.arch.et_node_names()[0]
            faults = {**faults, "node_slow": {et_node: 1.3}}
        session = Session(system)
        config = conformance_configuration(system, 10)
        compiles = self._compiles(monkeypatch)
        runs = [
            session.evaluate(config.copy(), memoize=False, faults=faults)
            for _ in range(5)
        ]
        assert all(run.error is None for run in runs)
        assert all(run.metadata["fault_derated"] for run in runs)
        assert len({run.degree for run in runs}) == 1
        assert len(compiles) == 1
        assert len(system._derated) == 1

    def test_invalid_node_slow_raises_on_every_call(self):
        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        tt_node = system.arch.tt_node_names()[0]
        session = Session(system)
        config = conformance_configuration(system, 10)
        errors = [
            session.evaluate(
                config.copy(), memoize=False,
                faults={"node_slow": {tt_node: 2.0}},
            ).error
            for _ in range(2)
        ]
        assert errors[0] is not None and tt_node in errors[0]
        assert errors[0] == errors[1]
        assert not system._derated


class TestNullFaultIdentity:
    """ISSUE satellite: ``FaultSpec()`` == no faults, bit for bit."""

    def test_traces_bit_identical_both_engines(self):
        system = _system()
        config, schedule = _scheduled(system)
        null = FaultSpec()
        for engine, fn in (("legacy", legacy_simulate), ("kernel", simulate)):
            clean = fn(system, config, schedule, periods=3)
            nulled = fn(system, config, schedule, periods=3, faults=null)
            assert_traces_identical(clean, nulled, f"null faults {engine}")

    def test_session_verdicts_and_store_keys_identical(self, tmp_path):
        """Every null spelling hits the fault-free store record."""
        system = _system()
        config = conformance_configuration(system, 10)
        baseline = Session(system, store=tmp_path / "s")
        plain = baseline.simulate(config, periods=2)
        writes = baseline.cache_info().store_writes

        for spelling in (None, "{}", {}, FaultSpec()):
            session = Session(system, store=tmp_path / "s")
            run = session.simulate(config, periods=2, faults=spelling)
            assert session.backend_calls == 0, spelling  # pure store hits
            assert session.cache_info().store_writes == 0
            assert run_result_to_dict(run) == run_result_to_dict(plain)
        assert writes == baseline.cache_info().store_writes

    def test_non_null_spec_keys_apart(self, tmp_path):
        system = _system()
        config = conformance_configuration(system, 10)
        session = Session(system, store=tmp_path / "s")
        session.simulate(config, periods=2)
        calls = session.backend_calls
        session.simulate(config, periods=2, faults={"bus_slow": 1.5})
        assert session.backend_calls > calls  # distinct address: computed


class TestEngineParity:
    @pytest.mark.parametrize("faults", [MODELED, UNMODELED])
    def test_bit_identical_under_faults(self, faults):
        spec = FaultSpec.coerce(faults)
        for seed in (1, 5, 9):
            system = _system(seed=seed)
            config, schedule = _scheduled(system)
            legacy, kernel = run_both(
                system, config, schedule, faults=spec
            )
            assert_traces_identical(
                legacy, kernel, f"seed {seed} faults {faults}"
            )

    def test_seeded_replay_is_deterministic(self):
        system = _system()
        config, schedule = _scheduled(system)
        spec = FaultSpec.coerce({**UNMODELED, "seed": 11})
        first = simulate(system, config, schedule, periods=3, faults=spec)
        second = simulate(system, config, schedule, periods=3, faults=spec)
        assert_traces_identical(first, second, "seeded replay")


class TestInjection:
    def test_faults_perturb_observations(self):
        """The injection must be visible, not a no-op: a dense error
        process on a gateway-heavy workload shifts CAN latencies."""
        system = generate_workload(WorkloadSpec(
            nodes=2, processes_per_node=20, gateway_messages=8, seed=0
        ))
        config, schedule = _scheduled(system)
        clean = simulate(system, config, schedule, periods=3)
        spec = FaultSpec.coerce(
            {"can_error_interval": 3.0, "can_error_overhead": 0.5}
        )
        faulted = simulate(
            system, config, schedule, periods=3, faults=spec
        )
        assert faulted.message_latency != clean.message_latency

    def test_livelock_dense_error_process_rejected(self):
        """An error process denser than the longest frame could never
        drain the bus — rejected up front, not an infinite loop."""
        system = _system()
        spec = FaultSpec.coerce(
            {"can_error_interval": 1e-4, "can_error_overhead": 9e-5}
        )
        with pytest.raises(ConfigurationError, match="denser"):
            FaultRuntime(spec, system)

    def test_livelock_guard_surfaces_as_infeasible_run(self):
        system = _system()
        config = conformance_configuration(system, 10)
        run = Session(system).simulate(
            config, periods=2,
            faults={"can_error_interval": 1e-4, "can_error_overhead": 9e-5},
        )
        assert not run.feasible
        assert "denser" in run.error


class TestDegradedConformance:
    def test_dominance_holds_under_modeled_faults(self):
        """Analysis folds the same faults in, so its bounds still
        dominate the faulted replay on every seed."""
        for seed in range(6):
            system = generate_workload(
                CampaignSpec().workload_spec(seed)
            )
            status, violations, error, _ = evaluate_workload(
                system, faults=MODELED
            )
            assert status in ("ok", "unschedulable"), (seed, error)
            assert violations == []

    def test_determinism_holds_under_unmodeled_faults(self):
        for seed in range(4):
            system = generate_workload(
                CampaignSpec().workload_spec(seed)
            )
            status, violations, error, _ = evaluate_workload(
                system, faults=UNMODELED
            )
            assert status in ("ok", "unschedulable"), (seed, error)
            assert violations == []

    def test_campaign_end_to_end_with_faults(self):
        spec = CampaignSpec(campaign=4, workers=1, faults=MODELED)
        # The spec normalizes the faults to canonical string form (its
        # to_dict round-trips through worker processes and seed keys).
        assert spec.faults == FaultSpec.coerce(MODELED).canonical()
        report = run_campaign(spec)
        assert report.clean
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_null_faults_key_like_pre_fault_campaigns(self):
        assert CampaignSpec(faults=None).to_dict()["faults"] is None
        assert CampaignSpec(faults="{}").faults is None


class TestFixtureReplay:
    @pytest.mark.parametrize("faults", [MODELED, UNMODELED])
    def test_fixture_carries_and_reinjects_faults(self, tmp_path, faults):
        """A fault-found fixture replays its exact seeded scenario: the
        violations classified at capture time reproduce bit for bit."""
        from repro.conformance.classify import classify_run

        system = _system()
        config, _schedule = _scheduled(system)
        spec = FaultSpec.coerce(faults)
        run = Session(system).simulate(
            config, periods=2, faults=spec.to_dict()
        )
        assert run.feasible
        expected = classify_run(run) if spec.modeled_only else []
        path = tmp_path / "fixture.json"
        save_fixture(
            path, system, config, expected,
            meta={"periods": 2, "faults": spec.to_dict()},
        )
        fixture, replayed, violations = replay_fixture(path)
        assert fixture.meta["faults"] == spec.to_dict()
        assert replayed.feasible
        assert violations == fixture.expected_violations
        assert replayed.metadata["faults"] == spec.to_dict()
