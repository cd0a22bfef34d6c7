"""Tests for the :mod:`repro.api` facade: Session, backends, RunResult."""

import json

import pytest

from helpers import two_node_config, two_node_system
from repro.analysis import (
    SchedulabilityReport,
    buffer_bounds,
    degree_of_schedulability,
    multi_cluster_scheduling,
)
from repro.api import (
    INFEASIBLE_COST,
    AnalysisBackend,
    EvaluationBackend,
    RunResult,
    Session,
    available_backends,
    config_hash,
    get_backend,
    register_backend,
)
from repro.buses import Slot, TTPBusConfig
from repro.exceptions import ConfigurationError
from repro.io import run_result_from_dict, run_result_to_dict
from repro.model import PriorityAssignment, SystemConfiguration


def _config_grid(count=64):
    """``count`` distinct configurations for :func:`two_node_system`."""
    configs = []
    for cap in (8, 12, 16, 24):
        for dur in (8.0, 10.0, 12.0, 14.0):
            for order in (("N1", "NG"), ("NG", "N1")):
                for procs in ({"B": 1, "X": 2}, {"B": 2, "X": 1}):
                    bus = TTPBusConfig(
                        [Slot(node=n, capacity=cap, duration=dur) for n in order]
                    )
                    priorities = PriorityAssignment(
                        process_priorities=procs,
                        message_priorities={"ma": 1, "mb": 2},
                    )
                    configs.append(
                        SystemConfiguration(bus=bus, priorities=priorities)
                    )
    assert len(configs) >= count
    return configs[:count]


class TestConfigHash:
    def test_stable_across_equal_configs(self):
        assert config_hash(two_node_config()) == config_hash(two_node_config())

    def test_sensitive_to_synthesis_decisions(self):
        base = two_node_config()
        assert config_hash(base) != config_hash(two_node_config(capacity=16))
        swapped = two_node_config()
        swapped.priorities.swap_processes("B", "X")
        assert config_hash(base) != config_hash(swapped)

    def test_ignores_derived_offsets(self):
        system = two_node_system()
        config = two_node_config()
        before = config_hash(config)
        Session(system).evaluate(config)
        assert config.offsets is not None
        assert config_hash(config) == before


class TestBackendRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        assert "analysis" in names and "simulation" in names

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError, match="unknown evaluation"):
            get_backend("no-such-backend")

    def test_duplicate_registration_guard(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend("analysis", AnalysisBackend)

    def test_custom_backend_instance(self):
        class Constant(EvaluationBackend):
            name = "constant-test"

            def run(self, system, config, **options):
                return RunResult(backend=self.name, error="not evaluated")

        register_backend("constant-test", Constant(), replace=True)
        run = Session(two_node_system()).evaluate(
            two_node_config(), backend="constant-test"
        )
        assert run.backend == "constant-test"
        assert not run.feasible
        assert run.degree == INFEASIBLE_COST


class TestRunResultRoundTrip:
    def test_json_round_trip_preserves_record(self):
        session = Session(two_node_system())
        run = session.evaluate(two_node_config())
        data = run_result_to_dict(run)
        rebuilt = run_result_from_dict(json.loads(json.dumps(data)))
        assert run_result_to_dict(rebuilt) == data
        assert rebuilt.degree == run.degree
        assert rebuilt.schedulable == run.schedulable
        assert rebuilt.total_buffers == run.total_buffers
        assert rebuilt.graph_responses == run.graph_responses
        assert rebuilt.timing == run.timing
        assert rebuilt.buffers.total == run.buffers.total
        assert config_hash(rebuilt.config) == config_hash(run.config)
        # The rich analysis payload deliberately does not survive.
        assert rebuilt.analysis is None
        # But the verdict report is reconstructed.
        assert isinstance(rebuilt.report, SchedulabilityReport)

    def test_error_result_round_trip(self):
        run = RunResult(backend="analysis", error="boom")
        rebuilt = run_result_from_dict(run_result_to_dict(run))
        assert rebuilt.error == "boom"
        assert not rebuilt.feasible
        assert rebuilt.report is None

    def test_timing_table_has_all_activities(self):
        session = Session(two_node_system())
        run = session.evaluate(two_node_config())
        kinds = {row["kind"] for row in run.timing.values()}
        assert "process" in kinds
        assert "can" in kinds
        for row in run.timing.values():
            assert set(row) >= {
                "kind", "name", "offset", "jitter", "queuing",
                "duration", "response", "worst_end", "converged",
            }



@pytest.fixture
def table_builds(monkeypatch):
    """Every :func:`timing_table` build, wherever the name is bound."""
    import sys

    from repro.api import result

    builds = []
    original = result.timing_table

    def counted(rho):
        builds.append(rho)
        return original(rho)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "timing_table", None) is original):
            monkeypatch.setattr(module, "timing_table", counted)
    return builds


class TestTimingBuiltOnFirstRead:
    """``RunResult.timing`` is built from ``analysis.rho`` when first
    read: optimizers, which read only the verdict, never build it, and
    every path that does read it sees the same rows."""

    def test_or_run_builds_no_timing_table(self, table_builds):
        from repro.optim import optimize_resources
        from repro.synth.workload import WorkloadSpec, generate_workload

        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        session = Session(system)
        optimize_resources(
            system, max_iterations=3, neighborhood=8, session=session
        )
        assert session.cache_info().backend_calls > 10
        assert table_builds == []

    def test_every_path_reads_the_same_rows(self, tmp_path):
        from repro.api import timing_table
        from repro.conformance import conformance_configuration
        from repro.synth.workload import WorkloadSpec, generate_workload

        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        config = conformance_configuration(system, 10)
        other = config.copy()
        first, second = system.can_messages()[:2]
        other.priorities.swap_messages(first, second)
        expected = {}
        for cfg in (config, other):
            run = Session(system).evaluate(cfg.copy())
            expected[config_hash(cfg)] = timing_table(run.analysis.rho)
        assert expected[config_hash(config)] != expected[config_hash(other)]

        def check(run, cfg):
            assert run.error is None
            table = expected[config_hash(cfg)]
            assert run.timing == table
            assert run.to_dict()["timing"] == table

        session = Session(system, store=tmp_path / "store")
        direct = session.evaluate(config.copy())
        check(direct, config)
        check(session.evaluate(config.copy()), config)  # memo hit
        stored = Session(system, store=tmp_path / "store")
        hit = stored.evaluate(config.copy())  # store hit
        assert stored.cache_info().store_hits == 1
        check(hit, config)
        batch = Session(system).evaluate_many(
            [config.copy(), other.copy()], workers=2
        )
        for run, cfg in zip(batch, (config, other)):
            check(run, cfg)
        simulated = Session(system).evaluate(
            config.copy(), backend="simulation", periods=2
        )
        check(simulated, config)
        assert simulated.metadata["violations"] == 0


class TestRunResultEquality:
    """``==`` compares values: the configuration's bus, priorities and
    offsets by content, and never the in-memory analysis payload."""

    def test_analysis_run_equals_its_pickle_and_copy(self):
        import copy
        import pickle

        from repro.optim import straightforward_configuration
        from repro.synth.workload import WorkloadSpec, generate_workload

        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        run = Session(system).evaluate(straightforward_configuration(system))
        assert run.error is None and run.analysis is not None
        for twin in (pickle.loads(pickle.dumps(run)), copy.deepcopy(run)):
            assert twin.config is not run.config
            assert twin == run
        assert RunResult.from_dict(run.to_dict()) == run
        other = run.config.copy()
        other.priorities.swap_messages(*system.can_messages()[:2])
        assert other != run.config


class TestSessionEvaluate:
    def test_single_evaluation_matches_direct_pipeline(self):
        system = two_node_system()
        config = two_node_config()
        run = Session(system).evaluate(config)
        ref = multi_cluster_scheduling(system, config.bus, config.priorities)
        report = degree_of_schedulability(system, ref.rho)
        assert run.degree == report.degree
        assert run.schedulable == report.schedulable
        assert run.config is config

    def test_infeasible_config_reported_not_raised(self):
        # Slot capacity 1 byte cannot carry the 8-byte frames.
        config = two_node_config(capacity=1)
        run = Session(two_node_system()).evaluate(config)
        assert not run.feasible
        assert run.degree == INFEASIBLE_COST
        assert run.total_buffers == INFEASIBLE_COST

    def test_memoized_hit_rehomes_offsets(self):
        session = Session(two_node_system())
        first = two_node_config()
        second = two_node_config()
        session.evaluate(first)
        run = session.evaluate(second)
        assert session.cache_info().hits == 1
        assert run.config is second
        assert second.offsets is not None
        assert second.offsets.process_offsets == first.offsets.process_offsets

    def test_memoize_false_bypasses_cache(self):
        session = Session(two_node_system())
        session.evaluate(two_node_config(), memoize=False)
        session.evaluate(two_node_config(), memoize=False)
        assert session.backend_calls == 2
        assert session.cache_info().size == 0

    def test_cache_immune_to_caller_mutating_config(self):
        session = Session(two_node_system())
        first = two_node_config()
        session.evaluate(first)
        first.offsets = None  # caller reuses/clears the evaluated object
        second = two_node_config()
        run = session.evaluate(second)
        assert session.cache_info().hits == 1
        assert second.offsets is not None
        assert run.config is second

    def test_unknown_backend_option_raises(self):
        session = Session(two_node_system())
        with pytest.raises(TypeError):
            session.evaluate(two_node_config(), max_iteratons=5)  # typo

    def test_cache_immune_to_caller_mutating_result_dicts(self):
        session = Session(two_node_system())
        run = session.evaluate(two_node_config())
        run.metadata["tag"] = "poison"
        run.graph_responses["G"] = 0.0
        run.timing.clear()
        hit = session.evaluate(two_node_config())
        assert "tag" not in hit.metadata
        assert hit.graph_responses["G"] != 0.0
        assert hit.timing

    def test_cache_immune_to_nested_metadata_mutation(self):
        session = Session(two_node_system())
        run = session.simulate(two_node_config(), periods=2)
        run.metadata["observed_queue_peak"]["Out_CAN"] = -999.0
        hit = session.simulate(two_node_config(), periods=2)
        assert hit.metadata["observed_queue_peak"].get("Out_CAN") != -999.0

    def test_cache_size_bound_evicts_oldest(self):
        session = Session(two_node_system(), cache_size=2)
        for config in _config_grid(4):
            session.evaluate(config)
        assert session.cache_info().size == 2
        assert session.backend_calls == 4

    def test_optim_evaluate_rejects_mismatched_session(self):
        from repro.optim import evaluate as optim_evaluate

        with pytest.raises(ValueError, match="different System"):
            optim_evaluate(
                two_node_system(),
                two_node_config(),
                session=Session(two_node_system()),
            )


class TestEvaluateMany:
    def test_matches_per_config_analysis_over_64_configs(self):
        """Acceptance: batch path == direct multi_cluster_scheduling."""
        system = two_node_system()
        configs = _config_grid(64)
        session = Session(system)
        runs = session.evaluate_many(configs)
        assert len(runs) == 64
        for config, run in zip(configs, runs):
            ref = multi_cluster_scheduling(
                system, config.bus, config.priorities,
                tt_delays=config.tt_delays,
            )
            report = degree_of_schedulability(system, ref.rho)
            buffers = buffer_bounds(system, config.priorities, ref.rho)
            assert ref.converged, "grid config unexpectedly non-converged"
            assert run.feasible
            assert run.degree == report.degree
            assert run.schedulable == report.schedulable
            assert run.total_buffers == buffers.total
            assert run.graph_responses == report.graph_responses
            assert run.config is config
            assert config.offsets.process_offsets == ref.offsets.process_offsets
            assert config.offsets.message_offsets == ref.offsets.message_offsets

    def test_memoized_second_pass_zero_backend_calls(self):
        """Acceptance: a repeated batch performs no backend invocations."""
        system = two_node_system()
        session = Session(system)
        session.evaluate_many(_config_grid(64))
        calls_after_first = session.backend_calls
        assert calls_after_first == 64
        runs = session.evaluate_many(_config_grid(64))
        assert session.backend_calls == calls_after_first
        assert session.cache_info().hits == 64
        assert all(run.feasible for run in runs)

    def test_in_batch_duplicates_evaluated_once(self):
        session = Session(two_node_system())
        configs = [two_node_config(), two_node_config(), two_node_config(capacity=16)]
        runs = session.evaluate_many(configs)
        assert session.backend_calls == 2
        assert runs[0].degree == runs[1].degree
        assert runs[0].config is configs[0]
        assert runs[1].config is configs[1]

    def test_parallel_workers_match_serial(self):
        import warnings

        system = two_node_system()
        # Capacity 2 cannot carry the messages: an infeasible result,
        # which carries no analysis payload.
        configs = _config_grid(16) + [two_node_config(capacity=2)]
        serial = Session(system).evaluate_many(configs, memoize=False)
        parallel_session = Session(system)
        parallel_configs = _config_grid(16) + [two_node_config(capacity=2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no silent inline fallback
            parallel = parallel_session.evaluate_many(
                parallel_configs, workers=2, memoize=False
            )
        for a, b in zip(serial, parallel):
            assert a.degree == b.degree
            assert a.total_buffers == b.total_buffers
            assert a.graph_responses == b.graph_responses
        # The very objects a serial batch returns: the full record, the
        # in-memory analysis payload exactly when the serial one has it,
        # re-homed onto the caller's configurations.
        assert [r.to_dict() for r in parallel] == [
            r.to_dict() for r in serial
        ]
        assert [r.analysis is None for r in parallel] == [
            r.analysis is None for r in serial
        ]
        assert all(r.config is c for r, c in zip(parallel, parallel_configs))

    def test_parallel_results_land_in_cache(self):
        session = Session(two_node_system())
        configs = _config_grid(8)
        session.evaluate_many(configs, workers=2)
        before = session.backend_calls
        session.evaluate_many(_config_grid(8))
        assert session.backend_calls == before


class TestSimulationBackend:
    def test_simulation_metadata(self):
        session = Session(two_node_system())
        run = session.simulate(two_node_config(), periods=3)
        assert run.backend == "simulation"
        assert run.metadata["periods"] == 3
        assert run.metadata["violations"] == 0
        assert run.metadata["bound_excess"] <= 1e-9
        assert run.metadata["observed_graph_response"]
        assert run.schedulable

    def test_simulation_round_trip(self):
        session = Session(two_node_system())
        run = session.simulate(two_node_config(), periods=2)
        rebuilt = run_result_from_dict(run_result_to_dict(run))
        assert rebuilt.metadata == run.metadata

    def test_simulate_reuses_memoized_analysis(self):
        session = Session(two_node_system())
        session.evaluate(two_node_config())
        calls = session.backend_calls
        session.simulate(two_node_config(), periods=2)
        # Only the simulation itself hits a backend; the analysis pass
        # comes from the session cache.
        assert session.backend_calls == calls + 1


class TestSessionWorkflows:
    def test_synthesize_returns_schedulable_fig4(self):
        from repro.synth import fig4_system

        session = Session(fig4_system())
        synth = session.synthesize()
        assert synth.schedulable
        assert synth.evaluations > 0
        assert synth.config.offsets is not None
        # Synthesis analysis runs flowed through the session cache.
        assert session.backend_calls > 0

    def test_sensitivity_forces_analysis_backend(self):
        session = Session(two_node_system(), default_backend="simulation")
        run = session.sensitivity(two_node_config(), upper=2.0, top=1)
        assert run.backend == "analysis"
        assert "wcet_margin" in run.metadata

    def test_sensitivity_metadata(self):
        session = Session(two_node_system())
        run = session.sensitivity(two_node_config(), upper=3.0, top=2)
        assert len(run.metadata["critical_activities"]) <= 2
        margin = run.metadata["wcet_margin"]
        assert margin["factor"] >= 1.0
        assert margin["schedulable_at_factor"]

    def test_from_file_and_save_round_trip(self, tmp_path):
        path = tmp_path / "system.json"
        Session(two_node_system()).save(path)
        session = Session.from_file(path)
        run = session.evaluate(two_node_config())
        assert run.schedulable

    def test_from_workload(self):
        session = Session.from_workload(
            nodes=2, processes_per_node=6, gateway_messages=2, seed=1
        )
        assert session.system.app.process_count() == 12
