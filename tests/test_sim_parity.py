"""Trace parity: the compiled simulation kernel vs the legacy engine
(:mod:`oracles.legacy_sim`).

The compiled kernel (``repro.sim.kernel.SimContext``) replays a
precomputed hyperperiod template instead of scheduling every event on a
heap; these tests pin it, **bit for bit**, to the legacy event-by-event
engine on every workload class the repository cares about:

* the paper's Fig. 4 example under all three configurations;
* the cruise controller;
* the pinned ``seed1654_gateway_fifo.json`` conformance fixture;
* a seeded batch of ``synth.workload`` systems (2-node campaign scale,
  the 80-process 2-node smoke workload, *and* the 160-process 4-node
  bench workload, whose conformance configuration produces dispatch
  violations — covering the violation path end to end);
* a sub-WCET execution-time model (exercising ET preemption banking and
  dynamic TT completions).

Compared per run: ET process responses (dispatch order differences
would surface here), graph responses, message journeys (latencies and
the violations' causal-context fields), FIFO/queue occupancy peaks,
violation sets, and completed instance counts — all with ``==`` on the
raw floats, no tolerance.
"""

import pytest

from repro.analysis import multi_cluster_scheduling
from repro.conformance import conformance_configuration, load_fixture
from repro.conformance.campaign import CampaignSpec
from repro.sim import SimContext, simulate
from repro.synth import (
    WorkloadSpec,
    cruise_controller_system,
    fig4_configuration,
    fig4_system,
    generate_workload,
)

from oracles import legacy_simulate
from test_conformance import SEED1654


def assert_traces_identical(legacy, kernel, context=""):
    """Bit-level equality of two SimulationTrace records."""
    assert legacy.process_response == kernel.process_response, context
    assert legacy.graph_response == kernel.graph_response, context
    assert legacy.message_latency == kernel.message_latency, context
    assert legacy.queue_peak == kernel.queue_peak, context
    assert legacy.violations == kernel.violations, context
    assert legacy.completed_instances == kernel.completed_instances, context


def run_both(system, config, periods=3, execution=None):
    result = multi_cluster_scheduling(
        system, config.bus, config.priorities, tt_delays=config.tt_delays
    )
    config.offsets = result.offsets
    legacy = legacy_simulate(
        system, config, result.schedule, periods=periods, execution=execution
    )
    kernel = simulate(
        system, config, result.schedule, periods=periods, execution=execution
    )
    return legacy, kernel


class TestPaperExamples:
    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_fig4_bit_identical(self, variant):
        system = fig4_system()
        config = fig4_configuration(variant)
        legacy, kernel = run_both(system, config, periods=4)
        assert_traces_identical(legacy, kernel, f"fig4 {variant}")

    def test_cruise_controller_bit_identical(self):
        system = cruise_controller_system()
        config = conformance_configuration(system)
        legacy, kernel = run_both(system, config, periods=3)
        assert_traces_identical(legacy, kernel, "cruise")


class TestPinnedFixture:
    def test_seed1654_bit_identical(self):
        fixture = load_fixture(SEED1654)
        legacy, kernel = run_both(fixture.system, fixture.config, periods=3)
        assert_traces_identical(legacy, kernel, "seed1654")
        # The fixture is a regression pin of a *fixed* divergence: both
        # engines must also agree it stays clean.
        assert kernel.violations == []


class TestWorkloadBatch:
    def test_campaign_scale_batch(self):
        spec = CampaignSpec()
        for seed in range(24):
            system = generate_workload(spec.workload_spec(seed))
            config = conformance_configuration(
                system, spec.rounds_per_period
            )
            legacy, kernel = run_both(system, config, periods=3)
            assert_traces_identical(legacy, kernel, f"seed {seed}")

    @pytest.mark.parametrize("periods", [3, 4])
    def test_two_node_smoke_workload(self, periods):
        """The 80-process 2-node system at the default seed, under its
        conformance configuration: the replay pattern of campaign seeds
        at the smallest paper dimension."""
        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        config = conformance_configuration(system, 10)
        legacy, kernel = run_both(system, config, periods=periods)
        assert_traces_identical(legacy, kernel, f"2-node {periods}")

    def test_bench_workload_with_violations(self):
        """160-process 4-node system whose canonical configuration
        dispatches TT consumers early: the violation records (causal
        journey fields included) must match field for field."""
        system = generate_workload(WorkloadSpec(nodes=4, seed=0))
        config = conformance_configuration(system, 10)
        legacy, kernel = run_both(system, config, periods=4)
        assert legacy.violations, "expected a violating scenario"
        assert_traces_identical(legacy, kernel, "bench workload")


class TestExecutionModel:
    def test_sub_wcet_execution_bit_identical(self):
        system = generate_workload(WorkloadSpec(nodes=4, seed=0))
        config = conformance_configuration(system, 10)

        def execution(name, instance):
            wcet = system.app.process(name).wcet
            return wcet * (0.5 + 0.4 * ((instance + len(name)) % 3) / 2)

        legacy, kernel = run_both(
            system, config, periods=3, execution=execution
        )
        assert_traces_identical(legacy, kernel, "execution model")


class TestContextReuse:
    def test_one_context_many_replays(self):
        """Replaying one compiled context must equal fresh compiles."""
        system = fig4_system()
        config = fig4_configuration("b")
        result = multi_cluster_scheduling(
            system, config.bus, config.priorities
        )
        config.offsets = result.offsets
        context = SimContext(system, config, result.schedule)
        for periods in (1, 3, 5):
            fresh = SimContext(system, config, result.schedule).run(periods)
            again = context.run(periods)
            assert_traces_identical(fresh, again, f"periods {periods}")
        assert context.stats.replays == 3

    def test_replay_counters_exposed(self):
        system = fig4_system()
        config = fig4_configuration("a")
        result = multi_cluster_scheduling(
            system, config.bus, config.priorities
        )
        config.offsets = result.offsets
        context = SimContext(system, config, result.schedule)
        context.run(2)
        profile = context.profile()
        assert profile["engine"] == "kernel"
        assert profile["events"] > 0
        assert (
            profile["static_events"] + profile["dynamic_events"]
            == profile["events"]
        )
        assert profile["events_per_s"] > 0
