"""Parity suite for the compiled analysis kernel.

The kernel (:mod:`repro.analysis.kernel`) is a performance refactor of
the holistic analysis, so its entire contract is "same numbers, less
work".  Three layers of evidence:

* a seeded property test comparing :func:`response_time_analysis` (the
  kernel wrapper) against :func:`oracles.legacy_response_time_analysis`
  (the pre-kernel implementation, kept verbatim as a test oracle) across
  random ``generate_workload`` instances — processes, CAN legs, TTP legs
  and convergence flags must agree bit for bit (seed 0 is the 2-node
  workload ``benchmarks/test_bench_kernel.py`` replays);
* an incremental-recompilation test: a kernel dragged through a random
  OptimizeResources-style move sequence (priority swaps, slot resizes,
  slot swaps, TT delays) must produce bit-identical results to a kernel
  compiled from scratch (on a pickled copy of the System, which carries
  no compiled state) at every step, with zero additional full compiles;
* session-level assertions for the optimizer contract: an OR run
  through a session performs exactly one full kernel compile.
"""

import pickle
import random

import pytest

from repro.analysis.holistic import response_time_analysis
from repro.analysis.kernel import AnalysisContext, kernel_for
from repro.analysis.multicluster import multi_cluster_scheduling
from repro.api import Session
from repro.optim import optimize_resources, straightforward_configuration
from repro.optim.moves import generate_neighbors
from repro.schedule import static_schedule
from repro.synth import WorkloadSpec, generate_workload

from oracles import legacy_response_time_analysis
from oracles.deltas import offsets_max_abs_delta, rho_max_abs_delta


def assert_rho_equal(a, b, tol=0.0, context=""):
    """Structural equality of two ResponseTimes, to ``tol``.

    Thin assertion shell over :func:`oracles.deltas.rho_max_abs_delta`
    (the single source of truth for rho comparison — ``inf`` on structural
    or convergence mismatch, else the worst per-field delta).
    """
    delta = rho_max_abs_delta(a, b)
    assert delta <= tol, (
        f"{context}: rho records differ (max |delta| = {delta})"
    )


class TestKernelMatchesLegacyAnalysis:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_workloads_bit_identical(self, seed):
        """Property: kernel == legacy across random workloads.

        Mixes node counts and utilizations (higher utilization produces
        non-converged activities, exercising the divergence paths).
        """
        nodes = 2 + (seed % 3)
        util = (0.25, 0.5, 0.7)[seed % 3]
        system = generate_workload(
            WorkloadSpec(nodes=nodes, seed=seed, target_utilization=util)
        )
        config = straightforward_configuration(system)
        schedule = static_schedule(system, config.bus)
        legacy = legacy_response_time_analysis(
            system, schedule.offsets, config.priorities, config.bus
        )
        kernel = response_time_analysis(
            system, schedule.offsets, config.priorities, config.bus
        )
        assert_rho_equal(
            legacy, kernel, tol=0.0, context=f"seed={seed}"
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_multicluster_loop_bit_identical(self, seed):
        """The Fig. 5 loop on the kernel == the loop on the legacy RTA."""
        system = generate_workload(WorkloadSpec(nodes=3, seed=seed))
        config = straightforward_configuration(system)
        result = multi_cluster_scheduling(
            system, config.bus, config.priorities
        )
        # Reference: re-run the solved offsets through the legacy RTA.
        legacy = legacy_response_time_analysis(
            system, result.offsets, config.priorities, config.bus
        )
        assert_rho_equal(
            legacy, result.rho, tol=0.0, context=f"seed={seed}"
        )

    def test_kernel_reuse_across_calls_is_stateless(self):
        """Back-to-back solves on one kernel don't contaminate each other
        (both calls run on the System's one kernel)."""
        system = generate_workload(WorkloadSpec(nodes=2, seed=3))
        config = straightforward_configuration(system)
        schedule = static_schedule(system, config.bus)
        first = response_time_analysis(
            system, schedule.offsets, config.priorities, config.bus,
        )
        second = response_time_analysis(
            system, schedule.offsets, config.priorities, config.bus,
        )
        assert len(system._kernels) == 1
        assert_rho_equal(first, second, tol=0.0, context="reuse")


class TestIncrementalRecompilation:
    @pytest.mark.parametrize("seed", range(4))
    def test_move_sequence_equals_full_recompile(self, seed):
        """OR-style move walks: incremental update == fresh compile."""
        system = generate_workload(WorkloadSpec(nodes=3, seed=seed))
        config = straightforward_configuration(system)
        kernel = kernel_for(system, config.priorities, config.bus)
        rng = random.Random(seed)
        current = config
        multi_cluster_scheduling(
            system, current.bus, current.priorities,
            tt_delays=current.tt_delays,
        )
        for step in range(10):
            move = rng.choice(
                generate_neighbors(system, current, rng=rng, limit=12)
            )
            current = move.apply(current)
            incremental = multi_cluster_scheduling(
                system, current.bus, current.priorities,
                tt_delays=current.tt_delays,
            )
            fresh_system = pickle.loads(pickle.dumps(system))
            fresh = multi_cluster_scheduling(
                fresh_system, current.bus, current.priorities,
                tt_delays=current.tt_delays,
            )
            assert fresh_system._kernels[None] is not kernel
            label = f"seed={seed} step={step} move={move.describe()}"
            assert incremental.converged == fresh.converged, label
            assert incremental.iterations == fresh.iterations, label
            assert (
                offsets_max_abs_delta(incremental.offsets, fresh.offsets)
                == 0.0
            ), label
            assert_rho_equal(
                fresh.rho, incremental.rho, tol=0.0, context=label
            )
        assert kernel.stats.compiles == 1

    def test_non_adjacent_priority_swap_rebuilds_between_rows(self):
        """Swapping priorities i<k also refreshes rows with i<prio<k."""
        system = generate_workload(WorkloadSpec(nodes=2, seed=1))
        config = straightforward_configuration(system)
        kernel = AnalysisContext(system, config.priorities, config.bus)
        msgs = sorted(
            config.priorities.message_priorities,
            key=config.priorities.message_priority,
        )
        assert len(msgs) >= 3
        moved = config.copy()
        moved.priorities.swap_messages(msgs[0], msgs[-1])
        schedule = static_schedule(system, moved.bus)
        kernel.update(moved.priorities, moved.bus)
        incremental, _ = kernel.solve(schedule.offsets)
        fresh = AnalysisContext(system, moved.priorities, moved.bus)
        full, _ = fresh.solve(schedule.offsets)
        assert_rho_equal(full, incremental, tol=0.0, context="endpoint swap")

    def test_bus_only_change_is_incremental(self):
        """A slot resize/swap touches scalars, never interference rows."""
        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        config = straightforward_configuration(system)
        kernel = AnalysisContext(system, config.priorities, config.bus)
        rows_before = kernel.stats.rows_recompiled
        slots = list(config.bus.slots)
        slots[0], slots[1] = slots[1], slots[0]
        swapped = type(config.bus)(slots)
        assert kernel.update(config.priorities, swapped) == "incremental"
        assert kernel.stats.rows_recompiled == rows_before
        assert kernel.stats.compiles == 1

    def test_unchanged_config_is_cached(self):
        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        config = straightforward_configuration(system)
        kernel = AnalysisContext(system, config.priorities, config.bus)
        assert kernel.update(config.priorities, config.bus) == "cached"
        assert kernel.stats.updates == 0


class TestSessionKernelContract:
    def test_or_run_performs_single_full_compile(self):
        """Acceptance: OR through a session = one compile, then
        incremental recompiles only."""
        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        session = Session(system)
        optimize_resources(
            system, session=session, max_iterations=3,
            neighborhood=6, max_climbs=1,
        )
        info = session.cache_info()
        assert info.backend_calls > 1
        assert info.kernel_compiles == 1
        assert info.kernel_updates >= 1
        assert info.analysis_time > 0.0

    def test_one_kernel_per_system_and_modeled_fault_spec(
        self, monkeypatch
    ):
        """Sessions, session-less evaluations and repeated faulted runs
        on one System share its kernels: one full compile per System
        and modeled fault spec."""
        from repro.optim import evaluate

        compiles = []
        update = AnalysisContext.update

        def counting_update(self, priorities, bus, routes=None):
            outcome = update(self, priorities, bus, routes=routes)
            if outcome == "compiled":
                compiles.append(self.faults)
            return outcome

        monkeypatch.setattr(AnalysisContext, "update", counting_update)
        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        config = straightforward_configuration(system)
        first, second = Session(system), Session(system)
        first.evaluate(config)
        second.evaluate(config.copy())
        evaluate(system, config.copy())
        assert len(compiles) == 1
        assert first.cache_info().kernel_compiles == 1
        assert second.cache_info().kernel_compiles == 1

        # CAN-error-only specs derate nothing: each runs on the System
        # itself, on a kernel of its own that repeated runs reuse.
        for interval in (40.0, 80.0):
            spec = {"can_error_interval": interval, "can_error_overhead": 0.5}
            for _ in range(3):
                run = first.evaluate(config.copy(), memoize=False, faults=spec)
                assert run.metadata["fault_derated"] is False
        assert len(compiles) == 3
        assert len(system._kernels) == 3
        assert first.cache_info().kernel_compiles == 3

    def test_replacement_analysis_backend_gets_no_kernel_kwarg(self):
        """A user backend registered over "analysis" (replace=True) is
        called with the options the caller passed and nothing else.
        Covers both a plain EvaluationBackend and an AnalysisBackend
        subclass overriding run() with a narrower signature."""
        from repro.api.backends import (
            AnalysisBackend,
            EvaluationBackend,
            register_backend,
        )
        from repro.api.result import RunResult

        class Minimal(EvaluationBackend):
            name = "analysis"

            def run(self, system, config):  # no kernel parameter
                return RunResult(backend=self.name, config=config)

        class OldStyle(AnalysisBackend):
            def run(self, system, config, max_iterations=30):
                return RunResult(backend=self.name, config=config)

        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        config = straightforward_configuration(system)
        for replacement in (Minimal(), OldStyle()):
            register_backend("analysis", replacement, replace=True)
            try:
                run = Session(system).evaluate(config)
                assert run.backend == "analysis"
            finally:
                register_backend(
                    "analysis", AnalysisBackend, replace=True
                )

    def test_pool_batch_with_own_kernel_stays_clean(self):
        """workers>1 evaluates on the executor's System copies, each with
        its own compiled kernel, and memoizes good results only."""
        import warnings

        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        session = Session(system)
        config = straightforward_configuration(system)
        session.evaluate(config)  # the caller's System holds a kernel
        variants = []
        msgs = sorted(
            config.priorities.message_priorities,
            key=config.priorities.message_priority,
        )
        for i in range(3):
            v = config.copy()
            v.priorities.swap_messages(msgs[i], msgs[i + 1])
            variants.append(v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no silent inline fallback
            runs = session.evaluate_many(variants, workers=2)
        assert all(run.feasible for run in runs)
        # And the memo cache holds the good results, not errors.
        again = session.evaluate(variants[0].copy())
        assert again.feasible
