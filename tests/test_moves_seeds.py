"""Tests for move semantics, the seed pool and the annealer internals."""

import random

import pytest

from repro.optim import (
    DelayActivity,
    ResizeSlot,
    SwapMessagePriorities,
    SwapProcessPriorities,
    SwapSlots,
    evaluate,
    optimize_schedule,
    simulated_annealing,
    straightforward_configuration,
)
from repro.optim.moves import _targeted_spread_moves
from repro.optim.optimize_schedule import SeedPool
from repro.synth import WorkloadSpec, fig4_configuration, fig4_system, generate_workload


@pytest.fixture(scope="module")
def system():
    return fig4_system()


class TestMoveSemantics:
    def test_swap_slots(self, system):
        config = fig4_configuration("a")
        moved = SwapSlots(0, 1).apply(config)
        assert [s.node for s in moved.bus.slots] == ["N1", "NG"]
        assert [s.node for s in config.bus.slots] == ["NG", "N1"]

    def test_swap_process_priorities(self, system):
        config = fig4_configuration("a")
        moved = SwapProcessPriorities("P2", "P3").apply(config)
        assert moved.priorities.process_priority("P2") == 1
        assert config.priorities.process_priority("P2") == 2

    def test_swap_message_priorities(self, system):
        config = fig4_configuration("a")
        moved = SwapMessagePriorities("m1", "m3").apply(config)
        assert moved.priorities.message_priority("m1") == 3
        assert moved.priorities.message_priority("m3") == 1

    def test_delay_set_and_clear(self, system):
        config = fig4_configuration("a")
        delayed = DelayActivity("m2", 12.0).apply(config)
        assert delayed.tt_delays == {"m2": 12.0}
        cleared = DelayActivity("m2", 0.0).apply(delayed)
        assert cleared.tt_delays == {}

    def test_delay_changes_analysis(self, system):
        config = fig4_configuration("b")
        base = evaluate(system, config)
        delayed = evaluate(system, DelayActivity("m2", 45.0).apply(config))
        # Delaying m2 by a round pushes it to a later TDMA round.
        assert (
            delayed.analysis.offsets.message_offset("m2")
            > base.analysis.offsets.message_offset("m2")
        )


class TestTargetedMoves:
    def test_spread_moves_target_coresident_pairs(self):
        # Fig. 4: m1 and m2 share the gateway frame and co-reside in
        # Out_CAN; the targeted generator must propose separating them.
        system = fig4_system()
        base = evaluate(system, fig4_configuration("b"))
        moves = _targeted_spread_moves(system, base.config, base)
        assert any(
            isinstance(m, DelayActivity) and m.activity in ("m1", "m2")
            for m in moves
        )


class TestSeedPool:
    def test_keeps_best_by_degree_and_buffers(self):
        system = generate_workload(
            WorkloadSpec(nodes=2, processes_per_node=10, seed=4)
        )
        pool = SeedPool(limit=2)
        configs = [straightforward_configuration(system) for _ in range(3)]
        evals = [evaluate(system, c) for c in configs]
        for e in evals:
            pool.add(e)
        seeds = pool.seeds()
        assert 1 <= len(seeds) <= 4
        assert all(s.feasible for s in seeds)

    def test_infeasible_never_pooled(self):
        from repro.api import RunResult

        pool = SeedPool()
        pool.add(RunResult(backend="analysis", error="broken"))
        assert pool.seeds() == []


class TestAnnealer:
    def test_zero_iterations_returns_initial(self, system):
        config = fig4_configuration("b")
        result = simulated_annealing(
            system, config, lambda e: e.degree, iterations=0
        )
        assert result.evaluations == 1
        assert result.accepted == 0

    def test_deterministic_for_seed(self, system):
        config = fig4_configuration("a")
        a = simulated_annealing(
            system, config, lambda e: e.degree, iterations=15, seed=5
        )
        b = simulated_annealing(
            system, config, lambda e: e.degree, iterations=15, seed=5
        )
        assert a.best.degree == b.best.degree
        assert a.accepted == b.accepted

    def test_never_returns_worse_than_initial(self, system):
        config = fig4_configuration("a")
        initial = evaluate(system, config.copy())
        result = simulated_annealing(
            system, config, lambda e: e.degree, iterations=25, seed=2
        )
        assert result.best.degree <= initial.degree + 1e-9
