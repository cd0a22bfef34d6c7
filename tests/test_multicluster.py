"""Unit tests for the MultiClusterScheduling fixed-point loop (Fig. 5)."""

import pytest

from repro.analysis import multi_cluster_scheduling
from repro.synth import fig4_configuration, fig4_system

from helpers import two_node_config, two_node_system
from oracles.deltas import offsets_max_abs_delta


class TestFixedPoint:
    def test_converges_on_small_chain(self):
        system = two_node_system()
        config = two_node_config()
        result = multi_cluster_scheduling(system, config.bus, config.priorities)
        assert result.converged
        assert result.iterations >= 1

    def test_fixed_point_is_stable(self):
        """Re-running the loop from its own output changes nothing."""
        system = two_node_system()
        config = two_node_config()
        r1 = multi_cluster_scheduling(system, config.bus, config.priorities)
        r2 = multi_cluster_scheduling(system, config.bus, config.priorities)
        assert offsets_max_abs_delta(r1.offsets, r2.offsets) == 0.0

    def test_receiver_waits_for_gateway_arrival(self):
        system = two_node_system()
        config = two_node_config()
        result = multi_cluster_scheduling(system, config.bus, config.priorities)
        arrival = result.rho.ttp["mb"].worst_end
        assert result.offsets.process_offset("C") >= arrival - 1e-9

    def test_iteration_cap_respected(self):
        # ``iterations`` reports the *true* number of analysis passes:
        # a capped run that did not converge performed max_iterations+1
        # passes (the initial one plus one per loop turn), and the count
        # is not clamped down to the cap.
        system = fig4_system()
        config = fig4_configuration("a")
        result = multi_cluster_scheduling(
            system, config.bus, config.priorities, max_iterations=1
        )
        if result.converged:
            assert result.iterations <= 2
        else:
            assert result.iterations == 2

    def test_tt_delays_propagate_into_offsets(self):
        system = two_node_system()
        config = two_node_config()
        base = multi_cluster_scheduling(system, config.bus, config.priorities)
        delayed = multi_cluster_scheduling(
            system, config.bus, config.priorities, tt_delays={"A": 11.0}
        )
        assert (
            delayed.offsets.process_offset("A")
            >= base.offsets.process_offset("A") + 11.0
        )

    def test_schedule_artifacts_exposed(self):
        system = two_node_system()
        config = two_node_config()
        result = multi_cluster_scheduling(system, config.bus, config.priorities)
        assert result.schedule.table_of("N1")
        assert result.schedule.frame_of("ma") is not None
