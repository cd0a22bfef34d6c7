"""Tests for the sensitivity analysis and the ASCII Gantt renderer."""

import pytest

from repro.analysis import (
    critical_activities,
    multi_cluster_scheduling,
    wcet_scaling_margin,
)
from repro.analysis import sensitivity
from repro.exceptions import SchedulingError
from repro.io import render_schedule
from repro.synth import fig4_configuration, fig4_system

from helpers import two_node_config, two_node_system


class TestScalingMargin:
    def test_unschedulable_system_has_factor_one(self):
        system = fig4_system()
        config = fig4_configuration("a")  # misses the deadline
        result = wcet_scaling_margin(system, config)
        assert result.factor == 1.0
        assert not result.schedulable_at_factor

    def test_schedulable_system_has_headroom(self):
        system = two_node_system()
        config = two_node_config()
        result = wcet_scaling_margin(system, config, upper=8.0)
        assert result.schedulable_at_factor
        assert result.factor > 1.0
        assert result.margin_percent > 0.0

    def test_margin_boundary_is_real(self):
        """Just below the margin: schedulable; just above: not."""
        from repro.analysis.sensitivity import _scaled_copy, _schedulable

        system = two_node_system()
        config = two_node_config()
        result = wcet_scaling_margin(system, config, upper=8.0, tolerance=0.02)
        if result.factor >= 8.0:
            pytest.skip("margin beyond search range")
        assert _schedulable(_scaled_copy(system, result.factor * 0.99), config)
        assert not _schedulable(
            _scaled_copy(system, result.factor + 0.05), config
        )

    def test_analysis_bug_propagates(self, monkeypatch):
        """Only infeasibility counts as unschedulable: a defect in the
        analysis must not masquerade as a smaller margin."""
        def broken(*_args, **_kwargs):
            raise RuntimeError("defect in the analysis")

        monkeypatch.setattr(sensitivity, "multi_cluster_scheduling", broken)
        with pytest.raises(RuntimeError, match="defect in the analysis"):
            wcet_scaling_margin(two_node_system(), two_node_config())

    def test_scheduling_error_counts_as_unschedulable(self, monkeypatch):
        def infeasible(*_args, **_kwargs):
            raise SchedulingError("TTP slot overloaded")

        monkeypatch.setattr(sensitivity, "multi_cluster_scheduling", infeasible)
        result = wcet_scaling_margin(two_node_system(), two_node_config())
        assert result.factor == 1.0
        assert not result.schedulable_at_factor

    def test_original_system_not_mutated(self):
        system = two_node_system()
        config = two_node_config()
        before = system.app.process("A").wcet
        wcet_scaling_margin(system, config, upper=2.0, tolerance=0.1)
        assert system.app.process("A").wcet == before


class TestCriticalActivities:
    def test_sinks_ranked_by_slack(self):
        system = fig4_system()
        config = fig4_configuration("a")
        result = multi_cluster_scheduling(system, config.bus, config.priorities)
        critical = critical_activities(system, result.rho, limit=3)
        names = [name for name, _slack in critical]
        # P4 ends at 210 vs deadline 200: the most critical sink.
        assert names[0] == "P4"
        slacks = [slack for _name, slack in critical]
        assert slacks == sorted(slacks)
        assert slacks[0] == pytest.approx(-10.0)


class TestGantt:
    def test_renders_all_rows(self):
        system = fig4_system()
        config = fig4_configuration("a")
        result = multi_cluster_scheduling(system, config.bus, config.priorities)
        art = render_schedule(system, result.schedule, config.bus)
        assert "N1" in art
        assert "TTP grid" in art
        assert "frames" in art
        # Process names appear on their node rows.
        assert "P1" in art

    def test_width_respected(self):
        system = fig4_system()
        config = fig4_configuration("b")
        result = multi_cluster_scheduling(system, config.bus, config.priorities)
        art = render_schedule(system, result.schedule, config.bus, width=40)
        for line in art.splitlines()[1:]:
            inner = line[line.index("|") + 1 : line.rindex("|")]
            assert len(inner) == 40
