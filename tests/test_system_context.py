"""Tests for the System context: caches, routing lists, ancestor sets."""

import pytest

from repro.exceptions import ModelError
from repro.synth import fig4_system

from helpers import two_node_system
from oracles.busy_window import phase_locked_hits


class TestSystemCaches:
    def test_can_messages_cover_all_gateway_routes(self):
        system = fig4_system()
        assert system.can_messages() == ["m1", "m2", "m3"]
        assert system.tt_to_et_messages() == ["m1", "m2"]
        assert system.et_to_tt_messages() == ["m3"]

    def test_out_node_membership(self):
        system = fig4_system()
        # m3 leaves N2 through its CAN controller queue.
        assert system.et_to_et_messages_from("N2") == ["m3"]
        assert system.et_to_et_messages_from("NG") == []

    def test_frame_time_for_non_can_message_raises(self):
        system = two_node_system()
        with pytest.raises(ModelError):
            system.can_frame_time("nonexistent")

    def test_et_processes_on(self):
        system = fig4_system()
        assert system.et_processes_on("N2") == ["P2", "P3"]
        assert system.et_processes_on("N1") == []

    def test_process_partitions(self):
        system = fig4_system()
        assert system.tt_processes() == ["P1", "P4"]
        assert system.et_processes() == ["P2", "P3"]


class TestAncestors:
    def test_process_ancestors(self):
        system = fig4_system()
        # P1 -> P2 -> P4 (via m1, m3); P1 -> P3 (via m2).
        assert system.process_is_ancestor("P1", "P2")
        assert system.process_is_ancestor("P1", "P4")
        assert system.process_is_ancestor("P2", "P4")
        assert not system.process_is_ancestor("P3", "P4")
        assert not system.process_is_ancestor("P4", "P1")
        assert not system.process_is_ancestor("P2", "P2")

    def test_message_ancestors(self):
        system = fig4_system()
        # m1 delivers into P2, the sender of m3.
        assert system.message_is_ancestor("m1", "m3")
        # m2 feeds P3, which is not upstream of m3.
        assert not system.message_is_ancestor("m2", "m3")
        assert not system.message_is_ancestor("m3", "m1")


class TestPhaseLockedHits:
    def test_simultaneous_release_counts(self):
        assert phase_locked_hits(0.0, 0.0, 0.0, 100.0, 0.0, 0.0, False) == 1

    def test_forward_window_counts(self):
        # Interferer 10 after me; window 15 long: one overlap.
        assert phase_locked_hits(15.0, 0.0, 10.0, 100.0, 0.0, 0.0, False) == 1
        # Window too short: none.
        assert phase_locked_hits(5.0, 0.0, 10.0, 100.0, 0.0, 0.0, False) == 0

    def test_own_jitter_widens_window(self):
        assert phase_locked_hits(5.0, 8.0, 10.0, 100.0, 0.0, 0.0, False) == 1

    def test_backward_residency_counts(self):
        # Interferer 90 forward = 10 backward; still present for 12 after
        # arrival: overlaps.
        assert phase_locked_hits(1.0, 0.0, 90.0, 100.0, 0.0, 12.0, False) == 1
        # Residency too short: gone before I start.
        assert phase_locked_hits(1.0, 0.0, 90.0, 100.0, 0.0, 5.0, False) == 0

    def test_ancestor_prior_instance_excluded(self):
        # Same numbers as the backward case, but as an ancestor: the
        # prior-instance overlap is causally impossible.
        assert phase_locked_hits(1.0, 0.0, 90.0, 100.0, 0.0, 12.0, True) == 0

    def test_ancestor_future_instance_still_counts(self):
        # Window long enough to reach the ancestor's *next* activation.
        assert phase_locked_hits(95.0, 0.0, 90.0, 100.0, 0.0, 12.0, True) == 1

    def test_multiple_periods(self):
        assert phase_locked_hits(250.0, 0.0, 0.0, 100.0, 0.0, 0.0, False) == 3
