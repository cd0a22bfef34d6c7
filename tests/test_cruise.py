"""Tests for the cruise-controller model and its paper-shaped behaviour."""

import pytest

from repro.analysis import graph_response_time
from repro.model import validate_system
from repro.optim import optimize_schedule, run_straightforward
from repro.synth import CRUISE_DEADLINE, cruise_controller_system


@pytest.fixture(scope="module")
def system():
    return cruise_controller_system()


class TestModelShape:
    def test_forty_processes_one_graph(self, system):
        assert system.app.process_count() == 40
        assert list(system.app.graphs) == ["CC"]

    def test_architecture_two_plus_two(self, system):
        assert system.arch.tt_node_names() == ["TT1", "TT2"]
        assert system.arch.et_node_names() == ["ET1", "ET2"]

    def test_valid_system(self, system):
        validate_system(system.app, system.arch)

    def test_deadline(self, system):
        assert system.app.graphs["CC"].deadline == CRUISE_DEADLINE

    def test_speedup_part_on_etc(self, system):
        # The control and supervisor chains live on the ETC.
        for name in ("ctl0", "ctl7"):
            assert system.app.process(name).node == "ET1"
        for name in ("sup0", "sup7"):
            assert system.app.process(name).node == "ET2"

    def test_control_path_crosses_gateway(self, system):
        gateway = {m.name for m in system.arch.gateway_messages(system.app)}
        assert {"m_speed", "m_setpt", "m_cmd", "m_limit", "m_snap"} <= gateway


class TestPaperShape:
    def test_sf_misses_os_meets(self, system):
        sf = run_straightforward(system)
        assert not sf.schedulable
        assert graph_response_time(system, sf.analysis.rho, "CC") > CRUISE_DEADLINE
        osr = optimize_schedule(system)
        assert osr.schedulable
        assert (
            graph_response_time(system, osr.best.analysis.rho, "CC")
            <= CRUISE_DEADLINE
        )
