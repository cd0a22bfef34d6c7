"""Parity suite for the active-set holistic fixed point.

The kernel's solve skips every row whose inputs have not changed since
it was last solved, answers a repeated solve from its cache of
earlier solves, and, inside the Fig. 5 loop, packages only the FIFO
records of ``ρ`` per pass.  Its contract is "same numbers, less work":
the reference is :func:`oracles.full_sweep_solve`, the same fixed point
run by full sweeps.  Every solve of OS, OR and SA runs on the ``synth``
benchmark's workload shape, of a routed multi-gateway campaign and of a
campaign with a modeled CAN error process is re-solved by the oracle
with the same ``(φ, π, β, plan, faults)``; the fully packaged ``ρ``
(every record and dict order) and the :class:`SolveState` must agree
bit for bit.
"""

import pytest

from helpers import two_node_config
from repro.analysis import kernel as kernel_module
from repro.analysis.kernel import AnalysisContext
from repro.conformance import CampaignSpec
from repro.conformance.campaign import run_campaign
from repro.buses import CanBusSpec
from repro.exceptions import AnalysisError
from repro.explore.engine import run_sweep
from repro.explore.spec import SweepSpec
from repro.model import (
    Application,
    Architecture,
    Dependency,
    Message,
    OffsetTable,
    PriorityAssignment,
    Process,
    ProcessGraph,
)
from repro.optim import straightforward_configuration
from repro.schedule.list_scheduler import static_schedule
from repro.synth import (
    WorkloadSpec,
    fig4_configuration,
    fig4_system,
    generate_workload,
)
from repro.system import System

from oracles import full_sweep_solve

FIELDS = ("processes", "can", "ttp", "hops", "tt_arrival")


def assert_bit_identical(actual, expected, context=""):
    """Every record, field and dict order equal (``repr`` is exact)."""
    for field in FIELDS:
        got = list(getattr(actual, field).items())
        want = list(getattr(expected, field).items())
        assert repr(got) == repr(want), f"{context}: {field} differs"


@pytest.fixture
def oracle_checked(monkeypatch):
    """Re-solve every kernel solve by full sweeps; yields per-solve
    records: whether the solve was reused."""
    checked = []
    solve = AnalysisContext.solve

    def checked_solve(self, offsets, ttp_only=False):
        reused = self.stats.reused_solves
        rho, state = solve(self, offsets, ttp_only)
        full = self.package(state)
        label = f"solve {len(checked)}"
        expected_rho, expected_state = full_sweep_solve(self, offsets)
        assert_bit_identical(full, expected_rho, label)
        assert repr(state) == repr(expected_state), label
        if ttp_only:
            assert repr(rho.ttp) == repr(full.ttp), label
            assert not (rho.processes or rho.can or rho.hops
                        or rho.tt_arrival), label
        else:
            assert_bit_identical(rho, full, label)
        checked.append(self.stats.reused_solves > reused)
        return rho, state

    monkeypatch.setattr(AnalysisContext, "solve", checked_solve)
    return checked


def test_synth_heuristics_match_full_sweeps(oracle_checked):
    """OS, OR and SA on the ``synth`` workload shape."""
    spec = SweepSpec(
        name="active-set-parity",
        workload={"nodes": 2, "processes_per_node": 10,
                  "seed": [1000, 1001]},
        methods=("OS", "OR", "SAS"),
        options={"sa_iterations": 20},
    )
    report = run_sweep(spec)
    assert not report.errored
    assert len(oracle_checked) > 200
    # The runs exercised the cache of identical solves.
    assert any(oracle_checked)


CAN_ERRORS = {
    "can_error_interval": 25.0,
    "can_error_overhead": 0.5,
    "bus_slow": 1.1,
}

CAMPAIGNS = {
    # Parallel gateways: FIFO rows that read each other's queueing
    # delays in place.
    "2c2g-parallel-random": dict(clusters=2, gateways=2, nodes=4),
    "4c4g-random": dict(clusters=4, gateways=4, nodes=6),
    "4c4g-random-can-errors": dict(clusters=4, gateways=4, nodes=6,
                                   faults=CAN_ERRORS),
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_solves_match_full_sweeps(name, oracle_checked):
    spec = CampaignSpec(campaign=25, seed0=400, shrink=False,
                        route_strategy="random", **CAMPAIGNS[name])
    report = run_campaign(spec)
    assert report.clean, report.counts()
    assert len(oracle_checked) > spec.campaign


def _fig4_kernel():
    system = fig4_system()
    config = fig4_configuration("b")
    kernel = AnalysisContext(system, config.priorities, config.bus)
    offsets = static_schedule(system, config.bus).offsets
    return system, config, kernel, offsets


def test_counters_on_the_fig4_fixture():
    system, config, kernel, offsets = _fig4_kernel()
    rho, state = kernel.solve(offsets)
    stats = kernel.stats
    assert (stats.solves, stats.reused_solves) == (1, 0)
    # Six rows (3 CAN, 1 FIFO, 2 process) over two sweeps: the first
    # solves all six, the second the two whose inputs moved.
    assert (stats.rows_solved, stats.rows_skipped) == (8, 4)
    again, again_state = kernel.solve(offsets)
    assert (stats.solves, stats.reused_solves) == (2, 1)
    assert (stats.rows_solved, stats.rows_skipped) == (8, 4)
    assert again_state is state
    fresh, fresh_state = AnalysisContext(
        system, config.priorities, config.bus
    ).solve(offsets)
    assert_bit_identical(again, fresh, "reused solve")
    assert repr(again_state) == repr(fresh_state)


def test_reuse_keys_on_the_offsets_the_solve_reads():
    """A TT predecessor's offset is read by the release jitters and
    keys the cache; an offset the ET analysis never reads does not, yet
    a reused solve still reports the new offset."""
    graph = ProcessGraph(
        name="G", period=100.0, deadline=100.0,
        processes=[
            Process("A", wcet=5.0, node="N1"),
            Process("B", wcet=4.0, node="N2"),
            Process("C", wcet=3.0, node="N1"),
            Process("X", wcet=2.0, node="N2"),
        ],
        messages=[Message("mb", src="B", dst="C", size=8)],
        # A TT predecessor without a message: B's release jitter reads
        # A's offset directly.
        dependencies=[Dependency("A", "B")],
    )
    arch = Architecture(tt_nodes=["N1"], et_nodes=["N2"], gateway="NG")
    system = System(Application([graph]), arch,
                    can_spec=CanBusSpec(fixed_frame_time=2.0))
    priorities = PriorityAssignment(
        process_priorities={"B": 1, "X": 2},
        message_priorities={"mb": 1},
    )
    bus = two_node_config().bus
    kernel = AnalysisContext(system, priorities, bus)
    stats = kernel.stats

    def offsets(a, c):
        return OffsetTable({"A": a, "B": 0.0, "C": c, "X": 0.0},
                           {"mb": 0.0})

    kernel.solve(offsets(0.0, 50.0))
    for table, reused in ((offsets(7.0, 50.0), 0), (offsets(7.0, 60.0), 1)):
        rho, state = kernel.solve(table)
        assert stats.reused_solves == reused
        fresh, fresh_state = AnalysisContext(
            system, priorities, bus
        ).solve(table)
        assert_bit_identical(rho, fresh)
        assert repr(state) == repr(fresh_state)
    assert rho.processes["B"].jitter == 12.0
    assert rho.processes["C"].offset == 60.0


def test_reuse_is_dropped_with_the_plan():
    system = generate_workload(
        WorkloadSpec(clusters=3, gateways=3, nodes=4, seed=3)
    )
    config = straightforward_configuration(system)
    kernel = AnalysisContext(system, config.priorities, config.bus)
    offsets = static_schedule(system, config.bus).offsets
    kernel.solve(offsets)
    assert kernel._solved
    routed = {
        m.name: route
        for m in system.app.all_messages()
        for route in [system.topology.routes_between(
            *system.clusters_of_message(m.name))[-1]]
        if system.is_intercluster(m.name)
        and route != system.default_route(m.name)
    }
    assert routed
    kernel.update(config.priorities, config.bus, routes=routed)
    assert not kernel._solved


def test_non_stabilizing_solve_raises(monkeypatch):
    _, _, kernel, offsets = _fig4_kernel()
    monkeypatch.setattr(kernel_module, "_MAX_OUTER_ITERATIONS", 1)
    with pytest.raises(AnalysisError, match="did not stabilize"):
        kernel.solve(offsets)
    with pytest.raises(AnalysisError, match="did not stabilize"):
        full_sweep_solve(kernel, offsets)
