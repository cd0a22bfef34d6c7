"""Parity suite for the interned-leg buffer bounds.

:func:`repro.analysis.buffers.buffer_bounds` compiles each queue's
membership and pair constants once per ``(System, plan)`` and reads
each leg's timing once per call.  The reference is
:func:`oracles.legacy_buffer_bounds`, the name-keyed pair loop kept
unchanged as a test oracle.  Every evaluation the OS, OR and SA
heuristics run — through ``Session`` and the analysis backend, exactly
as a synthesis run does — is re-bounded by the oracle on the same
``(System, π, ρ, plan)``, and the two reports must agree bit for bit
(``repr`` is exact, ``out_node`` order included).  The workloads cover
the canonical topology, routed 3- and 4-cluster systems whose
optimizers move messages onto multi-hop routes, a modeled CAN error
process on a derated bus, overloaded systems whose non-converged
queues report ``UNBOUNDED_PENALTY``, and a multi-rate system whose
unequal-period pairs count ``ceil0`` arrivals.
"""

import random
from dataclasses import replace

import pytest

import repro.api.backends as backends
from repro.analysis.buffers import UNBOUNDED_PENALTY, buffer_bounds
from repro.api import Session
from repro.conformance import conformance_configuration
from repro.io.serialize import system_from_dict, system_to_dict
from repro.optim import optimize_resources, optimize_schedule, sa_schedule
from repro.synth.workload import WorkloadSpec, generate_workload

from oracles.legacy_buffers import legacy_buffer_bounds

#: The CI fault spec: a modeled CAN error process on a derated bus.
CAN_ERRORS = {
    "can_error_interval": 25.0,
    "can_error_overhead": 0.5,
    "bus_slow": 1.1,
}

WORKLOADS = {
    "canonical": (dict(nodes=2, processes_per_node=10, seed=3), None),
    "3c3g": (dict(clusters=3, gateways=3, nodes=4, processes_per_node=8,
                  seed=1), None),
    "4c4g": (dict(clusters=4, gateways=4, nodes=6, processes_per_node=6,
                  seed=2), None),
    "4c4g-can-errors": (dict(clusters=4, gateways=4, nodes=6,
                             processes_per_node=6, seed=2), CAN_ERRORS),
    # A 26x slower CAN bus: some of the optimizers' candidates overload
    # it, the others converge.
    "overloaded": (dict(nodes=2, processes_per_node=10, seed=0),
                   {"bus_slow": 26.0}),
    # Every other graph at half the period: unequal-period pairs take
    # the ceil0 arrival count, tie epsilon included.
    "multi-rate": (dict(nodes=2, processes_per_node=16, seed=0), None),
}


def _half_rate_graphs(system):
    """``system`` with every other graph at half its period."""
    data = system_to_dict(system)
    for graph in data["application"]["graphs"][1::2]:
        graph["period"] /= 2
        graph["deadline"] = min(graph["deadline"], graph["period"])
        for proc in graph["processes"]:
            if proc.get("deadline") is not None:
                proc["deadline"] = min(proc["deadline"], graph["period"])
    return system_from_dict(data)


class _FaultySession(Session):
    """A session whose every evaluation runs under one fault spec."""

    def __init__(self, system, faults):
        super().__init__(system)
        self.faults = faults

    def evaluate(self, config, backend=None, memoize=True, **options):
        return super().evaluate(
            config, backend, memoize, faults=self.faults, **options
        )


def _report(report):
    return repr((report.out_can, report.out_ttp, list(report.out_node.items())))


@pytest.fixture
def compared(monkeypatch):
    """Every backend buffer bound, checked against the oracle."""
    reports = []
    bounds = backends.buffer_bounds

    def checked(system, priorities, rho, plan=None):
        report = bounds(system, priorities, rho, plan=plan)
        expected = legacy_buffer_bounds(system, priorities, rho, plan=plan)
        assert _report(report) == _report(expected)
        reports.append((report, plan))
        return report

    monkeypatch.setattr(backends, "buffer_bounds", checked)
    return reports


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_optimizer_evaluations_match_oracle(name, compared):
    spec, faults = WORKLOADS[name]
    system = generate_workload(WorkloadSpec(**spec))
    if name == "multi-rate":
        system = _half_rate_graphs(system)
        periods = {g.period for g in system.app.graphs.values()}
        assert len(periods) == 2
    if faults is None:
        session = Session(system)
    else:
        session = _FaultySession(system, faults)
    os_result = optimize_schedule(system, seed_limit=2, session=session)
    optimize_resources(
        system, os_result=os_result, max_iterations=3, neighborhood=8,
        session=session,
    )
    sa_schedule(system, iterations=15, seed=1, session=session)
    assert len(compared) >= 20
    unbounded = [
        UNBOUNDED_PENALTY in (r.out_can, r.out_ttp, *r.out_node.values())
        for r, _ in compared
    ]
    if name == "overloaded":
        assert any(unbounded) and not all(unbounded)
    if name.startswith(("3c", "4c")):
        # The optimizers moved messages off their default routes, onto
        # multi-hop paths through more than one gateway queue.
        assert any(not plan._default for _, plan in compared)


@pytest.mark.parametrize("name", ["multi-rate", "4c4g"])
def test_grid_timings_match_oracle(name):
    """Leg timings drawn from a grid of period fractions put windows on
    exact period multiples and zero, where the tie epsilons and the
    closed interval bounds decide the count."""
    spec, _ = WORKLOADS[name]
    system = generate_workload(WorkloadSpec(**spec))
    if name == "multi-rate":
        system = _half_rate_graphs(system)
    config = conformance_configuration(system, 10)
    session = Session(system)
    analysed = session.evaluate(config)
    assert analysed.error is None
    rho, plan = analysed.analysis.rho, system.routing_for(config.routes)
    grid = [0.0, 12.5, 25.0, 50.0, 100.0, 200.0]
    rng = random.Random(7)

    def drawn(timing):
        return replace(
            timing,
            offset=rng.choice(grid), jitter=rng.choice(grid),
            queuing=rng.choice(grid), converged=rng.random() > 0.02,
        )

    for _ in range(40):
        grid_rho = rho.copy()
        for records in (grid_rho.can, grid_rho.ttp):
            for key, timing in records.items():
                records[key] = drawn(timing)
        grid_rho.hops = {
            key: tuple(drawn(t) for t in legs)
            for key, legs in rho.hops.items()
        }
        report = buffer_bounds(system, config.priorities, grid_rho, plan)
        expected = legacy_buffer_bounds(
            system, config.priorities, grid_rho, plan
        )
        assert _report(report) == _report(expected)
