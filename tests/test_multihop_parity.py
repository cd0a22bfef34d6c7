"""Parity suite for the kernel's per-leg rows (general topologies).

General topologies and route overrides run on per-leg rows compiled
from the :class:`repro.semantics.routing.RoutingPlan`.  Their contract
is the same as the canonical kernel's: "same numbers, less work".  The
reference is :func:`oracles.legacy_multihop_response_time_analysis`,
the interpreted per-leg solver kept unchanged as a test oracle.  Three
layers of evidence:

* every solve of seeded 2-, 3- and 4-cluster campaigns (default,
  greedy and random routes, parallel gateways, a modeled CAN error
  process), run through ``Session`` and ``multi_cluster_scheduling``
  exactly as a real evaluation runs, is re-solved by the oracle with
  the same ``(φ, π, β, plan, faults)``.  The two must agree bit for bit
  on every record, ``hops`` included, and on the insertion order of
  every record dict.  The generator only builds star topologies around
  the TT cluster, so a bridged variant adds ET-ET gateways (relayed
  CAN legs) and per-gateway transfer WCETs;
* one context re-targeted through a recorded sequence of
  :class:`repro.optim.routing.RerouteMessage` moves and priority swaps
  must equal a fresh compile (and the oracle) at every step;
* a session's shared kernel must follow a configuration back to the
  default routes instead of reusing the previous configuration's plan.
"""

import copy
import math
import random

import pytest

from repro.analysis.kernel import AnalysisContext
from repro.analysis.multicluster import multi_cluster_scheduling
from repro.analysis.timing import ActivityTiming, ResponseTimes
from repro.api import Session
from repro.conformance import CampaignSpec, conformance_configuration
from repro.conformance.campaign import run_campaign
from repro.exceptions import ConfigurationError
from repro.model.architecture import Architecture
from repro.model.topology import Gateway, Topology
from repro.optim.moves import SwapMessagePriorities, SwapProcessPriorities
from repro.optim.routing import fit_bus_to_routes, route_candidates, route_moves
from repro.synth.workload import WorkloadSpec, generate_workload, seeded_routes
from repro.system import System

from oracles import legacy_multihop_response_time_analysis
from oracles.deltas import rho_max_abs_delta

FIELDS = ("processes", "can", "ttp", "hops", "tt_arrival")

#: The CI fault spec: a modeled CAN error process on a derated bus.
CAN_ERRORS = {
    "can_error_interval": 25.0,
    "can_error_overhead": 0.5,
    "bus_slow": 1.1,
}

CAMPAIGNS = {
    "2c2g-parallel-random": dict(clusters=2, gateways=2, nodes=4,
                                 route_strategy="random"),
    "3c2g-default": dict(clusters=3, gateways=2, nodes=4),
    "3c3g-greedy": dict(clusters=3, gateways=3, nodes=4,
                        route_strategy="greedy"),
    "3c3g-random": dict(clusters=3, gateways=3, nodes=4,
                        route_strategy="random"),
    "3c3g-random-can-errors": dict(clusters=3, gateways=3, nodes=4,
                                   route_strategy="random",
                                   faults=CAN_ERRORS),
    "4c4g-random": dict(clusters=4, gateways=4, nodes=6,
                        route_strategy="random"),
    "4c4g-random-can-errors": dict(clusters=4, gateways=4, nodes=6,
                                   route_strategy="random",
                                   faults=CAN_ERRORS),
    "4c5g-random": dict(clusters=4, gateways=5, nodes=6,
                        route_strategy="random"),
}


def assert_bit_identical(actual, expected, context=""):
    """Every record, field and dict order equal (``repr`` is exact)."""
    for field in FIELDS:
        got = list(getattr(actual, field).items())
        want = list(getattr(expected, field).items())
        assert repr(got) == repr(want), f"{context}: {field} differs"


def oracle_solve(kernel, offsets, priorities):
    return legacy_multihop_response_time_analysis(
        kernel.system, offsets, priorities, kernel._bus, kernel._plan,
        faults=kernel.faults,
    )


@pytest.fixture
def oracle_checked(monkeypatch):
    """Re-solve every kernel solve on the oracle; yields the list of
    checked solves."""
    checked = []
    update = AnalysisContext.update
    solve = AnalysisContext.solve

    def recording_update(self, priorities, bus, routes=None):
        self.parity_priorities = priorities
        return update(self, priorities, bus, routes=routes)

    def checked_solve(self, offsets, ttp_only=False):
        rho, state = solve(self, offsets, ttp_only)
        expected = oracle_solve(self, offsets, self.parity_priorities)
        # The Fig. 5 loop asks for the FIFO records only; check the
        # full ρ of every pass all the same.
        assert_bit_identical(
            self.package(state), expected, f"solve {len(checked)}"
        )
        assert repr(list(rho.ttp.items())) == repr(
            list(expected.ttp.items())
        )
        checked.append(self._plan)
        return rho, state

    monkeypatch.setattr(AnalysisContext, "update", recording_update)
    monkeypatch.setattr(AnalysisContext, "solve", checked_solve)
    return checked


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_solves_match_oracle(name, oracle_checked):
    # Seeds 360-384 include same-gateway TT relays at equal offsets (the
    # atomic-frame blocking exclusion) on the 3-cluster shapes.
    spec = CampaignSpec(campaign=25, seed0=360, shrink=False,
                        **CAMPAIGNS[name])
    report = run_campaign(spec)
    assert report.clean, report.counts()
    # Every seed solves at least once, and the Fig. 5 loop re-solves.
    assert len(oracle_checked) > spec.campaign
    if spec.route_strategy != "default":
        assert any(not plan.is_default() for plan in oracle_checked)


def _bridged_system(seed):
    """A generated 4-cluster star plus two ET-ET gateways, with its own
    transfer WCET on one TT gateway and one bridge."""
    base = generate_workload(
        WorkloadSpec(seed=seed, clusters=4, gateways=3, nodes=6)
    )
    topo = base.arch.topology
    gateways = [
        Gateway(name, topo.gateways[name].clusters,
                0.25 if name == "NG2" else None)
        for name in topo.gateway_names()
    ] + [
        Gateway("NG4", ("ETC1", "ETC2"), 0.3),
        Gateway("NG5", ("ETC2", "ETC3")),
    ]
    arch = Architecture.from_topology(
        Topology(list(topo.clusters.values()), gateways),
        gateway_transfer_wcet=base.arch.gateway_transfer_wcet,
    )
    return System(base.app, arch, can_spec=base.can_spec,
                  ttp_spec=base.ttp_spec)


@pytest.mark.parametrize("faults", [None, CAN_ERRORS], ids=["plain", "can-errors"])
@pytest.mark.parametrize("seed", range(4))
def test_bridged_topology_solves_match_oracle(seed, faults, oracle_checked):
    system = _bridged_system(seed)
    config = conformance_configuration(system)
    rng = random.Random(seed)
    for msg in system.app.all_messages():
        candidates = route_candidates(system, msg.name, config.bus)
        if len(candidates) > 1:
            config.routes[msg.name] = rng.choice(candidates)
    config.bus = fit_bus_to_routes(system, config.bus, config.routes)
    result = Session(system).evaluate(config, memoize=False, faults=faults)
    assert result.error is None
    assert oracle_checked
    plan = oracle_checked[-1]
    # Some route crosses an ET-ET bridge: a CAN leg relayed after a CAN leg.
    assert any(
        not a.is_fifo and not b.is_fifo
        for legs in plan.legs.values()
        for a, b in zip(legs, legs[1:])
    )


def _routed_system(seed, clusters=3, gateways=3, nodes=4):
    spec = CampaignSpec(clusters=clusters, gateways=gateways, nodes=nodes,
                        route_strategy="random")
    system = generate_workload(spec.workload_spec(seed))
    config = conformance_configuration(system)
    routes = seeded_routes(system, spec.workload_spec(seed))
    return system, config, routes


def _priority_swap(system, config, rng):
    if rng.random() < 0.5:
        first, second = rng.sample(sorted(system.can_messages()), 2)
        return SwapMessagePriorities(first, second)
    node = rng.choice([
        n for n in system.et_nodes_with_processes()
        if len(system.et_processes_on(n)) > 1
    ])
    first, second = rng.sample(system.et_processes_on(node), 2)
    return SwapProcessPriorities(first, second)


@pytest.mark.parametrize("seed", [3, 11])
def test_retargeted_context_matches_fresh_compiles(seed):
    system, config, routes = _routed_system(seed)
    config.routes.update(routes)
    config.bus = fit_bus_to_routes(system, config.bus, config.routes)
    kernel = AnalysisContext(
        system, config.priorities, config.bus, routes=config.routes
    )
    rng = random.Random(seed)
    kinds = set()
    for step in range(16):
        moves = route_moves(system, config)
        if moves and step % 2 == 0:
            move = rng.choice(moves)
            kinds.add("default" if move.is_default else "reroute")
        else:
            move = _priority_swap(system, config, rng)
            kinds.add("priority")
        config = move.apply(config)
        config.bus = fit_bus_to_routes(system, config.bus, config.routes)
        offsets = multi_cluster_scheduling(
            system, config.bus, config.priorities,
            routes=config.routes or None,
        ).offsets

        kernel.update(config.priorities, config.bus,
                      routes=config.routes or None)
        retargeted, _ = kernel.solve(offsets)
        fresh_kernel = AnalysisContext(
            system, config.priorities, config.bus,
            routes=config.routes or None,
        )
        fresh, _ = fresh_kernel.solve(offsets)
        context = f"step {step}: {move.describe()}"
        assert_bit_identical(retargeted, fresh, context)
        assert_bit_identical(
            retargeted, oracle_solve(kernel, offsets, config.priorities),
            context,
        )
    assert kinds == {"default", "reroute", "priority"}


def test_failed_retarget_leaves_no_stale_rows():
    """An invalid route override is refused, and the next re-target
    compiles from scratch rather than reusing a half-built plan."""
    system, config, routes = _routed_system(3)
    config.routes.update(routes)
    config.bus = fit_bus_to_routes(system, config.bus, config.routes)
    offsets = multi_cluster_scheduling(
        system, config.bus, config.priorities, routes=config.routes
    ).offsets
    kernel = AnalysisContext(
        system, config.priorities, config.bus, routes=config.routes
    )
    message = next(iter(config.routes))
    with pytest.raises(ConfigurationError):
        kernel.update(config.priorities, config.bus,
                      routes={message: ("NO_SUCH_GATEWAY",)})
    assert kernel.update(
        config.priorities, config.bus, routes=config.routes
    ) == "compiled"
    fresh = AnalysisContext(
        system, config.priorities, config.bus, routes=config.routes
    )
    assert_bit_identical(kernel.solve(offsets)[0], fresh.solve(offsets)[0])


def test_session_kernel_drops_stale_routes():
    """A configuration without overrides analyses the default routes,
    even right after the session's kernel served a rerouted one."""
    system, config, routes = _routed_system(
        5, clusters=4, gateways=4, nodes=6
    )
    routed = copy.deepcopy(config)
    routed.routes.update(routes)
    routed.bus = fit_bus_to_routes(system, routed.bus, routed.routes)
    plain = copy.deepcopy(routed)
    plain.routes.clear()

    session = Session(system)
    first = session.evaluate(routed, memoize=False).analysis.rho
    reused = session.evaluate(plain, memoize=False).analysis.rho
    fresh = Session(system).evaluate(plain, memoize=False).analysis.rho
    assert first.hops != fresh.hops  # the reroute changes the timing
    assert_bit_identical(reused, fresh)


def _two_leg_rho(first_leg_queuing, converged=True):
    rho = ResponseTimes()
    final = ActivityTiming(offset=0.0, jitter=4.0, queuing=1.0, duration=2.0)
    rho.can["m"] = final
    first = ActivityTiming(offset=0.0, jitter=0.0, queuing=first_leg_queuing,
                           duration=2.0, converged=converged)
    rho.hops["m"] = (first, final)
    return rho


def test_max_abs_delta_reads_hops():
    """A difference confined to a non-final leg is a difference."""
    base = _two_leg_rho(1.0)
    assert rho_max_abs_delta(base, _two_leg_rho(1.0)) == 0.0
    assert rho_max_abs_delta(base, _two_leg_rho(1.5)) == 0.5
    diverged = _two_leg_rho(1.0, converged=False)
    assert rho_max_abs_delta(base, diverged) == math.inf
    shorter = _two_leg_rho(1.0)
    shorter.hops["m"] = shorter.hops["m"][1:]
    assert rho_max_abs_delta(base, shorter) == math.inf
    single = _two_leg_rho(1.0)
    del single.hops["m"]
    assert rho_max_abs_delta(base, single) == math.inf
    assert rho_max_abs_delta(single, base) == math.inf
