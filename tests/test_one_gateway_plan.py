"""The canonical topology is the one-gateway routing plan.

Every engine compiles a canonical system (one TTC, one ETC, one gateway)
from its default :class:`repro.semantics.routing.RoutingPlan`, the same
way it compiles a general topology.  Two kinds of evidence that nothing
observable moved:

* the plan-driven queue bounds, TTP demand, slot contents and FIFO
  competitor sets equal the outputs of the retired flat single-gateway
  code on every canonical fixture family (golden digests computed on
  the flat code);
* a canonical configuration that spells out its default routes
  evaluates exactly like one without routes, on one kernel compile per
  :class:`~repro.system.System`, however many sessions evaluate it.

A system builds each routing plan once per distinct route set and
shares it between the engines, whichever way a configuration spells
its default routes; copies of a system carry none of its compiled
state.
"""

import copy
import hashlib
import json
import pickle
import weakref

import pytest

from repro.analysis import buffer_bounds, multi_cluster_scheduling, ttp_bus_demand
from repro.analysis.kernel import AnalysisContext
from repro.api import Session
from repro.conformance import conformance_configuration, load_fixture
from repro.model.architecture import MessageRoute
from repro.optim.moves import SwapMessagePriorities
from repro.optim.slots import messages_sent_over_ttp
from repro.semantics import fifo_competitors
from repro.synth import (
    WorkloadSpec,
    cruise_controller_system,
    fig4_configuration,
    fig4_system,
    generate_workload,
)

from test_conformance import SEED1654

#: sha256[:16] of :func:`flat_outputs`, computed on the flat
#: single-gateway code paths.
GOLDEN_FLAT = {
    "fig4a": "742d9b756882fce2",
    "fig4b": "742d9b756882fce2",
    "fig4c": "742d9b756882fce2",
    "cruise": "b751eaead7d29bfb",
    "seed1654": "24bbffbce7d38cee",
    "bench": "26f164ee105f4224",
}


def fixture_case(name):
    if name.startswith("fig4"):
        return fig4_system(), fig4_configuration(name[-1])
    if name == "cruise":
        system = cruise_controller_system()
        return system, conformance_configuration(system)
    if name == "seed1654":
        fixture = load_fixture(SEED1654)
        return fixture.system, fixture.config
    system = generate_workload(WorkloadSpec(nodes=4, seed=0))
    return system, conformance_configuration(system, 10)


def flat_outputs(system, config):
    result = multi_cluster_scheduling(
        system, config.bus, config.priorities, tt_delays=config.tt_delays
    )
    buffers = buffer_bounds(system, config.priorities, result.rho)
    return {
        "buffers": [buffers.out_can, buffers.out_ttp,
                    sorted(buffers.out_node.items())],
        "demand": sorted(ttp_bus_demand(system).items()),
        "sizes": {
            node: messages_sent_over_ttp(system, node)
            for node in system.arch.ttp_slot_owners()
        },
        "fifo": {
            m: fifo_competitors(system, m)
            for m in system.et_to_tt_messages()
        },
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_FLAT))
def test_plan_outputs_equal_flat_paths(name):
    system, config = fixture_case(name)
    outputs = flat_outputs(system, config)
    blob = json.dumps(outputs, sort_keys=True, default=repr)
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == GOLDEN_FLAT[name]
    # The flat definitions, restated: one FIFO shared by every ET->TT
    # message, carried in the gateway's slot.
    ettt = system.et_to_tt_messages()
    for m in ettt:
        assert outputs["fifo"][m] == [other for other in ettt if other != m]
    gateway = system.arch.gateway
    assert outputs["sizes"][gateway] == [
        msg.size for msg in system.app.all_messages()
        if system.route(msg.name) is MessageRoute.ET_TO_TT
    ]


def _configs(system, count=6):
    """``count`` distinct configurations: CAN priority swaps of one
    base configuration."""
    base = conformance_configuration(system, 10)
    messages = system.can_messages()
    configs = [base]
    for first, second in zip(messages, messages[1:]):
        if len(configs) == count:
            break
        configs.append(SwapMessagePriorities(first, second).apply(base))
    return configs


def test_explicit_default_routes_evaluate_like_no_routes(monkeypatch):
    system = generate_workload(
        WorkloadSpec(seed=2, nodes=2, processes_per_node=8)
    )
    explicit = {
        m.name: system.default_route(m.name)
        for m in system.app.all_messages()
        if system.is_intercluster(m.name)
    }
    assert explicit
    compiles = []
    update = AnalysisContext.update

    def counting_update(self, priorities, bus, routes=None):
        outcome = update(self, priorities, bus, routes=routes)
        if outcome == "compiled":
            compiles.append(routes)
        return outcome

    monkeypatch.setattr(AnalysisContext, "update", counting_update)
    runs = {}
    for label, routes in (("plain", {}), ("explicit", explicit)):
        session = Session(system)
        configs = _configs(system)
        for config in configs:
            config.routes = dict(routes)
        runs[label] = [session.evaluate(config) for config in configs]
        # One compile per System: the second session's explicit
        # spelling re-targets the kernel the first one compiled.
        assert len(compiles) == 1, label
        assert session.cache_info().kernel_compiles == 1
    for plain, routed in zip(runs["plain"], runs["explicit"]):
        assert routed.error is None and plain.error is None
        assert routed.timing == plain.timing
        assert routed.degree == plain.degree
        assert routed.total_buffers == plain.total_buffers


def test_plans_are_built_once_per_overrides():
    system = generate_workload(WorkloadSpec(nodes=4, seed=0))
    message = next(
        m.name for m in system.app.all_messages()
        if system.is_intercluster(m.name)
    )
    default = system.default_routing()
    assert system.routing_for(None) is default
    assert system.routing_for({}) is default
    explicit = system.routing_for({message: system.default_route(message)})
    # Spelling out a default route is the same route set.
    assert explicit is default
    assert explicit.routes == default.routes
    assert system.routing_for(
        {message: list(system.default_route(message))}
    ) is explicit
    # Fill every kind of compiled state: plans, schedulers, a kernel
    # and a simulation template.
    config = conformance_configuration(system, 10)
    session = Session(system)
    assert session.simulate(config, periods=2).error is None
    run = session.evaluate(config)
    compiled = ("_plans", "_schedulers", "_kernels", "_sim_templates")
    assert all(getattr(system, name) for name in compiled)
    for clone in (copy.deepcopy(system), pickle.loads(pickle.dumps(system))):
        for name in compiled:
            assert not getattr(clone, name), name
        assert clone.default_routing().routes == default.routes
        again = Session(clone).evaluate(config.copy())
        assert again.to_dict() == run.to_dict()
    assert system._plans
    # Nothing the System caches refers back to it, so a dropped System
    # is freed at once, without waiting for the cycle collector.
    dropped = weakref.ref(system)
    del system, session
    assert dropped() is None


def test_session_alternating_route_spellings_compiles_once(monkeypatch):
    system = generate_workload(WorkloadSpec(nodes=4, seed=0))
    explicit = {
        m.name: system.default_route(m.name)
        for m in system.app.all_messages()
        if system.is_intercluster(m.name)
    }
    assert explicit
    outcomes = []
    update = AnalysisContext.update

    def recording_update(self, priorities, bus, routes=None):
        outcomes.append(update(self, priorities, bus, routes=routes))
        return outcomes[-1]

    monkeypatch.setattr(AnalysisContext, "update", recording_update)
    session = Session(system)
    configs = _configs(system)
    for i, config in enumerate(configs):
        config.routes = dict(explicit) if i % 2 else {}
    runs = [session.evaluate(config) for config in configs]
    assert all(run.error is None for run in runs)
    assert outcomes.count("compiled") == 1
    assert session.cache_info().kernel_compiles == 1
