"""General cluster graphs: topology model, routing, engines, synthesis.

Covers the non-canonical side of the topology generalization — the
canonical bit-identity side lives in ``test_topology_identity.py``:

* :class:`repro.model.topology.Topology` construction and route
  enumeration (parallel gateways, shortest-then-lex default routes);
* multi-cluster workload generation (``clusters``/``gateways``/
  ``route_strategy`` WorkloadSpec axes) with seeded route assignment;
* end-to-end 3-cluster/2-gateway runs through analysis, both simulation
  engines (bit-for-bit parity), conformance, and an explore sweep with
  ``route_strategy`` as an axis;
* the routing optimizer (greedy seed + RerouteMessage moves);
* topology-aware serialization and the named-bus babble fault.
"""

import json

import pytest

from repro.analysis import multi_cluster_scheduling
from repro.analysis.utilization import node_utilization, ttp_bus_demand
from repro.buses import TTPBusConfig
from repro.conformance import conformance_configuration
from repro.conformance.campaign import evaluate_workload
from repro.exceptions import ConfigurationError, ModelError
from repro.explore import SweepSpec, run_sweep
from repro.faults import FaultSpec
from repro.io.serialize import (
    config_from_dict,
    config_to_dict,
    system_from_dict,
    system_to_dict,
)
from repro.model.topology import Cluster, Gateway, Topology
from repro.optim.routing import (
    _slot_feasible,
    greedy_routes,
    route_candidates,
    route_moves,
)
from repro.sim import simulate
from repro.synth.workload import WorkloadSpec, generate_workload, seeded_routes

from oracles import legacy_simulate


def multi_system(seed=7, clusters=3, gateways=2):
    return generate_workload(
        WorkloadSpec(seed=seed, clusters=clusters, gateways=gateways)
    )


def run_both(system, config, periods=3, routes=None):
    result = multi_cluster_scheduling(
        system,
        config.bus,
        config.priorities,
        tt_delays=config.tt_delays,
        routes=routes,
    )
    config.offsets = result.offsets
    legacy = legacy_simulate(system, config, result.schedule, periods=periods)
    kernel = simulate(system, config, result.schedule, periods=periods)
    return legacy, kernel


def assert_parity(legacy, kernel):
    assert legacy.process_response == kernel.process_response
    assert legacy.graph_response == kernel.graph_response
    assert legacy.message_latency == kernel.message_latency
    assert legacy.queue_peak == kernel.queue_peak
    assert legacy.violations == kernel.violations


class TestTopologyModel:
    def test_canonical_shape(self):
        topo = Topology.canonical(("TT1",), ("ET1",), "NG")
        assert topo.is_canonical
        assert topo.gateway_names() == ["NG"]

    def test_parallel_gateways_enumerate_routes(self):
        topo = Topology(
            clusters=[
                Cluster("TTC", "TT", ("TT1",)),
                Cluster("ETC", "ET", ("ET1",)),
            ],
            gateways=[
                Gateway("NG1", ("TTC", "ETC")),
                Gateway("NG2", ("TTC", "ETC")),
            ],
        )
        assert not topo.is_canonical
        routes = topo.routes_between("TTC", "ETC")
        assert routes == [("NG1",), ("NG2",)]
        assert topo.default_route("TTC", "ETC") == ("NG1",)

    def test_detour_routes_sorted_shortest_first(self):
        topo = Topology(
            clusters=[
                Cluster("TTC", "TT", ("TT1",)),
                Cluster("ETC1", "ET", ("ET1",)),
                Cluster("ETC2", "ET", ("ET2",)),
            ],
            gateways=[
                Gateway("NG1", ("TTC", "ETC1")),
                Gateway("NG2", ("TTC", "ETC2")),
            ],
        )
        routes = topo.routes_between("ETC1", "ETC2")
        assert routes == [("NG1", "NG2")]
        with pytest.raises(ModelError):
            topo.validate_route("ETC1", "ETC2", ("NG2",))

    def test_engine_needs_exactly_one_tt_cluster(self):
        topo = Topology(
            clusters=[
                Cluster("TTA", "TT", ("A1",)),
                Cluster("TTB", "TT", ("B1",)),
            ],
            gateways=[Gateway("NG", ("TTA", "TTB"))],
        )
        with pytest.raises(ModelError):
            topo.check_engine_supported()


class TestMultiClusterWorkload:
    def test_three_cluster_generation(self):
        system = multi_system()
        topo = system.arch.topology
        assert sorted(topo.clusters) == ["ETC1", "ETC2", "TTC"]
        assert sorted(topo.gateways) == ["NG1", "NG2"]
        assert not topo.is_canonical

    def test_gateway_floor_is_et_cluster_count(self):
        with pytest.raises(ConfigurationError):
            generate_workload(WorkloadSpec(seed=0, clusters=3, gateways=1))

    def test_seeded_routes_default_is_empty(self):
        system = multi_system()
        assert seeded_routes(system, WorkloadSpec(seed=7, clusters=3,
                                                  gateways=2)) == {}

    def test_seeded_routes_deterministic(self):
        spec = WorkloadSpec(
            seed=7, clusters=3, gateways=3, route_strategy="random"
        )
        system = generate_workload(spec)
        assert seeded_routes(system, spec) == seeded_routes(system, spec)

    def test_utilization_accessors_cover_all_gateways(self):
        system = multi_system()
        load = node_utilization(system)
        demand = ttp_bus_demand(system)
        for gateway in system.arch.gateways():
            assert gateway in load
            assert gateway in demand


class TestMultiClusterEndToEnd:
    def test_analysis_simulation_parity(self):
        system = multi_system()
        config = conformance_configuration(system, 10)
        legacy, kernel = run_both(system, config)
        assert_parity(legacy, kernel)
        gateway_queues = {
            q for q in kernel.queue_peak if q.startswith("Out_")
        }
        assert {"Out_CAN@NG1", "Out_TTP@NG1"} <= gateway_queues

    def test_route_override_changes_flow(self):
        spec = WorkloadSpec(
            seed=7, clusters=3, gateways=3, route_strategy="greedy"
        )
        system = generate_workload(spec)
        overrides = seeded_routes(system, spec)
        assert overrides, "expected routing freedom with a parallel gateway"
        config = conformance_configuration(system, 10)
        config.routes.update(overrides)
        legacy, kernel = run_both(system, config, routes=config.routes)
        assert_parity(legacy, kernel)
        assert any("NG3" in q for q in kernel.queue_peak)

    def test_conformance_clean(self):
        system = multi_system()
        status, violations, error, _profile = evaluate_workload(
            system, periods=2, rounds_per_period=10
        )
        assert error is None
        assert violations == []

    def test_campaign_topology_axes(self):
        from repro.conformance import CampaignSpec, run_campaign

        spec = CampaignSpec(
            campaign=4, nodes=4, clusters=3, gateways=3,
            route_strategy="greedy", workers=1,
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        report = run_campaign(spec)
        assert report.clean, [o.to_dict() for o in report.outcomes]

    def test_explore_sweep_with_route_strategy_axis(self):
        spec = SweepSpec(
            name="topo-smoke",
            workload={
                "seed": 7,
                "clusters": 3,
                "gateways": 3,
                "route_strategy": ["default", "greedy"],
            },
            methods=("analysis", "conform"),
        )
        report = run_sweep(spec)
        assert report.counts["cells"] == 4
        assert report.counts["errors"] == 0
        strategies = {
            r["workload"]["route_strategy"] for r in report.records
        }
        assert strategies == {"default", "greedy"}


class TestRoutingOptimizer:
    def test_no_moves_without_freedom(self):
        system = generate_workload(WorkloadSpec(seed=3))
        config = conformance_configuration(system, 10)
        assert route_moves(system, config) == []
        assert greedy_routes(system) == {}

    def test_moves_with_parallel_gateway(self):
        system = multi_system(gateways=3)
        config = conformance_configuration(system, 10)
        moves = route_moves(system, config)
        assert moves
        for move in moves:
            new = move.apply(config)
            assert new is not config
            src, dst = system.clusters_of_message(move.message)
            system.arch.topology.validate_route(
                src, dst, tuple(move.route)
            )

    def test_slot_feasibility_catches_only_slotless_gateways(self):
        system = multi_system(gateways=3)
        bus = conformance_configuration(system, 10).bus
        msg = next(
            m for m in system.et_to_tt_messages()
            if route_candidates(system, m)
        )
        route = route_candidates(system, msg)[0]
        assert _slot_feasible(system, bus, msg, route)
        # The TT-entering gateway owns no slot: infeasible, not an error.
        slotless = TTPBusConfig(
            [s for s in bus.slots if s.node != route[-1]]
        )
        assert not _slot_feasible(system, slotless, msg, route)

        class BrokenBus:
            def slot_of(self, node):
                raise RuntimeError(f"defect looking up {node}")

        with pytest.raises(RuntimeError, match="defect looking up"):
            _slot_feasible(system, BrokenBus(), msg, route)

    def test_candidates_shortest_first(self):
        system = multi_system(gateways=3)
        for msg in system.app.all_messages():
            src, dst = system.clusters_of_message(msg.name)
            if src == dst:
                assert route_candidates(system, msg.name) == []
                continue
            candidates = route_candidates(system, msg.name)
            lengths = [len(r) for r in candidates]
            assert lengths == sorted(lengths)


    def test_routes_enumerated_once_per_system(self, monkeypatch):
        """One routed 4-cluster campaign seed asks the topology for each
        cluster pair's routes at most once, and the System's cached
        routes are the topology's own."""
        from repro.conformance import CampaignSpec, run_campaign

        calls = {}
        enumerate_routes = Topology.routes_between

        def counting(topo, src, dst, max_hops=4):
            key = (id(topo), src, dst, max_hops)
            calls[key] = calls.get(key, 0) + 1
            return enumerate_routes(topo, src, dst, max_hops)

        monkeypatch.setattr(Topology, "routes_between", counting)
        spec = CampaignSpec(
            campaign=1, seed0=100000, clusters=4, gateways=4, nodes=6,
            route_strategy="random", shrink=False, workers=1,
        )
        report = run_campaign(spec)
        assert len(report.outcomes) == 1
        assert calls and max(calls.values()) == 1
        monkeypatch.undo()

        system = generate_workload(spec.workload_spec(spec.seed0))
        topo = system.topology
        for src in topo.clusters:
            for dst in topo.clusters:
                assert system.routes_between(src, dst) == tuple(
                    topo.routes_between(src, dst)
                )


class TestTopologySerialization:
    def test_multi_system_round_trip(self):
        system = multi_system(gateways=3)
        data = system_to_dict(system)
        assert "topology" in data["architecture"]
        rebuilt = system_from_dict(data)
        assert json.dumps(system_to_dict(rebuilt), sort_keys=True) == (
            json.dumps(data, sort_keys=True)
        )
        assert sorted(rebuilt.arch.topology.gateways) == [
            "NG1", "NG2", "NG3",
        ]

    def test_config_routes_round_trip(self):
        system = multi_system(gateways=3)
        config = conformance_configuration(system, 10)
        config.routes["G0_m19"] = ("NG3",)
        data = config_to_dict(config)
        assert data["routes"] == {"G0_m19": ["NG3"]}
        assert config_from_dict(data).routes == {"G0_m19": ("NG3",)}


class TestNamedBusBabble:
    def test_babble_bus_requires_period(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(babble_bus="ETC2")

    def test_babble_targets_named_bus(self):
        system = multi_system()
        config = conformance_configuration(system, 10)
        result = multi_cluster_scheduling(
            system, config.bus, config.priorities,
            tt_delays=config.tt_delays,
        )
        config.offsets = result.offsets
        # Heavy babble: light frames are absorbed by the TDMA slot
        # quantization of ET->TT deliveries and leave traces unchanged.
        spec1 = FaultSpec(babble_period=8.0, babble_size=2000,
                          babble_bus="ETC1")
        spec2 = FaultSpec(babble_period=8.0, babble_size=2000,
                          babble_bus="ETC2")
        runs = {}
        for spec in (spec1, spec2):
            legacy = legacy_simulate(
                system, config, result.schedule, periods=2, faults=spec
            )
            kernel = simulate(
                system, config, result.schedule, periods=2, faults=spec
            )
            assert_parity(legacy, kernel)
            runs[spec.babble_bus] = kernel
        # Babbling on distinct buses must not be trace-equivalent.
        assert (
            runs["ETC1"].message_latency != runs["ETC2"].message_latency
            or runs["ETC1"].process_response != runs["ETC2"].process_response
        )

    def test_unknown_babble_bus_rejected(self):
        system = multi_system()
        config = conformance_configuration(system, 10)
        result = multi_cluster_scheduling(
            system, config.bus, config.priorities,
            tt_delays=config.tt_delays,
        )
        config.offsets = result.offsets
        spec = FaultSpec(babble_period=40.0, babble_bus="NOPE")
        with pytest.raises(Exception):
            simulate(system, config, result.schedule, periods=1,
                     faults=spec)
