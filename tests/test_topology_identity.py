"""Bit-identity pins: the topology generalization changes *nothing*
on canonical two-cluster systems.

The golden constants below were computed on the pre-topology tree (PR 7
head) and verified identical on the generalized tree: config hashes,
system content keys, explore cell keys, serve evaluation keys and full
simulation-trace digests (both engines) over every fixture class the
repository pins — Fig. 4 a/b/c, the cruise controller, the
``seed1654_gateway_fifo`` conformance fixture and the 160-process bench
workload.  A failure here means a change leaked into the canonical
fast path: store entries, serve dedup and replay fixtures would all
silently invalidate.
"""

import hashlib
import json

import pytest

from repro.analysis import multi_cluster_scheduling
from repro.conformance import conformance_configuration, load_fixture
from repro.explore.spec import Cell, SweepSpec
from repro.faults import FaultSpec
from repro.io.serialize import config_to_dict, system_to_dict
from repro.serve.protocol import evaluation_key
from repro.sim import simulate
from repro.store.store import content_key
from repro.synth import (
    WorkloadSpec,
    cruise_controller_system,
    fig4_configuration,
    fig4_system,
    generate_workload,
)

from oracles import legacy_simulate
from test_conformance import SEED1654

# Golden values, computed on the pre-topology tree.
GOLDEN_CONFIG_HASH = {
    "fig4a": "7413b93ab82cf276b96cecd466044577807f835586182c9ce18a5880611e321a",
    "fig4b": "a98ce18ba2096669b631bd9744b07dadf775691c8807444d7f9f6cd9103d5a6d",
    "fig4c": "ed6715c6c7e071d63768c13f9eca0a8f5d6233e2782a6409ffd72f4c3dc81a3f",
    "cruise": "e394fef62c76ac4df6588065db8f7428a5fb224a4d0ecfb9a22d28a7826c1477",
    "bench": "1411515b50bd1e0df468af6647d95b49b214b963b0a1ffaec323fd84da053965",
}
GOLDEN_SYSTEM_KEY = {
    "cruise": "b3fe3bae5eba15748b2204579baa01ec748e2ea4c1f28a03cc1840b8adf2b437",
    "bench": "e99c6d356ae52322cf7f5ff90d7ccb4f3b49fdaa66f0b3ced130b938a2408d0f",
}
#: sha256[:16] of the canonical trace blob (see :func:`trace_digest`),
#: identical for the legacy engine and the compiled kernel.
GOLDEN_TRACE = {
    "fig4a": "0fd146144fb14f4d",
    "fig4b": "371aab940ba978de",
    "fig4c": "397bcb124c13d06e",
    "cruise": "a16f49a5c50f3991",
    "seed1654": "fe80b302dffc84f8",
    "bench": "7288058f84412fa3",
}


from repro.api.session import config_hash as config_hash_of


def trace_digest(trace) -> str:
    blob = json.dumps(
        [
            trace.process_response,
            trace.graph_response,
            trace.message_latency,
            trace.queue_peak,
            len(trace.violations),
            trace.completed_instances,
        ],
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_both(system, config, periods=3):
    result = multi_cluster_scheduling(
        system, config.bus, config.priorities, tt_delays=config.tt_delays
    )
    config.offsets = result.offsets
    legacy = legacy_simulate(system, config, result.schedule, periods=periods)
    kernel = simulate(system, config, result.schedule, periods=periods)
    return legacy, kernel


def fixture_case(name):
    if name.startswith("fig4"):
        return fig4_system(), fig4_configuration(name[-1]), 4
    if name == "cruise":
        system = cruise_controller_system()
        return system, conformance_configuration(system), 3
    if name == "seed1654":
        fixture = load_fixture(SEED1654)
        return fixture.system, fixture.config, 3
    system = generate_workload(WorkloadSpec(nodes=4, seed=0))
    return system, conformance_configuration(system, 10), 4


class TestConfigHashes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIG_HASH))
    def test_config_hash_unchanged(self, name):
        _, config, _ = fixture_case(name)
        assert config_hash_of(config) == GOLDEN_CONFIG_HASH[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SYSTEM_KEY))
    def test_system_key_unchanged(self, name):
        system, _, _ = fixture_case(name)
        assert content_key(system_to_dict(system)) == GOLDEN_SYSTEM_KEY[name]

    def test_default_routes_not_serialized(self):
        _, config, _ = fixture_case("bench")
        assert config.routes == {}
        assert "routes" not in config_to_dict(config)


class TestTraceIdentity:
    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACE))
    def test_both_engines_bit_identical(self, name):
        system, config, periods = fixture_case(name)
        legacy, kernel = run_both(system, config, periods=periods)
        assert trace_digest(legacy) == GOLDEN_TRACE[name]
        assert trace_digest(kernel) == GOLDEN_TRACE[name]

    def test_canonical_queue_names(self):
        system, config, periods = fixture_case("bench")
        _, kernel = run_both(system, config, periods=periods)
        gateway_queues = {
            q for q in kernel.queue_peak if q.startswith("Out_CAN")
            or q.startswith("Out_TTP")
        }
        assert gateway_queues <= {"Out_CAN", "Out_TTP"}


class TestStoreAndServeKeys:
    def test_cell_key_ignores_default_topology_fields(self):
        explicit = Cell(
            index=0,
            method="analysis",
            workload={
                "seed": 0, "clusters": 2, "gateways": 1,
                "route_strategy": "default",
            },
            options={},
        )
        implicit = Cell(
            index=0, method="analysis", workload={"seed": 0}, options={}
        )
        assert explicit.key == implicit.key
        resolved = implicit.resolved()
        for name in ("clusters", "gateways", "route_strategy"):
            assert name not in resolved["workload"]

    def test_cell_key_includes_non_default_topology(self):
        multi = Cell(
            index=0, method="analysis",
            workload={"seed": 0, "clusters": 3, "gateways": 2},
            options={},
        )
        base = Cell(
            index=0, method="analysis", workload={"seed": 0}, options={}
        )
        assert multi.key != base.key
        assert multi.resolved()["workload"]["clusters"] == 3

    def test_topology_fields_are_sweepable_axes(self):
        spec = SweepSpec(
            workload={
                "seed": [0, 1],
                "clusters": 3,
                "gateways": 2,
                "route_strategy": ["default", "greedy"],
            },
            methods=("analysis",),
        )
        assert len(spec.cells()) == 4

    def test_evaluation_key_unchanged_by_empty_routes(self):
        system = generate_workload(WorkloadSpec(nodes=4, seed=0))
        config = conformance_configuration(system, 10)
        system_key = content_key(system_to_dict(system))
        key = evaluation_key(
            system_key, "analysis", {}, config_to_dict(config)
        )
        assert key == (
            "93af97b7eb95fbc18c14a83fd9aab6525e1070695f456ddf9ee86bd856248082",
            "ad45fe1620a909e216ea452d4827154ff9ff64d4f613480912f3e67928b4033f",
        )


class TestSessionStoreKeys:
    def test_simulation_store_key_unchanged(self):
        """The simulation option set never carried an engine for
        ``Session.simulate`` callers; its store address is pinned."""
        from repro.api import Session
        from repro.api.session import store_key

        session = Session(fig4_system())
        config = fig4_configuration("a")
        key = session._key(config, "simulation", {"periods": 4})
        assert key[:2] == ("simulation", (("periods", 4),))
        assert store_key(key) == (
            "598098b3a82a2f9dc0fe997c17ec0160198af6686d8bd45aead078394eddf94f"
        )


class TestNullFaultSpec:
    def test_null_spec_coerces_to_none(self):
        assert FaultSpec.coerce(None) is None
        assert FaultSpec.coerce({}) is None

    def test_babble_bus_not_in_default_dict(self):
        spec = FaultSpec(babble_period=50.0)
        assert "babble_bus" not in json.dumps(spec.to_dict())

    def test_babble_bus_round_trips(self):
        spec = FaultSpec(babble_period=50.0, babble_bus="ETC2")
        data = spec.to_dict()
        assert FaultSpec.coerce(data).babble_bus == "ETC2"
        # The analysis projection drops the unmodeled babble fields
        # together (babble_bus alone is rejected by validation).
        assert spec.analysis_spec() is None or (
            spec.analysis_spec().babble_bus is None
        )
