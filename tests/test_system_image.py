"""The compiled system image: one interning per System, shared by every
engine (analysis kernel, static scheduler, simulator, buffer bounds and
configuration rules), one leg-id part per routing plan, and none carried
by a pickled or copied System."""

import copy
import pickle

import pytest

from oracles import downstream_urgency
from oracles.legacy_hopa import legacy_local_deadlines
from repro.api import Session
from repro.conformance import CampaignSpec
from repro.conformance.campaign import (
    evaluate_workload,
    seed_configuration,
)
from repro.exceptions import ConfigurationError
from repro.image import PlanImage, SystemImage
from repro.optim import local_deadlines, optimize_resources
from repro.synth import fig4_system
from repro.semantics import resolve_routes
from repro.synth.workload import WorkloadSpec, generate_workload

SPEC = CampaignSpec(
    campaign=1, seed0=100000, clusters=4, gateways=4, nodes=6,
    route_strategy="random", shrink=False,
)


@pytest.fixture
def builds(monkeypatch):
    """Every SystemImage and PlanImage built, in order."""
    built = {"image": [], "plan": []}
    for kind, cls in (("image", SystemImage), ("plan", PlanImage)):
        original = cls.__init__

        def counted(self, *args, _original=original, _kind=kind, **kwargs):
            built[_kind].append(self)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


def _conform_seed(seed=100000):
    workload = SPEC.workload_spec(seed)
    system = generate_workload(workload)
    return system, seed_configuration(
        system, workload, SPEC.rounds_per_period
    )


def _assert_one_image_and_one_part_per_plan(system, builds):
    assert builds["image"] == [system.image]
    plans = list(system._plans.values())
    assert len(plans) >= 1
    assert [id(p) for p in builds["plan"]] == [id(p.image) for p in plans]


class TestBuiltOncePerSystem:
    def test_conform_seed_analysis_and_simulation(self, builds):
        system, config = _conform_seed()
        assert config.routes  # the seed's one plan is a routed plan
        status, violations, error, profile = evaluate_workload(
            system, periods=3, config=config
        )
        assert (status, violations, error) == ("ok", [], None)
        assert profile["sim_events"] > 0
        _assert_one_image_and_one_part_per_plan(system, builds)
        assert len(system._plans) == 1

    def test_or_run(self, builds):
        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        session = Session(system)
        optimize_resources(
            system, max_iterations=3, neighborhood=8, session=session
        )
        assert session.cache_info().backend_calls > 10
        _assert_one_image_and_one_part_per_plan(system, builds)

    def test_engines_share_the_image(self):
        system, config = _conform_seed()
        evaluate_workload(system, periods=3, config=config)
        image = system.image
        plan = system.routing_for(config.routes)
        (kernel,) = system._kernels.values()
        assert kernel.et_procs == system.et_processes()
        assert kernel.can_msgs == system.can_messages()
        (_, template), = system._sim_templates.values()
        assert template.proc_names is image.proc_names
        assert template.lid_mid is plan.image.leg_msg
        assert system.configuration_rules().image is image


class TestEngineTablesDerivedOnce:
    """The tables the scheduler and the simulator used to walk the
    name-keyed model for are derived once per System, in the image, and
    equal that walk; the simulation reuses the analysis pass's graph
    bounds instead of recomputing them."""

    @pytest.mark.parametrize("system", [
        _conform_seed()[0],
        # Over ten graphs: name order is not declaration order ("G10"
        # sorts before "G2").
        generate_workload(WorkloadSpec(nodes=6, seed=3)),
    ], ids=["conform", "canonical"])
    def test_tables_equal_a_walk_of_the_model(self, system):
        app, arch, image = system.app, system.arch, system.image
        urgency = {}
        for graph in app.graphs.values():
            urgency.update(downstream_urgency(graph))
        assert image.proc_urgency == [urgency[p] for p in image.proc_names]
        cpu = {node: i for i, node in enumerate(arch.et_node_names())}
        assert image.proc_cpu == [
            -1 if arch.is_tt_node(app.process(p).node)
            else cpu[app.process(p).node]
            for p in image.proc_names
        ]
        # Declaration order: the order the simulator seeds releases in.
        assert [image.proc_names[p] for p in image.et_sources] == [
            name
            for graph in app.graphs.values() for name in graph.processes
            if arch.is_et_node(graph.processes[name].node)
            and not graph.predecessors(name)
        ]
        assert image.msg_route == [
            arch.route_of(app, msg) for msg in app.all_messages()
        ]

    def test_conform_seed_walks_no_graph(self, monkeypatch):
        """Once the image exists, compiling and running the engines for
        a seed reads no graph's order or arcs by name."""
        from repro.model import ProcessGraph

        system, config = _conform_seed()
        system.image
        calls = []
        for name in ("topological_order", "successors", "predecessors"):
            original = getattr(ProcessGraph, name)
            monkeypatch.setattr(
                ProcessGraph, name,
                lambda *args, _f=original, _n=name: (
                    calls.append(_n) or _f(*args)
                ),
            )
        status, _, _, _ = evaluate_workload(system, periods=3, config=config)
        assert status == "ok" and calls == []
        (_, template), = system._sim_templates.values()
        assert template.proc_cpu is system.image.proc_cpu

    @pytest.mark.parametrize("overload", [1.0, 6.0], ids=["ok", "diverged"])
    def test_bound_excess_equals_the_per_graph_bounds(self, overload):
        from repro.analysis.degree import (
            OVERLOAD_PENALTY, graph_response_time,
        )
        from repro.conformance.campaign import conformance_configuration
        from repro.io.serialize import system_from_dict, system_to_dict

        system, _ = _conform_seed(100003)
        data = system_to_dict(system)
        node = system.arch.et_node_names()[0]
        for graph in data["application"]["graphs"]:
            for proc in graph["processes"]:
                if proc["node"] == node:
                    proc["wcet"] *= overload
        system = system_from_dict(data)
        run = Session(system).evaluate(
            conformance_configuration(system), backend="simulation",
            memoize=False, periods=3,
        )
        assert run.error is None
        observed = run.metadata["observed_graph_response"]
        assert observed
        excess = 0.0
        for graph, response in observed.items():
            bound = graph_response_time(system, run.analysis.rho, graph)
            excess = max(excess, response - bound)
        assert run.metadata["bound_excess"] == excess
        diverged = [g for g, r in run.graph_responses.items()
                    if r == OVERLOAD_PENALTY]
        assert bool(diverged) == (overload > 1.0)
        assert not run.schedulable if diverged else run.converged


class TestCopiesCarryNoImage:
    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda system: pickle.loads(pickle.dumps(system)),
    ], ids=["deepcopy", "pickle"])
    def test_clone_rebuilds_and_reproduces(self, clone):
        system, config = _conform_seed()
        session = Session(system)
        runs = [
            session.evaluate(config.copy(), memoize=False),
            session.simulate(config.copy(), periods=3),
        ]
        assert system._image and system._plans
        twin = clone(system)
        assert not twin._image and not twin._plans
        again = Session(twin)
        repeats = [
            again.evaluate(config.copy(), memoize=False),
            again.simulate(config.copy(), periods=3),
        ]
        assert twin.image is not system.image
        for run, repeat in zip(runs, repeats):
            assert run.error is None
            # ``sim`` holds the engine's wall-clock timings.
            assert repeat.metadata.pop("sim", None) is not None or (
                run.backend == "analysis"
            )
            run.metadata.pop("sim", None)
            assert repeat.to_dict() == run.to_dict()


class TestQueriesReadTheImage:
    def test_public_queries_keep_names_and_order(self):
        system, _ = _conform_seed()
        app, arch = system.app, system.arch
        procs = list(app.all_processes())
        assert system.et_processes() == sorted(
            p.name for p in procs if arch.is_et_node(p.node)
        )
        assert system.tt_processes() == sorted(
            p.name for p in procs if arch.is_tt_node(p.node)
        )
        for msg in app.all_messages():
            assert system.route(msg.name) is arch.route_of(app, msg)

    def test_ancestors_match_a_walk_of_the_model(self):
        system, _ = _conform_seed()
        app = system.app
        for graph in app.graphs.values():
            procs_up, msgs_up = {}, {}
            for name in graph.topological_order():
                procs_up[name], msgs_up[name] = set(), set()
                for pred, msg in graph.predecessors(name):
                    procs_up[name] |= {pred} | procs_up[pred]
                    msgs_up[name] |= msgs_up[pred] | ({msg} if msg else set())
            for a in graph.processes:
                for b in graph.processes:
                    assert system.process_is_ancestor(a, b) == (
                        a in procs_up[b]
                    )
            for a in graph.messages:
                for b, msg in graph.messages.items():
                    assert system.message_is_ancestor(a, b) == (
                        a in msgs_up[msg.src]
                    )
            assert sorted(graph.sinks()) == [
                system.image.proc_names[p] for p in
                system.image.graph_sinks[system.image.graph_id[graph.name]]
            ]

    def test_unknown_override_error_is_unchanged(self):
        system, _ = _conform_seed()
        with pytest.raises(ConfigurationError) as info:
            resolve_routes(system, {"no_such_message": ()})
        assert str(info.value) == (
            "route override names unknown message no_such_message"
        )


class TestHopaReadsTheImage:
    """HOPA's local-deadline split over the image equals the name-keyed
    walk it replaced: same values and key order, weighted or not."""

    @pytest.mark.parametrize("system", [
        fig4_system(),
        generate_workload(WorkloadSpec(nodes=3, seed=4)),
        generate_workload(SPEC.workload_spec(100007)),
    ], ids=["fig4", "canonical", "four-cluster"])
    def test_local_deadlines_equal_the_oracle(self, system):
        names = [p.name for p in system.app.all_processes()]
        names += [m.name for m in system.app.all_messages()]
        for weights in (None, {n: 1.0 + (i % 7) / 3 for i, n in
                               enumerate(names) if i % 3}):
            got = local_deadlines(system, weights)
            want = legacy_local_deadlines(system, weights)
            assert list(got.items()) == list(want.items())
