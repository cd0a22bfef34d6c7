"""Parity, memo-safety and lifetime suite for the compiled static scheduler.

:func:`repro.schedule.static_schedule` runs on a scheduler compiled once
per ``(System, routing plan)`` and memoizes whole schedules.  Its
contract is "same schedule, less work": the reference is
:func:`oracles.legacy_static_schedule`, the interpreted list scheduler
kept unchanged as a test oracle.  Every comparison is structural and
order-sensitive: offsets with their dict order, per-node tables, MEDL
frames with their insertion order, packed messages and used bytes,
``message_arrival`` and ``makespan`` (``repr`` of floats is exact).
Error paths must raise the same exception type with the same message.

The calls under test are the ones real evaluations make: the
``multi_cluster_scheduling`` loop of seeded canonical and 3-/4-cluster
workloads (default, greedy and random routes), hyper-graph releases,
the OS, OR and SA heuristics run through one ``Session`` (so memo hits
and β, π and route changes all occur), and ``tt_delays`` moves.
"""

import copy
import gc
import pickle
import random
import weakref

import pytest

import repro.analysis.multicluster as multicluster
from repro.analysis import multi_cluster_scheduling
from repro.api import Session
from repro.buses import Slot, TTPBusConfig
from repro.conformance import CampaignSpec, conformance_configuration
from repro.conformance.campaign import run_campaign
from repro.exceptions import ConfigurationError, SchedulingError
from repro.model import Application, Message, Process, ProcessGraph
from repro.model.architecture import Architecture
from repro.model.architecture import MessageRoute
from repro.optim import optimize_resources, optimize_schedule
from repro.optim.annealing import sa_schedule
from repro.schedule import list_scheduler, static_schedule
from repro.synth.workload import WorkloadSpec, generate_workload, seeded_routes
from repro.system import System

from oracles import legacy_schedule, legacy_static_schedule
from test_multiperiod import build_multiperiod_system
from test_scheduler import tt_bus, tt_only_system


def schedule_repr(schedule):
    """Everything a schedule carries, with every dict order."""
    return repr((
        list(schedule.offsets.process_offsets.items()),
        list(schedule.offsets.message_offsets.items()),
        list(schedule.tables.items()),
        list(schedule.medl.items()),
        list(schedule.message_arrival.items()),
        schedule.makespan,
    ))


def outcome(fn, *args, **kwargs):
    """``("ok", schedule repr)`` or ``("error", type, message)``."""
    try:
        return ("ok", schedule_repr(fn(*args, **kwargs)))
    except Exception as exc:  # compared, never swallowed
        return ("error", type(exc), str(exc))


def assert_parity(system, bus, **kwargs):
    got = outcome(static_schedule, system, bus, **kwargs)
    want = outcome(legacy_static_schedule, system, bus, **kwargs)
    assert got == want
    return got


@pytest.fixture
def oracle_checked(monkeypatch):
    """Check every scheduler call of the Fig. 5 loop against the
    oracle; yields the list of checked calls."""
    checked = []

    def checked_schedule(system, bus, rho=None, tt_delays=None,
                         arrival_floors=None, routing=None):
        kwargs = dict(rho=rho, tt_delays=tt_delays,
                      arrival_floors=arrival_floors, routing=routing)
        schedule = static_schedule(system, bus, **kwargs)
        want = legacy_static_schedule(system, bus, **kwargs)
        assert schedule_repr(schedule) == schedule_repr(want), (
            f"call {len(checked)} differs"
        )
        checked.append((schedule, bus.slots,
                        None if routing is None else routing.key()))
        return schedule

    monkeypatch.setattr(multicluster, "static_schedule", checked_schedule)
    return checked


def memo_hits(checked):
    """Calls answered from the memo (they share an earlier call's MEDL)."""
    seen, hits = set(), 0
    for schedule, _slots, _plan in checked:
        hits += id(schedule.medl) in seen
        seen.add(id(schedule.medl))
    return hits


class TestFig5LoopParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_canonical_workloads(self, seed, oracle_checked):
        system = generate_workload(WorkloadSpec(
            seed=seed, nodes=2, processes_per_node=6 + seed % 3,
            gateway_messages=2 + seed % 4,
        ))
        for rounds in (4, 10):
            config = conformance_configuration(system, rounds)
            multi_cluster_scheduling(
                system, config.bus, config.priorities,
                tt_delays=config.tt_delays,
            )
        assert len(oracle_checked) >= 4
        assert len({slots for _s, slots, _p in oracle_checked}) == 2

    def test_hyper_graph_releases(self, oracle_checked):
        system, config = build_multiperiod_system()
        assert system.releases
        result = multi_cluster_scheduling(
            system, config.bus, config.priorities
        )
        assert oracle_checked
        later = [
            name for name, release in system.releases.items() if release
        ]
        offsets = result.offsets.process_offsets
        assert all(offsets[name] >= system.releases[name] for name in later)

    @pytest.mark.parametrize("shape", [
        dict(clusters=3, gateways=2, nodes=4),
        dict(clusters=3, gateways=3, nodes=4, route_strategy="greedy"),
        dict(clusters=3, gateways=3, nodes=4, route_strategy="random"),
        dict(clusters=4, gateways=4, nodes=6, route_strategy="random"),
    ], ids=["3c2g-default", "3c3g-greedy", "3c3g-random", "4c4g-random"])
    def test_general_topology_campaigns(self, shape, oracle_checked):
        spec = CampaignSpec(campaign=12, seed0=360, shrink=False, **shape)
        report = run_campaign(spec)
        assert report.clean, report.counts
        assert len(oracle_checked) > spec.campaign
        assert all(plan is not None for _s, _b, plan in oracle_checked)


def _routed_system(seed=3):
    spec = CampaignSpec(clusters=3, gateways=3, nodes=4,
                        route_strategy="random")
    return generate_workload(spec.workload_spec(seed)), spec, seed


class TestOptimizerReplay:
    """OS, then OR, then SA, all through one Session: the move sequences
    revisit schedules (memo hits) and change β, π and routes."""

    def _replay(self, system):
        session = Session(system)
        os_result = optimize_schedule(system, seed_limit=2, session=session)
        optimize_resources(system, os_result, max_iterations=2,
                           neighborhood=6, max_climbs=1, session=session)
        sa_schedule(system, iterations=12, seed=1, session=session)

    def test_canonical_move_sequences(self, oracle_checked):
        self._replay(generate_workload(
            WorkloadSpec(seed=5, nodes=2, processes_per_node=6)
        ))
        assert memo_hits(oracle_checked) > 0
        assert len({slots for _s, slots, _p in oracle_checked}) > 1

    def test_routed_move_sequences(self, oracle_checked):
        system, _spec, _seed = _routed_system()
        self._replay(system)
        assert memo_hits(oracle_checked) > 0
        assert len({slots for _s, slots, _p in oracle_checked}) > 1
        assert len({plan for _s, _b, plan in oracle_checked}) > 1


class TestDirectCalls:
    def test_tt_delay_moves(self):
        system = generate_workload(
            WorkloadSpec(seed=2, nodes=2, processes_per_node=8)
        )
        bus = conformance_configuration(system).bus
        rng = random.Random(2)
        activities = system.tt_processes() + [
            m.name for m in system.app.all_messages()
        ]
        delays = {}
        for _ in range(12):
            delays[rng.choice(activities)] = rng.choice((0.0, 1.5, 7.0))
            assert_parity(system, bus, tt_delays=dict(delays))
            assert_parity(system, bus, tt_delays=dict(delays))  # memo hit

    def test_routing_on_general_topology(self):
        system, spec, seed = _routed_system(11)
        config = conformance_configuration(system)
        routes = seeded_routes(system, spec.workload_spec(seed))
        for plan in (None, system.routing_for(routes)):
            assert_parity(system, config.bus, routing=plan)

    def test_float_boundaries(self):
        system, bus = _float_boundary_system()
        assert_parity(system, bus)
        schedule = static_schedule(system, bus)
        assert schedule.offsets.process_offsets["Q2"] == 0.1
        assert schedule.frame_of("m").round_index == 35

    def test_arrival_floors_and_rho(self):
        system = generate_workload(
            WorkloadSpec(seed=4, nodes=2, processes_per_node=8)
        )
        config = conformance_configuration(system)
        rho = multi_cluster_scheduling(
            system, config.bus, config.priorities
        ).rho
        floors = {m: 3.0 * i for i, m in enumerate(system.et_to_tt_messages())}
        for kwargs in (dict(rho=rho), dict(arrival_floors=floors),
                       dict(rho=rho, arrival_floors=floors)):
            assert_parity(system, config.bus, **kwargs)


def _float_boundary_system():
    """TT1 runs P in [0.3, 1.3); Q2 (0.1 + 0.2) fits the gap before it only
    within the first-fit tolerance, and Q ends (5.4 + 1.7) a rounding error
    after the start of TT1's slot in round 35, which the slot search
    accepts only within its tolerance."""
    graph = ProcessGraph(
        name="G", period=100.0, deadline=100.0,
        processes=[
            Process("P", wcet=1.0, node="TT1"),
            Process("Q", wcet=1.7, node="TT1"),
            Process("Q2", wcet=0.2, node="TT1"),
            Process("R", wcet=0.5, node="TT2"),
        ],
        messages=[Message("m", src="Q", dst="R", size=8)],
    )
    arch = Architecture(tt_nodes=["TT1", "TT2"], et_nodes=["ET1"], gateway="NG")
    system = System(Application([graph]), arch,
                    releases={"P": 0.3, "Q": 5.4, "Q2": 0.1})
    bus = TTPBusConfig([
        Slot("TT2", 8, 0.1), Slot("TT1", 8, 0.05), Slot("NG", 8, 0.05),
    ])
    return system, bus


class TestErrorPaths:
    def test_slot_capacity_overflow(self):
        small = TTPBusConfig([
            Slot("TT1", capacity=4, duration=5.0),
            Slot("TT2", capacity=8, duration=5.0),
            Slot("NG", capacity=8, duration=5.0),
        ])
        got = assert_parity(tt_only_system(), small)
        assert got[:2] == ("error", SchedulingError)
        assert "exceeds the capacity" in got[2]

    def test_round_search_overload(self, monkeypatch):
        monkeypatch.setattr(list_scheduler, "_ROUND_SEARCH_MARGIN", 1)
        monkeypatch.setattr(legacy_schedule, "_ROUND_SEARCH_MARGIN", 1)
        # Two 8-byte frames from A, one 8-byte slot per round.
        system = tt_only_system(
            extra_messages=[Message("m2", src="A", dst="B", size=8)]
        )
        got = assert_parity(system, tt_bus())
        assert got[:2] == ("error", SchedulingError)
        assert "overloaded" in got[2]

    def test_etc_cycle(self):
        system = tt_only_system()
        # A predecessor arc the successor lists never release: the
        # same symptom a precedence cycle through the ETC produces.
        system.app.graphs["G"]._pred["C"].append(("B", None))
        got = assert_parity(system, tt_bus())
        assert got[:2] == ("error", SchedulingError)
        assert "could not order all TT processes" in got[2]

    def test_tt_node_without_slot(self):
        bus = TTPBusConfig([Slot("TT2", 8, 5.0), Slot("NG", 8, 5.0)])
        got = assert_parity(tt_only_system(), bus)
        assert got == (
            "error", ConfigurationError,
            "node TT1 owns no TDMA slot in this round",
        )

    def test_transit_gateway_without_slot(self):
        for seed in range(40):
            system, spec, _ = _routed_system(seed)
            plan = system.routing_for(
                seeded_routes(system, spec.workload_spec(seed))
            )
            # ET->ET messages relayed through the TT cluster feed ET
            # consumers, whose offsets add the relaying slot's duration.
            relays = {
                leg.sender
                for msg, legs in plan.legs.items()
                if system.route(msg) is MessageRoute.ET_TO_ET
                for leg in legs[1:] if leg.is_fifo
            }
            if relays:
                break
        else:
            pytest.skip("no route transits the TT cluster")
        bus = conformance_configuration(system).bus
        slotless = TTPBusConfig(
            [s for s in bus.slots if s.node not in relays]
        )
        got = assert_parity(system, slotless, routing=plan)
        assert got[:2] == ("error", ConfigurationError)


class TestMemoSafety:
    def test_hit_returns_fresh_offsets(self):
        system = tt_only_system()
        first = static_schedule(system, tt_bus())
        expected = schedule_repr(first)
        first.offsets.process_offsets["A"] = 999.0
        first.offsets.message_offsets["m"] = -1.0
        again = static_schedule(system, tt_bus())
        assert again.medl is first.medl  # a memo hit
        assert again.offsets is not first.offsets
        assert schedule_repr(again) == expected

    def test_mutated_config_offsets_leave_next_evaluation_alone(self):
        system = generate_workload(
            WorkloadSpec(seed=1, nodes=2, processes_per_node=6)
        )
        session = Session(system)
        config = conformance_configuration(system)
        first = session.evaluate(config, memoize=False)
        expected = dict(first.config.offsets.process_offsets)
        for name in first.config.offsets.process_offsets:
            first.config.offsets.process_offsets[name] += 1000.0
        again = session.evaluate(conformance_configuration(system),
                                 memoize=False)
        assert again.config.offsets.process_offsets == expected

    def test_memo_is_bounded(self):
        system = tt_only_system()
        for i in range(list_scheduler._MEMO_SIZE + 10):
            static_schedule(system, tt_bus(), tt_delays={"A": float(i)})
        (context,) = system._schedulers.values()
        assert len(context.memo) == list_scheduler._MEMO_SIZE
        assert_parity(system, tt_bus(), tt_delays={"A": 3.0})

    def test_plan_contexts_are_bounded(self, monkeypatch):
        monkeypatch.setattr(list_scheduler, "_MAX_PLANS", 1)
        system = tt_only_system()
        for routing in (None, system.default_routing(), None):
            assert_parity(system, tt_bus(), routing=routing)
            assert len(system._schedulers) == 1

    @pytest.mark.parametrize("routed", [False, True], ids=["canonical", "routed"])
    def test_scheduled_system_is_freed(self, routed):
        if routed:
            system, _spec, _seed = _routed_system()
        else:
            system = generate_workload(
                WorkloadSpec(seed=1, nodes=2, processes_per_node=6)
            )
        config = conformance_configuration(system)
        result = multi_cluster_scheduling(
            system, config.bus, config.priorities
        )
        assert system._schedulers
        ref = weakref.ref(system)
        del system, config, result
        gc.collect()
        assert ref() is None

    def test_copies_ship_without_compiled_state(self):
        system = tt_only_system()
        static_schedule(system, tt_bus())
        for clone in (copy.deepcopy(system),
                      pickle.loads(pickle.dumps(system))):
            assert not clone._schedulers
            assert_parity(clone, tt_bus())
        assert system._schedulers
