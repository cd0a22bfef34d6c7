"""Tests of the simulator–analysis conformance subsystem.

Covers the pinned seed=1654 regression fixture (the gateway
message-availability divergence this subsystem was built around), the
campaign smoke run that tier-1 contributes to CI, violation
classification, fixture round-tripping, counterexample shrinking and the
schedule-table dispatch audit (on the pinned fixture, on property-test
chain systems and on routed 4-cluster workloads).
"""

import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import multi_cluster_scheduling
from repro.api import Session
from repro.conformance import (
    CampaignSpec,
    campaign_report,
    classify_run,
    conformance_configuration,
    load_fixture,
    replay_fixture,
    run_campaign,
    save_fixture,
    shrink_counterexample,
)
from repro.conformance.classify import ConformanceViolation
from repro.exceptions import ConfigurationError
from repro.optim.routing import fit_bus_to_routes
from repro.semantics import (
    dispatch_respects_arrival,
    fifo_competitors,
    fifo_drain_rounds,
)
from repro.synth.workload import generate_workload, seeded_routes

from oracles import audit_dispatch_eligibility

FIXTURES = Path(__file__).parent / "fixtures"
SEED1654 = FIXTURES / "seed1654_gateway_fifo.json"


class TestPinnedSeed1654:
    """The gateway divergence stays fixed — verdict *and* dispatch times.

    The scenario: hypothesis found that at ``seed=1654, n_graphs=3,
    chain_len=5`` the static schedule dispatched TT consumer ``g1p3``
    before gateway message ``g1m3`` had arrived in simulation — the
    Out_TTP FIFO analysis only charged higher-priority messages although
    the FIFO drains in arrival order.  The fixture replays the exact
    system without depending on the generator that produced it.
    """

    @pytest.fixture(scope="class")
    def replayed(self):
        return replay_fixture(SEED1654)

    def test_no_violations(self, replayed):
        fixture, run, violations = replayed
        assert run.feasible
        assert violations == []
        assert run.metadata["violations"] == 0

    def test_schedulability_verdict(self, replayed):
        fixture, run, _ = replayed
        assert run.schedulable is fixture.meta["expected"]["schedulable"]

    def test_pinned_dispatch_times(self, replayed):
        fixture, run, _ = replayed
        expected = fixture.meta["expected"]["tt1_dispatch"]
        table = {
            entry.process: [entry.start, entry.end]
            for entry in run.analysis.schedule.tables["TT1"]
        }
        assert table == pytest.approx(expected)

    def test_pinned_arrival_bounds(self, replayed):
        fixture, run, _ = replayed
        for msg, bound in fixture.meta["expected"]["ttp_arrival_bounds"].items():
            assert run.timing[f"ttp:{msg}"]["worst_end"] == pytest.approx(bound)

    def test_consumer_dispatched_after_availability(self, replayed):
        """g1p3's dispatch respects g1m3's simulated arrival."""
        fixture, run, _ = replayed
        dispatch = run.timing["process:g1p3"]["offset"]
        arrival = run.metadata["observed_message_latency"]["g1m3"]
        assert dispatch_respects_arrival(dispatch, arrival)


class TestCampaignSmoke:
    """The tier-1 slice of the CI conformance job."""

    def test_small_campaign_is_clean(self):
        report = run_campaign(CampaignSpec(campaign=12, seed0=0, workers=1))
        assert report.clean, [o.to_dict() for o in report.violating]
        assert len(report.outcomes) == 12
        # The sweep must actually exercise the contract's domain.
        assert report.counts.get("ok", 0) > 0
        assert report.counts.get("error", 0) == 0

    def test_report_serializes(self):
        report = run_campaign(CampaignSpec(campaign=3, seed0=40, workers=1))
        payload = report.to_dict()
        assert payload["campaign"] == 3
        assert payload["clean"] == report.clean
        assert len(payload["outcomes"]) == 3

    def test_errored_seeds_break_the_clean_verdict(self):
        """An all-error campaign exercised nothing — it must not pass."""
        from repro.conformance.campaign import CampaignReport, SeedOutcome

        spec = CampaignSpec(campaign=2)
        ok = SeedOutcome(seed=0, status="ok")
        err = SeedOutcome(seed=1, status="error", error="boom")
        assert CampaignReport(spec, [ok]).clean
        assert not CampaignReport(spec, [ok, err]).clean
        assert not CampaignReport(spec, [err]).clean


class TestCampaignDeterminism:
    """Serial and ``--workers N`` campaigns are the same campaign."""

    def test_chunks_are_a_pure_function_of_the_spec(self):
        from repro.explore.engine import plan_cells

        def chunks(spec):
            cells = spec.cells()
            _records, _hits, units = plan_cells(cells, None, spec.workers)
            return [[cells[i].workload["seed"] for i in u] for u in units]

        spec = CampaignSpec(campaign=25, seed0=7, workers=3)
        assert chunks(spec) == chunks(spec)  # deterministic
        flat = [seed for chunk in chunks(spec) for seed in chunk]
        assert flat == list(range(7, 32))  # contiguous, in seed order
        assert chunks(CampaignSpec(campaign=0)) == []

    def test_serial_equals_parallel_outcomes(self):
        import warnings

        spec_serial = CampaignSpec(campaign=10, seed0=0, workers=1)
        serial = run_campaign(spec_serial)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no silent inline fallback
            parallel = run_campaign(
                CampaignSpec(campaign=10, seed0=0, workers=2)
            )
        assert [o.to_dict() for o in serial.outcomes] == [
            o.to_dict() for o in parallel.outcomes
        ]
        # to_dict() drops the per-seed profile that `repro conform
        # --profile` reads; the parallel outcomes must still carry it.
        assert [sorted(o.profile) for o in serial.outcomes] == [
            sorted(o.profile) for o in parallel.outcomes
        ]

    def test_serial_equals_parallel_fixtures(self, tmp_path):
        """Fixture output is identical across worker counts.

        Counterexample files are keyed by seed and produced by the
        deterministic per-seed pipeline, so serial and parallel runs of
        one spec must leave identical fixture directories (here: both
        empty, since the range is clean — the violating case is covered
        by ``test_detects_and_minimizes_under_unsound_analysis``).
        """
        import warnings

        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_campaign(
            CampaignSpec(campaign=6, workers=1, fixture_dir=str(serial_dir))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no silent inline fallback
            run_campaign(
                CampaignSpec(
                    campaign=6, workers=2, fixture_dir=str(parallel_dir)
                )
            )
        assert sorted(p.name for p in serial_dir.iterdir()) == sorted(
            p.name for p in parallel_dir.iterdir()
        )


def _byte_granular(own_size, bytes_ahead, count, capacity, max_size):
    """The paper's byte-granular drain formula: the head-of-line
    fragmentation under-count the shipped ``fifo_drain_rounds`` fixed,
    installed to make seed 24 violate again."""
    return max(1, math.ceil((own_size + bytes_ahead) / capacity - 1e-12))


class TestGoldenCounterexampleFixture:
    """A violating campaign pins the same counterexample, byte for byte,
    as before campaigns became sweeps of ``conform`` cells."""

    #: sha256 of the outcome dicts (fixture paths cut to their names),
    #: and of the pinned ``seed24.json``, both recorded before.
    OUTCOMES_SHA256 = (
        "20cec0e100341c2d5ac5942b79480bb7248abba718dea4852bcc9207f38020fc"
    )
    FIXTURE_SHA256 = (
        "57e9a3cc1cddcbc50101b6bbd924f2bb710ea8b54f80f22494113392c739a789"
    )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_outcomes_and_fixture_bytes(self, workers, tmp_path, monkeypatch):
        import hashlib
        import json
        import os

        import repro.analysis.kernel as kernel_mod

        monkeypatch.setattr(kernel_mod, "fifo_drain_rounds", _byte_granular)
        report = run_campaign(CampaignSpec(
            campaign=6, seed0=20, workers=workers,
            fixture_dir=str(tmp_path),
        ))
        outcomes = []
        for outcome in report.outcomes:
            data = outcome.to_dict()
            if data["fixture"]:
                data["fixture"] = os.path.basename(data["fixture"])
            outcomes.append(data)
        assert [(o["seed"], o["status"]) for o in outcomes] == [
            (20, "ok"), (21, "ok"), (22, "ok"), (23, "ok"),
            (24, "violation"), (25, "ok"),
        ]
        digest = hashlib.sha256(
            json.dumps(outcomes, sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.OUTCOMES_SHA256
        assert sorted(p.name for p in tmp_path.iterdir()) == ["seed24.json"]
        pinned = hashlib.sha256(
            (tmp_path / "seed24.json").read_bytes()
        ).hexdigest()
        assert pinned == self.FIXTURE_SHA256

    def test_interrupted_campaign_pins_the_seeds_done(
        self, tmp_path, monkeypatch
    ):
        """Stopped after seed 24's unit, the campaign still pins seed
        24: the resume seed skips every seed reported done."""
        import hashlib
        import threading

        import repro.analysis.kernel as kernel_mod
        import repro.explore.engine as engine
        from repro.explore import SweepInterrupted

        monkeypatch.setattr(kernel_mod, "fifo_drain_rounds", _byte_granular)
        stop = threading.Event()
        real_chunk = engine._evaluate_chunk

        def stop_after_seed_24(payload):
            records = real_chunk(payload)
            if any(r["workload"]["seed"] == 24 for r in records):
                stop.set()
            return records

        monkeypatch.setattr(engine, "_evaluate_chunk", stop_after_seed_24)
        # Serial: 8 seeds in 4 lanes of 2, the third unit is seeds 24-25.
        with pytest.raises(SweepInterrupted) as info:
            run_campaign(
                CampaignSpec(campaign=8, seed0=20, fixture_dir=str(tmp_path)),
                stop=stop,
            )
        assert info.value.completed == 6
        assert sorted(p.name for p in tmp_path.iterdir()) == ["seed24.json"]
        pinned = hashlib.sha256(
            (tmp_path / "seed24.json").read_bytes()
        ).hexdigest()
        assert pinned == self.FIXTURE_SHA256

    def test_signal_while_pinning_resumes_at_first_unpinned_seed(
        self, tmp_path, monkeypatch
    ):
        """A signal during the pinning lets the pin in flight finish
        and reports done only the seeds before the first unpinned
        violating seed, so a resumed run pins the rest."""
        import threading

        import repro.conformance.campaign as campaign
        from repro.explore import SweepInterrupted

        stop = threading.Event()
        pinned = []

        def pin_then_signal(payload):
            _, seed, _ = payload
            pinned.append(seed)
            stop.set()
            return str(tmp_path / f"seed{seed}.json")

        monkeypatch.setattr(campaign, "_pin_seed", pin_then_signal)
        records = [
            {
                "workload": {"seed": seed},
                "metrics": {
                    "status": "violation" if seed in (21, 23) else "ok",
                },
                "error": None,
            }
            for seed in range(20, 25)
        ]
        spec = CampaignSpec(campaign=5, seed0=20, fixture_dir=str(tmp_path))
        with pytest.raises(SweepInterrupted) as info:
            campaign_report(spec, records, 0.0, stop=stop)
        assert pinned == [21]
        assert info.value.completed == 3
        assert info.value.records == records[:3]


class TestCampaignProfile:
    def test_report_carries_phase_timings(self):
        report = run_campaign(CampaignSpec(campaign=5, seed0=0))
        profile = report.profile
        assert profile["seeds"] == 5
        assert profile["wall_s"] > 0
        assert profile["generate_s"] > 0
        assert profile["analyze_s"] > 0
        # At least one seed simulated -> the kernel counted events.
        assert profile["sim_events"] > 0
        assert profile["events_per_s"] > 0
        payload = report.to_dict()
        assert payload["profile"]["seeds"] == 5
        # Outcome records stay deterministic: no timings inside.
        assert "profile" not in payload["outcomes"][0]

    def test_engine_field_accepts_kernel_rejects_legacy(self):
        """Campaign dicts from before the engine option was retired
        still load when they name the kernel; any other engine fails
        loudly instead of silently running the kernel."""
        data = {**CampaignSpec(campaign=5).to_dict(), "engine": "kernel"}
        assert CampaignSpec.from_dict(data) == CampaignSpec(campaign=5)
        assert "engine" not in CampaignSpec().to_dict()
        with pytest.raises(ConfigurationError, match="legacy"):
            CampaignSpec.from_dict({**data, "engine": "legacy"})


class TestClassify:
    def _run(self, **overrides):
        base = dict(
            metadata={
                "violation_details": [],
                "observed_graph_response": {},
                "observed_process_response": {},
                "observed_message_latency": {},
                "observed_queue_peak": {},
            },
            graph_responses={},
            timing={},
            buffers=None,
        )
        base.update(overrides)
        return SimpleNamespace(**base)

    def test_clean_run_has_no_violations(self):
        assert classify_run(self._run()) == []

    def test_graph_overrun_is_deadline_kind(self):
        run = self._run(
            metadata={
                "violation_details": [],
                "observed_graph_response": {"G0": 110.0},
                "observed_process_response": {},
                "observed_message_latency": {},
                "observed_queue_peak": {},
            },
            graph_responses={"G0": 100.0},
        )
        (violation,) = classify_run(run)
        assert violation.kind == "deadline"
        assert violation.excess == pytest.approx(10.0)

    def test_missing_message_keeps_causal_detail(self):
        detail = {
            "process": "p1",
            "dispatch_time": 40.0,
            "missing_message": "m1",
            "message_arrival": 60.0,
            "gateway_slot_start": 50.0,
        }
        run = self._run(
            metadata={
                "violation_details": [detail],
                "observed_graph_response": {},
                "observed_process_response": {},
                "observed_message_latency": {},
                "observed_queue_peak": {},
            },
        )
        (violation,) = classify_run(run)
        assert violation.kind == "missing-message"
        assert violation.bound == 60.0
        assert violation.detail["gateway_slot_start"] == 50.0

    def test_latency_over_delivery_bound_is_jitter_kind(self):
        # The delivering leg is the row with the largest cumulative
        # worst_end (a multi-hop transit message ends on a CAN leg
        # *after* its TTP leg); anything past it is a violation,
        # anything between an intermediate leg and the delivery is not.
        def run_with(observed):
            return self._run(
                metadata={
                    "violation_details": [],
                    "observed_graph_response": {},
                    "observed_process_response": {},
                    "observed_message_latency": {"m1": observed},
                    "observed_queue_peak": {},
                },
                timing={
                    "ttp:m1": {"worst_end": 60.0},
                    "can:m1": {"worst_end": 90.0},
                },
            )

        assert classify_run(run_with(80.0)) == []
        (violation,) = classify_run(run_with(95.0))
        assert violation.kind == "jitter-bound"
        assert violation.bound == 90.0  # the delivering leg's end

    def test_violation_roundtrip(self):
        violation = ConformanceViolation(
            kind="deadline", activity="G1", observed=2.0, bound=1.0,
            detail={"note": "x"},
        )
        assert ConformanceViolation.from_dict(violation.to_dict()) == violation

    def test_never_arrived_bound_stays_valid_json(self):
        import json

        violation = ConformanceViolation(
            kind="missing-message", activity="p1",
            observed=40.0, bound=float("inf"),
        )
        payload = json.dumps(violation.to_dict())  # RFC-strict: no Infinity
        assert "Infinity" not in payload
        restored = ConformanceViolation.from_dict(json.loads(payload))
        assert restored.bound == float("inf")


class TestFixtures:
    def test_roundtrip(self, tmp_path):
        spec = CampaignSpec()
        system = generate_workload(spec.workload_spec(7))
        config = conformance_configuration(system)
        path = tmp_path / "fx.json"
        save_fixture(path, system, config, [], meta={"seed": 7, "periods": 2})
        fixture = load_fixture(path)
        assert fixture.meta["seed"] == 7
        assert fixture.system.app.process_count() == system.app.process_count()
        assert [s.node for s in fixture.config.bus.slots] == [
            s.node for s in config.bus.slots
        ]

    def test_replay_runs_both_sides(self, tmp_path):
        spec = CampaignSpec()
        system = generate_workload(spec.workload_spec(7))
        config = conformance_configuration(system)
        path = tmp_path / "fx.json"
        save_fixture(path, system, config, [], meta={"periods": 2})
        _fixture, run, violations = replay_fixture(path)
        assert run.backend == "simulation"
        assert run.metadata["periods"] == 2
        assert violations == []

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_fixture(path)

    def test_infeasible_replay_raises_instead_of_false_clean(self, tmp_path):
        from repro.exceptions import ReproError
        from repro.model import PriorityAssignment, SystemConfiguration

        spec = CampaignSpec()
        system = generate_workload(spec.workload_spec(7))
        broken = SystemConfiguration(
            bus=conformance_configuration(system).bus,
            priorities=PriorityAssignment({}, {}),  # incomplete on purpose
        )
        path = tmp_path / "broken.json"
        save_fixture(path, system, broken, [], meta={"periods": 2})
        with pytest.raises(ReproError):
            replay_fixture(path)


class TestShrink:
    def test_clean_system_comes_back_unchanged(self):
        spec = CampaignSpec()
        system = generate_workload(spec.workload_spec(7))
        marker = [
            ConformanceViolation(
                kind="deadline", activity="G0", observed=2.0, bound=1.0
            )
        ]
        shrunk, violations = shrink_counterexample(system, marker)
        # No reduction preserves a (non-reproducing) violation, so the
        # original pair is returned.
        assert shrunk is system
        assert violations is marker

    def test_detects_and_minimizes_under_unsound_analysis(self, monkeypatch):
        """End-to-end harness check against a deliberately broken bound.

        Re-installing the paper's byte-granular drain formula (the
        head-of-line fragmentation under-count this PR fixed) must make
        the campaign's evaluator flag seed 24 again, and the shrinker
        must reduce the workload while preserving the violation.
        """
        import math as _math

        import repro.analysis.kernel as kernel_mod
        from repro.conformance.campaign import evaluate_workload

        def byte_granular(own_size, bytes_ahead, count, capacity, max_size):
            return max(
                1,
                _math.ceil((own_size + bytes_ahead) / capacity - 1e-12),
            )

        monkeypatch.setattr(
            kernel_mod, "fifo_drain_rounds", byte_granular
        )
        spec = CampaignSpec()
        system = generate_workload(spec.workload_spec(24))
        status, violations, _error, _profile = evaluate_workload(system)
        assert status == "violation"
        assert any(v.kind == "missing-message" for v in violations)

        shrunk, kept = shrink_counterexample(system, violations)
        assert kept, "shrinking lost the violation"
        assert (
            shrunk.app.process_count() <= system.app.process_count()
        )
        assert len(shrunk.app.graphs) <= len(system.app.graphs)


class TestSharedSemantics:
    def test_fifo_competitors_are_priority_blind(self):
        fixture = load_fixture(SEED1654)
        system = fixture.system
        ettt = system.et_to_tt_messages()
        for msg in ettt:
            assert sorted(fifo_competitors(system, msg)) == sorted(
                m for m in ettt if m != msg
            )

    def test_drain_rounds_counterexample_of_seed_campaign(self):
        # 10+26+19+18 bytes ahead of a 32-byte message through a 32-byte
        # slot: five rounds under whole-frame packing (the byte-granular
        # formula said four — the unsound under-count).
        assert fifo_drain_rounds(32, 73.0, 4, 32, 32) == 5

    def test_drain_rounds_gap_bound_tightness(self):
        # Two 8-byte frames ahead of an 8-byte message, 24-byte slot:
        # everything fits one slot, front-first drain never blocks.
        assert fifo_drain_rounds(8, 16.0, 2, 24, 8) == 1
        # Empty queue: the next slot carries the message.
        assert fifo_drain_rounds(8, 0.0, 0, 24, 8) == 1
        # Two 9-byte frames ahead of a 9-byte one, 16-byte slot: every
        # round blocks after one frame — three rounds (tight).
        assert fifo_drain_rounds(9, 18.0, 2, 16, 9) == 3
        # One 12-byte frame ahead of a 4-byte one, 16-byte slot: both
        # ride one slot (the one-slot exact case).
        assert fifo_drain_rounds(4, 12.0, 1, 16, 12) == 1

    def test_schedule_audit_is_empty_for_synthesized_schedule(self):
        fixture = load_fixture(SEED1654)
        session = Session(fixture.system)
        run = session.evaluate(fixture.config)
        result = run.analysis
        assert audit_dispatch_eligibility(
            result.schedule, fixture.system, result.rho
        ) == []

    def test_graph_response_time_infinite_when_leg_diverges(self):
        # A diverged TTP leg must void the graph bound even though the
        # schedule-fixed TT sink still has a finite completion time.
        from repro.analysis import graph_response_time
        from repro.analysis.timing import ActivityTiming

        fixture = load_fixture(SEED1654)
        session = Session(fixture.system)
        run = session.evaluate(fixture.config)
        rho = run.analysis.rho.copy()
        victim = next(iter(rho.ttp))
        rho.ttp[victim] = ActivityTiming(
            offset=0.0, jitter=math.inf, queuing=math.inf,
            duration=10.0, converged=False,
        )
        graph = fixture.system.app.graph_of_message(victim).name
        assert math.isinf(
            graph_response_time(fixture.system, rho, graph)
        )


class TestDispatchAudit:
    """Schedules of the Fig. 5 loop pass the static dispatch audit on
    the property-test chain systems and on routed topologies."""

    @pytest.mark.parametrize("seed", [1654, 24])
    def test_chain_schedules_respect_dispatch_contract(self, seed):
        from test_properties import build_random_system

        system, config = build_random_system(seed, n_graphs=3, chain_len=5)
        result = multi_cluster_scheduling(
            system, config.bus, config.priorities
        )
        if not (result.converged and result.rho.all_converged()):
            pytest.skip("outside the contract's domain (overload)")
        assert audit_dispatch_eligibility(
            result.schedule, system, result.rho
        ) == []

    # 4-cluster, 4-gateway seeds whose random routes override a default
    # and whose Fig. 5 loop runs more than one analysis pass.
    @pytest.mark.parametrize("seed", [7, 13, 17, 25, 26])
    def test_routed_schedules_respect_dispatch_contract(self, seed):
        spec = CampaignSpec(clusters=4, gateways=4, nodes=6,
                            route_strategy="random")
        system = generate_workload(spec.workload_spec(seed))
        config = conformance_configuration(system)
        config.routes.update(seeded_routes(system, spec.workload_spec(seed)))
        assert config.routes
        config.bus = fit_bus_to_routes(system, config.bus, config.routes)
        result = multi_cluster_scheduling(
            system, config.bus, config.priorities, routes=config.routes
        )
        assert result.iterations > 1
        assert result.converged and result.rho.all_converged()
        assert audit_dispatch_eligibility(
            result.schedule, system, result.rho
        ) == []


class TestClassifyReadsTheAnalysis:
    """A run that carries its analysis is classified from ``analysis.rho``
    without building its timing table; a run rebuilt from JSON reads
    the table's rows and classifies the same."""

    SPEC = CampaignSpec(
        campaign=1, seed0=100000, clusters=4, gateways=4, nodes=6,
        route_strategy="random", shrink=False,
    )

    def _seed(self):
        from repro.conformance.campaign import seed_configuration

        workload = self.SPEC.workload_spec(100000)
        system = generate_workload(workload)
        return system, seed_configuration(
            system, workload, self.SPEC.rounds_per_period
        )

    def test_conform_seed_builds_no_timing_table(self, monkeypatch):
        from repro.api import result
        from repro.conformance.campaign import evaluate_workload

        builds = []
        original = result.timing_table
        monkeypatch.setattr(
            result, "timing_table",
            lambda rho: builds.append(rho) or original(rho),
        )
        system, config = self._seed()
        status, violations, error, _ = evaluate_workload(
            system, periods=3, config=config
        )
        assert (status, violations, error) == ("ok", [], None)
        assert builds == []

    def test_fresh_and_round_tripped_runs_classify_alike(self):
        import dataclasses

        from repro.api import RunResult

        system, config = self._seed()
        session = Session(system)
        analysis = session.evaluate(
            config, backend="analysis", memoize=False
        )
        run = session.evaluate(
            config, backend="simulation", memoize=False, periods=3,
            analysis_run=analysis,
        )
        late = dataclasses.replace(run, metadata={**run.metadata, **{
            key: {name: value + 1e3 for name, value in run.metadata[
                key].items()}
            for key in (
                "observed_graph_response", "observed_process_response",
                "observed_message_latency", "observed_queue_peak",
            )
        }})
        for fresh in (run, late):
            assert fresh.analysis is not None
            replayed = RunResult.from_dict(fresh.to_dict())
            assert replayed.analysis is None
            assert classify_run(fresh) == classify_run(replayed)
        assert classify_run(run) == []
        kinds = {v.kind for v in classify_run(late)}
        assert {"deadline", "response-bound", "jitter-bound"} <= kinds
