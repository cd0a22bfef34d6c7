"""End-to-end tests of the evaluation service (ISSUE 6 tentpole).

Three layers:

* :class:`TestProtocol` / :class:`TestServiceInline` — addressing and
  the service engine itself (``workers=0``: deterministic, no fork).
* :class:`TestServiceCore` — the core's shape: no thread of its own,
  results stored before the journal marks a unit done, a recovered
  eval unit persisted under its serve key, and a malformed system
  answered once instead of retried.
* :class:`TestServiceHTTP` — a real in-process daemon (HTTP listener +
  forked worker pool) driven by **two concurrent clients submitting
  overlapping requests**: every result is bit-identical to a direct
  :meth:`repro.api.Session.evaluate`, every duplicate is computed
  exactly once (dedup/store counters asserted), and ``POST /shutdown``
  drains cleanly.
* :class:`TestServeSubprocessSigterm` (``slow``) — the real ``repro
  serve`` process killed with SIGTERM mid-flight: in-flight work is
  finished and persisted, exit code 0.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api.session import Session
from repro.conformance.campaign import (
    CampaignSpec,
    SeedOutcome,
    conformance_configuration,
    run_campaign,
)
from repro.explore import SweepSpec, run_sweep
from repro.io.serialize import (
    config_to_dict,
    run_result_to_dict,
    system_to_dict,
)
from repro.serve import (
    EvaluationService,
    ServeClient,
    ServerError,
    evaluation_key,
    serve,
    system_fingerprint,
)
from repro.serve.protocol import RESULT_KIND
from repro.store import ResultStore, content_key
from repro.synth.workload import WorkloadSpec, generate_workload


def _system(seed=3, processes=6):
    return generate_workload(
        WorkloadSpec(nodes=2, processes_per_node=processes, seed=seed)
    )


def _configs(system, count):
    """Distinct (but deterministic) configurations of one system."""
    return [
        conformance_configuration(system, rounds_per_period=4 + i)
        for i in range(count)
    ]


class TestProtocol:
    def test_evaluation_key_namespaces_by_system(self):
        config = config_to_dict(_configs(_system(seed=1), 1)[0])
        sys_a = system_to_dict(_system(seed=1))
        sys_b = system_to_dict(_system(seed=2))
        skey_a, serve_a = evaluation_key(
            system_fingerprint(sys_a), "analysis", {}, config
        )
        skey_b, serve_b = evaluation_key(
            system_fingerprint(sys_b), "analysis", {}, config
        )
        # Same classic session key (it has no system component), but
        # distinct serve keys — the namespace the shared store needs.
        assert skey_a == skey_b
        assert serve_a != serve_b

    def test_unstorable_options_yield_no_key(self):
        system = _system(seed=1)
        config = config_to_dict(_configs(system, 1)[0])
        h = system_fingerprint(system_to_dict(system))
        # A hashable non-scalar option (a tuple here; an execution
        # callable in real use) has no canonical cross-process form.
        skey, serve_key = evaluation_key(
            h, "analysis", {"horizon": (1, 2)}, config
        )
        assert skey is None and serve_key is None

    @staticmethod
    def _seed_key(spec_dict, seed):
        """The store address of one campaign seed: its conform cell's
        key."""
        spec = CampaignSpec.from_dict({
            **spec_dict, "seed0": seed, "campaign": 1,
        })
        return spec.cells()[0].key

    def test_seed_key_ignores_placement_fields(self):
        seed_key = self._seed_key
        spec = CampaignSpec(campaign=10, workers=1).to_dict()
        rechunked = {**spec, "workers": 8, "campaign": 99, "seed0": 5,
                     "shrink": False, "fixture_dir": "elsewhere"}
        assert seed_key(spec, 7) == seed_key(rechunked, 7)
        assert seed_key(spec, 7) != seed_key(spec, 8)
        other = {**spec, "processes_per_node": 4}
        assert seed_key(spec, 7) != seed_key(other, 7)

    def test_seed_key_includes_non_default_topology(self):
        """A topology campaign must not be served the canonical
        campaign's stored outcomes: each non-default axis keys apart."""
        seed_key = self._seed_key
        canonical = CampaignSpec().to_dict()
        topo = CampaignSpec(
            clusters=4, gateways=4, route_strategy="random"
        ).to_dict()
        assert seed_key(canonical, 7) != seed_key(topo, 7)
        for axis, value in (
            ("clusters", 3), ("gateways", 2), ("route_strategy", "greedy"),
        ):
            assert seed_key(canonical, 7) != seed_key(
                {**canonical, axis: value}, 7
            ), axis
        # Defaults spelled out, or missing from an older dict, key alike.
        bare = {
            k: v for k, v in canonical.items()
            if k not in ("clusters", "gateways", "route_strategy", "faults")
        }
        assert seed_key(bare, 7) == seed_key(canonical, 7)

    def test_conform_keys_leave_old_records_unread(self):
        """Conform cell keys carry a record tag, so a conform record
        stored in the older count-only shape is never served as a hit;
        every other method's key is pinned to its value from before."""
        import dataclasses

        from repro.explore.spec import Cell

        cell = CampaignSpec(seed0=7, campaign=1).cells()[0]
        assert cell.workload == dataclasses.asdict(
            CampaignSpec().workload_spec(7)
        )
        assert cell.workload_spec() == CampaignSpec().workload_spec(7)
        untagged = dict(cell.resolved())
        assert untagged.pop("record")
        # The key the same cell had before the tag.
        assert content_key(untagged) == (
            "9571bf37e1064abb9df06a384f561ddd8af01c8fbeb1e3cee26bcb68282f0848"
        )
        assert cell.key != content_key(untagged)
        analysis, sf = SweepSpec(
            workload={"seed": 7}, methods=("analysis", "SF")
        ).cells()
        assert analysis.key == (
            "ce389989c9f39849ce9419759a4fa880ad4ff65c8565fa7ce6acd5068c018b78"
        )
        assert sf.key == (
            "f4512129fca0febcd0ffabf86f1f6f86766755315965061dbebb238aa8ce31ef"
        )
        # A carried key is taken as computed, never recomputed.
        assert Cell.from_dict({**cell.to_dict(), "key": "k"}).key == "k"


@pytest.fixture()
def inline_service(tmp_path):
    service = EvaluationService(tmp_path / "store", workers=0)
    yield service
    service.close()


class TestServiceInline:
    def test_store_hit_dedup_and_compute_paths(self, inline_service):
        system = _system()
        sd = system_to_dict(system)
        cd = config_to_dict(_configs(system, 1)[0])
        first = inline_service.submit_evaluation(sd, cd)
        assert not first["deduplicated"] and not first["store_hit"]
        job = inline_service.wait(first["id"], timeout=30)
        assert job.status == "done"
        again = inline_service.submit_evaluation(sd, cd)
        assert again["store_hit"] and again["status"] == "done"
        assert inline_service.counters["computed"] == 1
        assert inline_service.counters["store_hits"] == 1

    def test_result_matches_direct_session(self, inline_service):
        system = _system()
        config = _configs(system, 1)[0]
        submitted = inline_service.submit_evaluation(
            system_to_dict(system), config_to_dict(config)
        )
        job = inline_service.wait(submitted["id"], timeout=30)
        direct = run_result_to_dict(
            Session(system).evaluate(config, backend="analysis")
        )
        assert job.result == direct

    def test_evaluation_error_is_reported_not_fatal(self, inline_service):
        system = _system()
        sd = system_to_dict(system)
        cd = config_to_dict(_configs(system, 1)[0])
        bad = inline_service.submit_evaluation(
            sd, cd, options={"periods": "many"}
        )
        job = inline_service.wait(bad["id"], timeout=30)
        assert job.status == "error"
        # The service survives: the next request computes normally.
        ok = inline_service.submit_evaluation(sd, cd)
        assert inline_service.wait(ok["id"], timeout=30).status == "done"

    def test_sweep_matches_local_engine_and_resumes(self, inline_service):
        spec = SweepSpec(
            name="serve-sweep",
            workload={
                "nodes": 2, "processes_per_node": 4, "seed": [0, 1, 2],
            },
            methods=("analysis",),
        )
        submitted = inline_service.submit_sweep(spec.to_dict())
        job = inline_service.wait(submitted["id"], timeout=60)
        assert job.status == "done"
        local = run_sweep(spec, workers=1)
        served = job.result["records"]
        assert [
            {k: v for k, v in r.items() if k != "wall_s"} for r in served
        ] == [
            {k: v for k, v in r.items() if k != "wall_s"}
            for r in local.records
        ]
        # A re-submission is served wholly from the store.
        again = inline_service.submit_sweep(spec.to_dict())
        job2 = inline_service.wait(again["id"], timeout=60)
        assert job2.result["store_hits"] == 3
        assert job2.result["computed"] == 0

    def test_campaign_matches_local_run(self, inline_service):
        spec = CampaignSpec(
            campaign=3, workers=1, nodes=2, processes_per_node=4,
            shrink=False,
        )
        submitted = inline_service.submit_sweep(spec.to_dict())
        job = inline_service.wait(submitted["id"], timeout=120)
        assert job.status == "done"
        local = run_campaign(spec)
        served = [
            SeedOutcome.from_record(record)
            for record in job.result["records"]
        ]
        assert [o.seed for o in served] == [o.seed for o in local.outcomes]
        assert [o.to_dict() for o in served] == [
            o.to_dict() for o in local.outcomes
        ]

    def test_failed_store_writes_are_counted(self, tmp_path):
        """The service counts every result it fails to persist (batch
        records and single evaluations alike) instead of passing."""

        class FailingStore(ResultStore):
            def _ensure_writer(self, shard):  # the disk is full, below put()
                raise OSError("no space left on device")

        service = EvaluationService(
            FailingStore(tmp_path / "store"), workers=0
        )
        try:
            spec = SweepSpec(
                name="failing",
                workload={"nodes": 2, "processes_per_node": 4,
                          "seed": [0, 1]},
                methods=("analysis",),
            )
            sweep = service.wait(
                service.submit_sweep(spec.to_dict())["id"], timeout=60
            )
            system = _system()
            single = service.wait(service.submit_evaluation(
                system_to_dict(system),
                config_to_dict(_configs(system, 1)[0]),
            )["id"], timeout=60)
            assert (sweep.status, single.status) == ("done", "done")
            counters = service.stats()["counters"]
            assert counters["store_errors"] == 3
            assert counters["computed"] == 3
        finally:
            service.close()

    def test_drain_rejects_new_work(self, inline_service):
        from repro.exceptions import ReproError

        inline_service.drain(timeout=5)
        with pytest.raises(ReproError, match="draining"):
            inline_service.submit_evaluation(
                system_to_dict(_system()),
                config_to_dict(_configs(_system(), 1)[0]),
            )


class TestServiceCore:
    def test_service_starts_no_thread_of_its_own(self, tmp_path):
        """Only the supervisor's scheduler runs: the service cuts its
        queue on the submitting thread or in the ``on_idle`` callback."""
        before = set(threading.enumerate())
        service = EvaluationService(tmp_path / "store", workers=0)
        try:
            started = {
                thread.name for thread in threading.enumerate()
                if thread not in before
            }
            assert started == {"serve-supervise"}
        finally:
            service.close()

    def test_results_are_stored_before_the_unit_is_done(self, tmp_path):
        """A kill between the journal's ``done`` and the store write
        would lose the result: every key is stored first."""
        from repro.explore.engine import CELL_KIND

        service = EvaluationService(tmp_path / "store", workers=0)
        journal = service.journal
        units, stored_at_done = {}, {}
        record_unit, record_done = journal.record_unit, journal.record_done

        def spying_record_unit(unit_id, kind, payload, persist, **kw):
            units[unit_id] = (payload, persist)
            record_unit(unit_id, kind, payload, persist, **kw)

        def checking_record_done(unit_id):
            payload, persist = units[unit_id]
            if persist["mode"] == "eval":
                wanted = [(k, RESULT_KIND) for k in persist["keys"].values()]
            else:
                wanted = [(cell["key"], CELL_KIND) for cell in payload]
            stored_at_done[unit_id] = all(
                service.store.contains(k, kind) for k, kind in wanted
            )
            record_done(unit_id)

        journal.record_unit = spying_record_unit
        journal.record_done = checking_record_done
        try:
            system = _system()
            single = service.submit_evaluation(
                system_to_dict(system),
                config_to_dict(_configs(system, 1)[0]),
            )
            spec = SweepSpec(
                name="persist-first",
                workload={"nodes": 2, "processes_per_node": 4,
                          "seed": [0, 1]},
                methods=("analysis",),
            )
            sweep = service.submit_sweep(spec.to_dict())
            assert service.wait(single["id"], timeout=60).status == "done"
            assert service.wait(sweep["id"], timeout=60).status == "done"
            assert sorted(stored_at_done) == sorted(units)
            assert len(units) >= 2
            assert all(stored_at_done.values()), stored_at_done
        finally:
            service.close()

    def test_recovered_eval_unit_lands_under_its_serve_key(self, tmp_path):
        """An evaluation abandoned by a timed-out drain is re-run by
        the next service on the store and persisted under the request's
        serve key, so resubmitting it is a store hit."""
        store_dir = tmp_path / "store"
        system = _system()
        sd = system_to_dict(system)
        config = _configs(system, 1)[0]
        cd = config_to_dict(config)
        _, serve_key = evaluation_key(
            system_fingerprint(sd), "analysis", {}, cd
        )
        first = EvaluationService(store_dir, workers=0)
        # A registered remote worker that never polls holds the unit,
        # so the drain below always finds it pending.
        first.supervisor.register_worker(label="silent")
        submitted = first.submit_evaluation(sd, cd)
        assert not first.drain(timeout=0.0)
        job = first.job(submitted["id"])
        assert job.status == "error" and "abandoned" in job.error

        second = EvaluationService(store_dir, workers=0)
        try:
            assert second.recovered_units == 1
            (recovery,) = [
                job for job in second._jobs.values()
                if job.kind == "recovery"
            ]
            assert recovery.done.wait(60)
            assert recovery.slots == [
                {"mode": "eval", "status": "ok", "persisted": 1}
            ]
            assert second.store.get(serve_key, kind=RESULT_KIND) == (
                run_result_to_dict(Session(system).evaluate(config))
            )
            again = second.submit_evaluation(sd, cd)
            assert again["store_hit"] and again["status"] == "done"
            assert second.counters["computed"] == 1
        finally:
            assert second.drain(timeout=30)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_malformed_system_is_answered_once(self, tmp_path):
        """A system that does not parse fails the same way on every
        worker: each item errors, and the unit is not retried."""
        service = EvaluationService(tmp_path / "store", workers=2)
        try:
            system = _system()
            sd = system_to_dict(system)
            del sd["application"]
            submitted = service.submit_evaluation(
                sd, config_to_dict(_configs(system, 1)[0])
            )
            job = service.wait(submitted["id"], timeout=60)
            assert job.status == "error"
            assert "malformed system" in job.error
            assert "application" in job.error
            counters = service.supervisor.counters
            assert counters["dispatched"] == 1
            assert counters["retries"] == 0
        finally:
            assert service.drain(timeout=30)


@pytest.fixture()
def http_server(tmp_path):
    """A real daemon: HTTP listener + forked 2-worker pool."""
    service = EvaluationService(tmp_path / "store", workers=2)
    ready = threading.Event()
    announced = {}

    def _run():
        serve(
            service, port=0, ready=ready,
            announce=lambda msg: announced.setdefault("line", msg),
        )

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    assert ready.wait(timeout=10)
    url = announced["line"].split("serving on ")[1]
    yield service, url, thread
    if thread.is_alive():
        try:
            ServeClient(url, timeout=5).shutdown()
        except ServerError:
            pass
        thread.join(timeout=30)


class TestServiceHTTP:
    def test_concurrent_clients_dedup_and_bit_identity(self, http_server):
        """The acceptance scenario: two clients race overlapping
        requests; results are bit-identical to direct sessions and
        every duplicate is computed exactly once."""
        service, url, thread = http_server
        system = _system(processes=8)
        sd = system_to_dict(system)
        configs = _configs(system, 4)
        payloads = [config_to_dict(c) for c in configs]
        # Client A evaluates configs 0..3, client B evaluates 0..3 too
        # (fully overlapping), concurrently.
        outcomes = {}

        def client_body(name):
            client = ServeClient(url, timeout=120)
            submitted = [client.evaluate(sd, cd) for cd in payloads]
            results = [
                client.result(s["id"], timeout=120) for s in submitted
            ]
            outcomes[name] = (submitted, results)

        threads = [
            threading.Thread(target=client_body, args=(name,))
            for name in ("A", "B")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert set(outcomes) == {"A", "B"}
        direct = [
            run_result_to_dict(
                Session(system).evaluate(c, backend="analysis")
            )
            for c in configs
        ]
        for _submitted, results in outcomes.values():
            assert [r["status"] for r in results] == ["done"] * 4
            assert [r["result"] for r in results] == direct
        # Exactly-once compute: 8 submissions, 4 unique configs.  The
        # duplicate 4 were either coalesced in flight (dedup_hits) or
        # served from the store if the first copy already finished —
        # never computed again.
        counters = service.counters
        assert counters["submitted"] == 8
        assert counters["computed"] == 4
        assert counters["dedup_hits"] + counters["store_hits"] == 4
        assert counters["errors"] == 0

    def test_results_stream_and_stats_endpoint(self, http_server):
        service, url, thread = http_server
        system = _system()
        sd = system_to_dict(system)
        client = ServeClient(url, timeout=60)
        submitted = [
            client.evaluate(sd, config_to_dict(c))
            for c in _configs(system, 3)
        ]
        ids = [s["id"] for s in submitted]
        streamed = list(client.results(ids))
        assert sorted(s["id"] for s in streamed) == sorted(ids)
        assert all(s["status"] == "done" for s in streamed)
        stats = client.stats()
        assert stats["counters"]["computed"] >= 3
        assert stats["workers"] == 2
        assert "evals_per_s" in stats and "queue_depth" in stats
        assert stats["store"]["shards"] >= 1

    def test_status_and_top_render_the_same_stats(
        self, http_server, capsys
    ):
        """``repro status --server`` and ``repro top --once`` print one
        frame of the same ``/stats`` payload."""
        from repro.cli import main as cli_main

        service, url, thread = http_server
        system = _system()
        client = ServeClient(url, timeout=60)
        submitted = [
            client.evaluate(system_to_dict(system), config_to_dict(c))
            for c in _configs(system, 2)
        ]
        list(client.results([s["id"] for s in submitted]))
        frames = []
        for argv in (["status"], ["top", "--once"]):
            assert cli_main([*argv, "--server", url]) == 0
            frames.append(capsys.readouterr().out)
        assert "2 submitted" in frames[0]
        assert "store" in frames[0] and "worker failures" in frames[0]
        # Uptime, throughput and timing averages move between calls.
        timed = re.compile(r"[\d.]+ (s|evals/s)\b")
        assert timed.sub("#", frames[0]) == timed.sub("#", frames[1])

    def test_status_and_top_fail_alike_when_unreachable(self, capsys):
        from repro.cli import main as cli_main

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{sock.getsockname()[1]}"
        for argv in (["status"], ["top", "--once"]):
            assert cli_main([*argv, "--server", url, "--timeout", "1"]) == 2
        assert "unreachable" in capsys.readouterr().out

    def test_results_stream_in_completion_order(self, http_server):
        """``/results`` yields each job when it finishes: a finished job
        never waits behind an earlier-listed running one, and jobs
        already finished come out in the order they finished."""
        service, url, thread = http_server
        system = _system()
        sd = system_to_dict(system)
        slow_cd, *finished_cds = [
            config_to_dict(c) for c in _configs(system, 3)
        ]
        client = ServeClient(url, timeout=60)
        # One job at a time: two jobs in flight at once run on both
        # workers and may finish in either order.
        finished = []
        for cd in finished_cds:
            job_id = client.evaluate(sd, cd)["id"]
            assert client.result(job_id, timeout=60)["status"] == "done"
            finished.append(job_id)
        first, second = finished
        streamed = [entry["id"] for entry in client.results([second, first])]
        assert streamed == [first, second]

        pids = [
            w["pid"] for w in service.supervisor.fleet()
            if w["transport"] == "local" and w["alive"]
        ]
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        try:
            slow = client.evaluate(sd, slow_cd)["id"]
            fast = client.evaluate(sd, finished_cds[0])["id"]  # store hit
            stream = client.results([slow, fast])
            assert next(stream)["id"] == fast
            assert service.job(slow).status != "done"
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGCONT)
        last = next(stream)
        assert (last["id"], last["status"]) == (slow, "done")
        assert list(stream) == []

    def test_shutdown_drains_and_persists(self, http_server, tmp_path):
        service, url, thread = http_server
        system = _system()
        sd = system_to_dict(system)
        client = ServeClient(url, timeout=60)
        submitted = [
            client.evaluate(sd, config_to_dict(c))
            for c in _configs(system, 3)
        ]
        assert client.shutdown()["status"] == "draining"
        thread.join(timeout=60)
        assert not thread.is_alive()
        # Every submitted job was finished and persisted before exit.
        with ResultStore(tmp_path / "store") as store:
            assert len(store) == 3
        h = system_fingerprint(sd)
        for s, config in zip(submitted, _configs(system, 3)):
            _, serve_key = evaluation_key(
                h, "analysis", {}, config_to_dict(config)
            )
            with ResultStore(tmp_path / "store") as store:
                assert store.get(serve_key) is not None


class TestServedCampaign:
    """A campaign is a sweep of ``conform`` cells, locally and through
    ``POST /sweep``: served records, reports and counterexample
    fixtures equal the local run's."""

    def test_served_campaign_equals_local(
        self, tmp_path, monkeypatch, capsys
    ):
        import math

        import repro.analysis.kernel as kernel_mod
        from repro.cli import main
        from repro.conformance.campaign import campaign_report
        from repro.serve import run_sweep_via_server

        # The byte-granular drain formula makes seed 24 violate, so the
        # range pins a counterexample fixture.  workers=0: the service
        # computes in this process, under the patch.
        monkeypatch.setattr(
            kernel_mod, "fifo_drain_rounds",
            lambda own, ahead, count, capacity, largest: max(
                1, math.ceil((own + ahead) / capacity - 1e-12)
            ),
        )
        service = EvaluationService(tmp_path / "store", workers=0)
        ready = threading.Event()
        announced = {}
        thread = threading.Thread(
            target=serve, args=(service,), daemon=True,
            kwargs=dict(
                port=0, ready=ready,
                announce=lambda msg: announced.setdefault("line", msg),
            ),
        )
        thread.start()
        assert ready.wait(timeout=10)
        url = announced["line"].split("serving on ")[1]
        try:
            spec = CampaignSpec(campaign=6, seed0=20, shrink=False)
            local = run_sweep(spec)
            served = run_sweep_via_server(spec, url)

            def deterministic(records):
                return json.loads(json.dumps([
                    {k: v for k, v in r.items()
                     if k not in ("wall_s", "profile")}
                    for r in records
                ]))

            assert deterministic(served.records) == deterministic(
                local.records
            )
            assert served.computed == 6
            report = campaign_report(spec, served.records, time.perf_counter())
            assert report.counts == {"ok": 5, "violation": 1}

            reports = {}
            for side in ("local", "served"):
                args = [
                    "conform", "--campaign", "6", "--seed0", "20",
                    "--format", "json", "--out", str(tmp_path / side),
                ]
                if side == "served":
                    args += ["--server", url]
                assert main(args) == 1  # violated
                data = json.loads(capsys.readouterr().out)
                data.pop("wall_s")
                data.pop("profile")
                for outcome in data["outcomes"]:
                    if outcome["fixture"]:
                        outcome["fixture"] = Path(outcome["fixture"]).name
                reports[side] = data
            assert reports["served"] == reports["local"]
            local_files = sorted((tmp_path / "local").iterdir())
            served_files = sorted((tmp_path / "served").iterdir())
            assert [p.name for p in local_files] == ["seed24.json"]
            assert [p.name for p in served_files] == ["seed24.json"]
            assert served_files[0].read_bytes() == local_files[0].read_bytes()
            # The CLI's submission was served wholly from the store.
            assert service.counters["computed"] == 6
        finally:
            ServeClient(url, timeout=5).shutdown()
            thread.join(timeout=30)


@pytest.mark.slow
class TestServeSubprocessSigterm:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        store_dir = tmp_path / "store"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(store_dir), "--workers", "1", "--port", "0",
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "serving on " in line, line
            url = line.strip().split("serving on ")[1]
            client = ServeClient(url, timeout=60)
            # Slow-ish work so the SIGTERM lands mid-flight: a sweep of
            # SAS cells (~0.3 s each on one worker).
            spec = SweepSpec(
                name="drain-e2e",
                workload={
                    "nodes": 2, "processes_per_node": 8,
                    "seed": list(range(6)),
                },
                methods=("SAS",),
                options={"sa_iterations": 150},
            )
            submitted = client.submit_sweep(spec.to_dict())
            deadline = time.time() + 30
            while time.time() < deadline:
                status = client.status(submitted["id"])
                if status["status"] == "running":
                    break
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "draining" in out and "drained" in out
        # The drained work is durable: the sweep's cells are in the
        # store, and a local resume run recomputes nothing.
        with ResultStore(store_dir) as store:
            assert len(store) >= 1
        report = run_sweep(spec, store=store_dir, workers=1)
        assert report.store_hits >= 1
        assert report.store_hits + report.computed == 6


class TestClientRetry:
    """The hardened transport (ISSUE 7 satellite): connection resets
    and refusals are retried with bounded backoff; retrying is safe
    because the service dedups by content key."""

    @staticmethod
    def _flaky_listener(failures):
        """A listener that RST-closes its first ``failures`` connections
        and then serves one canned ``/healthz`` response."""
        lsock = socket.socket()
        lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        lsock.bind(("127.0.0.1", 0))
        lsock.listen(8)
        seen = {"resets": 0}

        def body():
            while True:
                conn, _ = lsock.accept()
                if seen["resets"] < failures:
                    seen["resets"] += 1
                    # SO_LINGER with zero timeout turns close() into a
                    # hard RST — the "server crashed mid-request" case.
                    conn.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        b"\x01\x00\x00\x00\x00\x00\x00\x00",
                    )
                    conn.close()
                    continue
                conn.recv(65536)
                payload = json.dumps({"status": "ok"}).encode()
                conn.sendall(
                    b"HTTP/1.0 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                    + payload
                )
                conn.close()
                lsock.close()
                return

        thread = threading.Thread(target=body, daemon=True)
        thread.start()
        return lsock.getsockname()[1], seen

    def test_retries_through_connection_resets(self):
        port, seen = self._flaky_listener(failures=2)
        client = ServeClient(
            f"http://127.0.0.1:{port}", timeout=10,
            connect_timeout=2, retries=4, backoff_s=0.01,
        )
        assert client.healthy()
        assert seen["resets"] == 2

    def test_retries_exhausted_raises_server_error(self):
        port, _ = self._flaky_listener(failures=100)
        client = ServeClient(
            f"http://127.0.0.1:{port}", timeout=5,
            connect_timeout=1, retries=2, backoff_s=0.01,
        )
        with pytest.raises(ServerError, match="3 attempt"):
            client.stats()

    def test_zero_retries_fails_fast(self):
        # A port nothing listens on: connection refused immediately.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServeClient(
            f"http://127.0.0.1:{port}", timeout=2,
            connect_timeout=0.5, retries=0,
        )
        with pytest.raises(ServerError, match="1 attempt"):
            client.stats()
