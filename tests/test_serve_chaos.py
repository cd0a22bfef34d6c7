"""Chaos schedules for the distributed evaluation service (PR 9).

Every test here rehearses a failure mode against the standing
invariant: reports are **bit-identical** to a failure-free run and
every unique key is computed **exactly once** (hedged or re-dispatched
duplicates never reach the counters, the store, or a client), under
any kill/slow/partition schedule.

* :class:`TestUnitJournal` — the crash-safe pending-unit journal:
  replay, delivery, torn tails, compaction.
* :class:`TestLocalChaos` — forked-fleet failures: SIGKILL mid-batch
  (re-dispatch on a different worker), SIGSTOP limplock during a
  50-seed campaign (speculative hedging), client deadlines against a
  wedged fleet.
* :class:`TestRestartRecovery` — a timed-out drain abandons work
  *visibly* (surfaced in stats/census, journaled) and a restarted
  service re-dispatches it with zero lost cells.
* :class:`TestBackpressure` — the bounded queue: 429 + Retry-After on
  overload, client retry honoring it.
* :class:`TestRemoteWorkers` — the remote HTTP transport: register /
  long-poll / heartbeat / result, fleet census, worker loss.
* :class:`TestChaosEndToEnd` (``slow``) — the acceptance schedule: a
  real daemon, two real ``repro worker`` subprocesses, a 100-seed
  campaign with one worker SIGKILLed and one SIGSTOPped mid-run.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.conformance.campaign import (
    CampaignSpec,
    SeedOutcome,
    campaign_report,
    run_campaign,
)
from repro.explore.spec import SweepSpec
from repro.io.serialize import config_to_dict, system_to_dict
from repro.serve import (
    EvaluationService,
    ServeClient,
    ServerError,
    run_sweep_via_server,
    serve,
)
from repro.serve.supervisor import SupervisorConfig, UnitJournal
from repro.serve.workers import run_worker
from repro.synth.workload import WorkloadSpec, generate_workload

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="chaos suite needs fork + signals"
)


def _system(seed=3, processes=6):
    return generate_workload(
        WorkloadSpec(nodes=2, processes_per_node=processes, seed=seed)
    )


def _configs(system, count):
    from repro.conformance import conformance_configuration

    return [
        conformance_configuration(system, rounds_per_period=4 + i)
        for i in range(count)
    ]


def _fast_config(**overrides):
    """Production-shaped policy with test-sized timers."""
    defaults = dict(
        lease_s=2.0, worker_timeout_s=4.0,
        retry_base_s=0.05, retry_max_s=0.5, poll_s=1.0,
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def _campaign_spec(campaign=50):
    return CampaignSpec(
        campaign=campaign, workers=1, nodes=2, processes_per_node=4,
        shrink=False, fixture_dir=None,
    )


def _wait_until(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _local_pids(service):
    return {
        w["id"]: w["pid"]
        for w in service.supervisor.fleet()
        if w["transport"] == "local" and w["alive"]
    }


# -- the crash-safe journal ---------------------------------------------------


class TestUnitJournal:
    def test_replay_returns_undelivered_units_in_order(self, tmp_path):
        journal = UnitJournal(tmp_path / "j.jsonl")
        journal.record_unit("u1", "cells", [{"a": 1}], {"mode": "cells"})
        journal.record_unit("u2", "cells", [{"b": 2}], None)
        journal.record_unit("u3", "eval", {"items": []}, {"mode": "eval"})
        journal.record_done("u2")
        pending = journal.pending()
        assert [entry["id"] for entry in pending] == ["u1", "u3"]
        assert pending[0]["payload"] == [{"a": 1}]
        assert pending[0]["persist"] == {"mode": "cells"}
        journal.close()

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = UnitJournal(path)
        journal.record_unit("u1", "cells", [], None)
        journal.record_unit("u2", "cells", [], None)
        journal.close()
        # A kill -9 mid-append leaves a torn final line.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "unit", "id": "u3", "pay')
        reopened = UnitJournal(path)
        assert [e["id"] for e in reopened.pending()] == ["u1", "u2"]
        reopened.close()

    def test_reset_compacts_to_given_units(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = UnitJournal(path)
        for i in range(10):
            journal.record_unit(f"u{i}", "cells", [], None)
            journal.record_done(f"u{i}")
        journal.reset()
        assert journal.pending() == []
        assert len(path.read_text().splitlines()) == 1  # header only
        journal.record_unit("u10", "cells", [{"c": 4}], None)
        assert [e["id"] for e in journal.pending()] == ["u10"]
        journal.close()


# -- local-fleet chaos --------------------------------------------------------


class TestLocalChaos:
    def test_sigkill_worker_mid_batch_redispatches(self, tmp_path):
        """A worker SIGKILLed while holding leased units: the units are
        known-lost, re-dispatched on a different worker, and every
        request still resolves exactly once."""
        service = EvaluationService(
            tmp_path / "store", workers=2, supervisor=_fast_config()
        )
        try:
            system = _system()
            sd = system_to_dict(system)
            payloads = [config_to_dict(c) for c in _configs(system, 6)]
            pids = _local_pids(service)
            victim_id, victim_pid = next(iter(pids.items()))
            # Freeze the victim so it is guaranteed to be holding its
            # units when the kill lands (no race against 3ms computes).
            os.kill(victim_pid, signal.SIGSTOP)
            ids = [
                service.submit_evaluation(sd, cd)["id"] for cd in payloads
            ]
            assert _wait_until(lambda: any(
                w["id"] == victim_id and w["in_flight"] > 0
                for w in service.supervisor.fleet()
            ), timeout=10)
            os.kill(victim_pid, signal.SIGKILL)
            for job_id in ids:
                job = service.wait(job_id, timeout=60)
                assert job.status == "done", (job.status, job.error)
            # Exactly-once per key, zero errors, and the fleet healed.
            assert service.counters["computed"] == 6
            assert service.counters["errors"] == 0
            assert service.supervisor.counters["worker_failures"] >= 1
            assert victim_id not in _local_pids(service)
            assert len(_local_pids(service)) == 2  # respawned
        finally:
            assert service.drain(timeout=30)

    def test_sigstop_limplock_campaign_hedges(self, tmp_path):
        """The limplock schedule: one worker wedged (SIGSTOP — alive
        but making no progress) during a 50-seed campaign.  Hedging
        duplicates its stalled unit onto a live worker; the report is
        bit-identical to an undisturbed run and each seed is computed
        exactly once (the wedged worker's late result is dropped)."""
        service = EvaluationService(
            tmp_path / "store", workers=2,
            supervisor=_fast_config(hedge_after_s=0.3),
        )
        victim_pid = None
        try:
            pids = _local_pids(service)
            victim_id, victim_pid = next(iter(pids.items()))
            os.kill(victim_pid, signal.SIGSTOP)
            spec = _campaign_spec(50)
            submitted = service.submit_sweep(spec.to_dict())
            job = service.wait(submitted["id"], timeout=120)
            assert job.status == "done", (job.status, job.error)
            # Bit-identical to the undisturbed local run.
            local = run_campaign(spec)
            assert [
                SeedOutcome.from_record(record).to_dict()
                for record in job.result["records"]
            ] == [o.to_dict() for o in local.outcomes]
            # Exactly-once per seed: 50 unique seeds, 50 computed —
            # the hedged duplicates never reached the counters.
            assert service.counters["computed"] == 50
            assert service.counters["errors"] == 0
            assert service.supervisor.counters["hedges"] >= 1
            assert service.supervisor.counters["hedge_wins"] >= 1
        finally:
            if victim_pid is not None:
                with _noop():
                    os.kill(victim_pid, signal.SIGCONT)
            assert service.drain(timeout=30)

    def test_deadline_expires_against_wedged_fleet(self, tmp_path):
        """Deadline propagation: a client budget is enforced by the
        supervisor even when every worker is wedged."""
        service = EvaluationService(
            tmp_path / "store", workers=1, supervisor=_fast_config()
        )
        victim_pid = None
        try:
            pids = _local_pids(service)
            _, victim_pid = next(iter(pids.items()))
            os.kill(victim_pid, signal.SIGSTOP)
            system = _system()
            submitted = service.submit_evaluation(
                system_to_dict(system),
                config_to_dict(_configs(system, 1)[0]),
                deadline_s=0.4,
            )
            job = service.wait(submitted["id"], timeout=30)
            assert job.status == "error"
            assert "deadline" in job.error
            assert service.supervisor.counters["deadline_expired"] == 1
            # The wedged worker still holds that unit, so the next job
            # waits in the dispatcher's queue; its deadline must still
            # reach the supervisor and expire it.
            queued = service.submit_evaluation(
                system_to_dict(system),
                config_to_dict(_configs(system, 2)[1]),
                deadline_s=0.4,
            )
            job = service.wait(queued["id"], timeout=30)
            assert job.status == "error"
            assert "deadline" in job.error
            assert service.supervisor.counters["deadline_expired"] == 2
        finally:
            if victim_pid is not None:
                with _noop():
                    os.kill(victim_pid, signal.SIGCONT)
            service.drain(timeout=30)


class _noop:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return exc[0] in (ProcessLookupError, PermissionError)


# -- drain visibility + restart recovery --------------------------------------


class TestRestartRecovery:
    def test_timed_out_drain_abandons_visibly_and_restart_recovers(
        self, tmp_path
    ):
        """The drain-abandonment fix plus crash-safe re-dispatch, as
        one lifecycle: a sweep is cut into units, the service "dies"
        (zero-timeout drain) with most units pending, the leftovers
        are surfaced — not silently dropped — and stay journaled; a
        restarted service on the same store re-dispatches them and
        loses zero cells."""
        store_dir = tmp_path / "store"
        spec = SweepSpec(
            name="chaos-drain",
            workload={
                "nodes": 2, "processes_per_node": [4, 6, 8],
                "seed": [1, 2],
            },
            methods=("SF", "analysis"),
        )
        total_cells = len(spec.cells())
        first = EvaluationService(
            store_dir, workers=0, supervisor=_fast_config()
        )
        submitted = first.submit_sweep(spec.to_dict())
        clean = first.drain(timeout=0.0)
        assert not clean
        assert first.abandoned, "drain timeout must surface leftovers"
        abandoned_ids = {entry["id"] for entry in first.abandoned}
        # Surfaced in the census and on the waiting client.
        census = first.census()
        assert {e["id"] for e in census["abandoned"]} == abandoned_ids
        job = first.job(submitted["id"])
        assert job.done.is_set()
        assert job.status == "error" and "abandoned" in job.error
        # The journal still holds the work the drain dropped.
        pending = UnitJournal(store_dir / "serve-journal.jsonl").pending()
        assert {entry["id"] for entry in pending} >= abandoned_ids

        second = EvaluationService(
            store_dir, workers=2, supervisor=_fast_config()
        )
        try:
            assert second.recovered_units == len(pending)
            assert _wait_until(
                lambda: second.stats()["queue_depth"] == 0, timeout=60
            )
            # Zero lost cells: the same sweep is now served wholly
            # from the store — nothing needs recomputing.
            again = second.submit_sweep(spec.to_dict())
            job2 = second.wait(again["id"], timeout=60)
            assert job2.status == "done"
            assert job2.result["store_hits"] == total_cells
            assert job2.result["computed"] == 0
        finally:
            assert second.drain(timeout=30)

    def test_old_journal_seeds_unit_resolves_as_counted_error(
        self, tmp_path
    ):
        """A journal written before campaigns became sweeps may hold a
        pending ``seeds`` unit.  The restarted daemon does not crash or
        run it: the unit resolves at once as a counted error, the
        journal drops it, and a pending ``cells`` unit beside it is
        still recovered and persisted."""
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        spec = SweepSpec(
            name="old-journal",
            workload={"nodes": 2, "processes_per_node": 4, "seed": 1},
            methods=("analysis",),
        )
        (cell,) = spec.cells()
        journal = UnitJournal(store_dir / "serve-journal.jsonl")
        journal.record_unit(
            "u-old-0", "seeds",
            {"spec": CampaignSpec(campaign=2).to_dict(), "seeds": [0, 1]},
            {"mode": "seeds", "spec": CampaignSpec(campaign=2).to_dict()},
        )
        journal.record_unit(
            "u-old-1", "cells", [cell.to_dict()], {"mode": "cells"}
        )
        journal.close()
        service = EvaluationService(store_dir, workers=0)
        try:
            assert service.recovered_units == 2
            assert _wait_until(
                lambda: service.stats()["queue_depth"] == 0, timeout=60
            )
            assert service.counters["errors"] == 1
            assert service.counters["computed"] == 1
            recovery = [
                job for job in service._jobs.values()
                if job.kind == "recovery"
            ]
            assert recovery[0].done.wait(30)
            assert [slot["status"] for slot in recovery[0].slots] == [
                "error", "ok",
            ]
            assert service.journal.pending() == []
            again = service.wait(
                service.submit_sweep(spec.to_dict())["id"], timeout=30
            )
            assert again.result["store_hits"] == 1
        finally:
            assert service.drain(timeout=30)

    def test_recovery_is_idempotent_when_nothing_pending(self, tmp_path):
        store_dir = tmp_path / "store"
        service = EvaluationService(store_dir, workers=0)
        system = _system()
        submitted = service.submit_evaluation(
            system_to_dict(system),
            config_to_dict(_configs(system, 1)[0]),
        )
        assert service.wait(submitted["id"], timeout=30).status == "done"
        assert service.drain(timeout=30)
        reopened = EvaluationService(store_dir, workers=0)
        try:
            assert reopened.recovered_units == 0
        finally:
            assert reopened.drain(timeout=10)

    def test_restart_killed_during_recovery_keeps_the_pending_unit(
        self, tmp_path
    ):
        """Recovery re-dispatches a pending unit under its journaled id
        and writes nothing first: a restart killed before the unit is
        handed on leaves it pending for the next start."""
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        spec = SweepSpec(
            name="recovery-kill",
            workload={"nodes": 2, "processes_per_node": 4, "seed": 1},
            methods=("analysis",),
        )
        (cell,) = spec.cells()
        path = store_dir / "serve-journal.jsonl"
        journal = UnitJournal(path)
        journal.record_unit(
            "u-old-0", "cells", [cell.to_dict()], {"mode": "cells"}
        )
        journal.close()
        script = (
            "import os, sys\n"
            "from repro.serve import EvaluationService\n"
            "from repro.serve.supervisor import Supervisor, UnitJournal\n"
            "def die(*args, **kwargs):\n"
            "    os._exit(9)\n"
            "UnitJournal.record_unit = die\n"
            "Supervisor.submit = die\n"
            "EvaluationService(sys.argv[1], workers=0)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        restart = subprocess.run(
            [sys.executable, "-c", script, str(store_dir)],
            env=env, timeout=60,
        )
        assert restart.returncode == 9
        assert [e["id"] for e in UnitJournal(path).pending()] == ["u-old-0"]


# -- bounded queue / backpressure ---------------------------------------------


class TestBackpressure:
    def test_overload_answers_429_with_retry_after(self, tmp_path):
        """A submission beyond max_pending is shed with 429 and a
        Retry-After estimate, not queued without bound."""
        service = EvaluationService(
            tmp_path / "store", workers=0, max_pending=1,
            supervisor=_fast_config(),
        )
        announced = {}
        ready = threading.Event()
        thread = threading.Thread(
            target=serve, args=(service,),
            kwargs=dict(
                port=0, ready=ready,
                announce=lambda m: announced.setdefault("line", m),
            ),
            daemon=True,
        )
        thread.start()
        assert ready.wait(10)
        url = announced["line"].split("serving on ")[1]
        try:
            # A campaign cut into >1 chunks can never fit max_pending=1
            # — deterministically overloaded, independent of timing.
            spec = _campaign_spec(50).to_dict()
            client = ServeClient(url, timeout=30, retries=0)
            with pytest.raises(ServerError, match="overloaded"):
                client.submit_sweep(spec)
            # The raw response carries the Retry-After header.
            import http.client as http_client

            host, port = url.split("//")[1].split(":")
            conn = http_client.HTTPConnection(host, int(port), timeout=10)
            conn.request(
                "POST", "/sweep", json.dumps({"spec": spec}),
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 429
            assert int(response.getheader("Retry-After")) >= 1
            body = json.loads(response.read())
            assert body["retry_after_s"] >= 1.0
            conn.close()
            # A retrying client eventually lands work that fits.
            retrying = ServeClient(url, timeout=60, retries=5)
            system = _system()
            submitted = retrying.evaluate(
                system_to_dict(system),
                config_to_dict(_configs(system, 1)[0]),
            )
            payload = retrying.result(submitted["id"], timeout=60)
            assert payload["status"] == "done"
        finally:
            try:
                ServeClient(url, timeout=5).shutdown()
            except ServerError:
                pass
            thread.join(timeout=30)

    def test_client_honors_retry_after_then_succeeds(self, tmp_path):
        """The client's 429 loop sleeps the advertised delay and
        resubmits; once the queue frees, the submission lands."""
        client = ServeClient("http://127.0.0.1:1", retries=2)

        class _Response:
            def __init__(self, header):
                self._header = header

            def getheader(self, name):
                return self._header if name == "Retry-After" else None

        assert client._retry_after(_Response("3"), {}, 0) == 3.0
        assert client._retry_after(
            _Response(None), {"retry_after_s": 1.5}, 0
        ) == 1.5
        fallback = client._retry_after(_Response("nonsense"), {}, 2)
        assert 0.0 < fallback <= client.backoff_max_s


# -- remote workers -----------------------------------------------------------


@pytest.fixture()
def remote_rig(tmp_path):
    """A daemon with no local fleet plus one in-thread remote worker."""
    service = EvaluationService(
        tmp_path / "store", workers=0,
        supervisor=_fast_config(hedge_after_s=1.0),
    )
    announced = {}
    ready = threading.Event()
    thread = threading.Thread(
        target=serve, args=(service,),
        kwargs=dict(
            port=0, ready=ready,
            announce=lambda m: announced.setdefault("line", m),
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(10)
    url = announced["line"].split("serving on ")[1]
    stop = threading.Event()
    worker = threading.Thread(
        target=run_worker, args=(url,),
        kwargs=dict(label="rig-worker", stop=stop, announce=lambda m: None),
        daemon=True,
    )
    worker.start()
    assert _wait_until(lambda: any(
        w["transport"] == "remote" for w in service.supervisor.fleet()
    ), timeout=10)
    yield service, url
    stop.set()
    try:
        ServeClient(url, timeout=5).shutdown()
    except ServerError:
        pass
    thread.join(timeout=30)
    worker.join(timeout=10)


class TestRemoteWorkers:
    def test_worker_of_another_version_is_refused_at_registration(
        self, remote_rig
    ):
        service, url = remote_rig
        client = ServeClient(url, timeout=10)
        # A worker that names no protocol (or another one) never gets
        # a unit: it could return records of another shape.
        for body in ({"label": "stale"},
                     {"label": "stale", "protocol": "repro-worker-v1"}):
            with pytest.raises(ServerError, match="worker protocol"):
                client._request("POST", "/worker/register", body)
        assert all(
            w.get("label") != "stale" for w in service.supervisor.fleet()
        )

    def test_worker_refuses_a_server_of_another_version(self, monkeypatch):
        from repro.exceptions import ConfigurationError

        monkeypatch.setattr(
            ServeClient, "_request",
            lambda self, method, path, body=None: {
                "worker_format": "repro-worker-v1",
                "worker": "w1",
                "lease_s": 5.0,
            },
        )
        with pytest.raises(ConfigurationError, match="repro-worker-v1"):
            run_worker("http://localhost:1", announce=lambda m: None)

    def test_register_poll_compute_and_census(self, remote_rig):
        service, url = remote_rig
        system = _system()
        sd = system_to_dict(system)
        client = ServeClient(url, timeout=60)
        submitted = [
            client.evaluate(sd, config_to_dict(c))
            for c in _configs(system, 3)
        ]
        for entry in submitted:
            payload = client.result(entry["id"], timeout=60)
            assert payload["status"] == "done"
        census = client.census()
        remote = [
            w for w in census["fleet"] if w["transport"] == "remote"
        ]
        assert len(remote) == 1
        assert remote[0]["label"] == "rig-worker"
        assert remote[0]["alive"]
        assert remote[0]["completed"] >= 1
        assert service.counters["computed"] == 3
        assert service.counters["errors"] == 0

    def test_results_match_direct_session(self, remote_rig):
        from repro.api import Session
        from repro.io.serialize import run_result_to_dict

        service, url = remote_rig
        system = _system(processes=8)
        configs = _configs(system, 2)
        client = ServeClient(url, timeout=60)
        direct = [
            run_result_to_dict(Session(system).evaluate(c))
            for c in configs
        ]
        served = []
        for config in configs:
            entry = client.evaluate(
                system_to_dict(system), config_to_dict(config)
            )
            served.append(client.result(entry["id"], timeout=60)["result"])
        assert served == direct

    def test_silent_worker_is_dropped_and_work_degrades_inline(
        self, tmp_path
    ):
        """A registered worker that stops polling (killed, SIGSTOPped,
        or partitioned) forfeits its lease; with no other worker the
        service degrades to inline compute and still answers."""
        service = EvaluationService(
            tmp_path / "store", workers=0,
            supervisor=_fast_config(
                lease_s=0.5, worker_timeout_s=1.0
            ),
        )
        try:
            registration = service.supervisor.register_worker(
                label="ghost"
            )
            system = _system()
            submitted = service.submit_evaluation(
                system_to_dict(system),
                config_to_dict(_configs(system, 1)[0]),
            )
            # The ghost never polls: its mailbox lease expires, the
            # worker is dropped for silence, and the unit re-dispatches
            # inline.
            job = service.wait(submitted["id"], timeout=60)
            assert job.status == "done", (job.status, job.error)
            ghost = next(
                w for w in service.supervisor.fleet()
                if w["id"] == registration["worker"]
            )
            assert not ghost["alive"]
            assert service.supervisor.counters["worker_failures"] >= 1
            assert service.counters["computed"] == 1
        finally:
            assert service.drain(timeout=30)


# -- the acceptance schedule (real processes) ---------------------------------


def _spawn(argv, **kwargs):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, **kwargs,
    )


@pytest.mark.slow
class TestChaosEndToEnd:
    def test_campaign_survives_kill_and_limplock(self, tmp_path):
        """The acceptance criterion end to end: a real daemon, two real
        remote workers, a 100-seed campaign; one worker is SIGKILLed
        and the other SIGSTOPped mid-run.  The campaign completes,
        every seed is computed exactly once (hedged/re-dispatched
        duplicates excluded by the counter assertion), and the report
        is bit-identical to the fault-free run."""
        campaign = int(os.environ.get("REPRO_CHAOS_SEEDS", "100"))
        server = _spawn([
            "serve", "--store", str(tmp_path / "store"),
            "--workers", "0", "--listen", "127.0.0.1:0",
            "--lease", "1.5", "--hedge-after", "2.0",
        ])
        workers = []
        try:
            line = server.stdout.readline()
            assert "serving on " in line, line
            url = line.split("serving on ")[1].strip()
            workers = [
                _spawn(["worker", "--connect", url,
                        "--label", f"chaos-{i}"])
                for i in range(2)
            ]
            control = ServeClient(url, timeout=30)
            assert _wait_until(lambda: sum(
                1 for w in control.census()["fleet"]
                if w["transport"] == "remote" and w["alive"]
            ) == 2, timeout=30)

            spec = CampaignSpec(
                campaign=campaign, workers=1, nodes=2,
                processes_per_node=4, shrink=False, fixture_dir=None,
            )
            # SIGSTOP one worker now: it is registered and counted
            # alive, so the supervisor leases units to it — they sit
            # unpicked until the lease expires.  That *is* the
            # limplock schedule, made deterministic.
            os.kill(workers[1].pid, signal.SIGSTOP)

            outcome = {}

            def _run():
                started = time.perf_counter()
                sweep = run_sweep_via_server(spec, url, timeout=300)
                outcome["report"] = campaign_report(
                    spec, sweep.records, started
                )

            runner = threading.Thread(target=_run, daemon=True)
            runner.start()
            # SIGKILL the healthy worker while the campaign is in
            # flight — whatever it holds is re-dispatched; with both
            # workers gone the daemon degrades to inline compute.
            time.sleep(0.4)
            os.kill(workers[0].pid, signal.SIGKILL)
            runner.join(timeout=300)
            assert "report" in outcome, "campaign did not complete"

            report = outcome["report"]
            fault_free = run_campaign(spec)
            assert [o.to_dict() for o in report.outcomes] == [
                o.to_dict() for o in fault_free.outcomes
            ]
            stats = control.stats()
            # Exactly-once per unique key: every seed computed once,
            # however many times faults forced re-dispatch or hedging
            # duplicated an attempt.
            assert stats["counters"]["computed"] == campaign
            assert stats["counters"]["errors"] == 0
            assert stats["supervisor"]["worker_failures"] >= 1
            control.shutdown()
            assert server.wait(timeout=60) == 0
        finally:
            for proc in workers:
                with _noop():
                    os.kill(proc.pid, signal.SIGCONT)
                proc.kill()
                proc.wait(timeout=10)
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)

    def test_server_restart_mid_sweep_recovers_journal(self, tmp_path):
        """Kill -9 the daemon mid-sweep; a restarted daemon on the same
        store replays the journal and re-dispatches the in-flight
        units — zero lost cells.

        The first daemon's only worker is SIGSTOPped before the sweep
        is submitted, so the kill finds journaled in-flight units
        whatever the dispatch speed: a stopped worker is still alive,
        its lease never expires, and with one worker nothing hedges."""
        store = str(tmp_path / "store")
        spec = SweepSpec(
            name="chaos-restart",
            workload={
                "nodes": 2, "processes_per_node": [4, 6, 8, 10],
                "seed": [1, 2, 3, 4],
            },
            methods=("SF", "analysis"),
        )
        total_cells = len(spec.cells())
        first = _spawn([
            "serve", "--store", store, "--workers", "1",
            "--listen", "127.0.0.1:0",
        ])
        second = None
        frozen = None
        try:
            line = first.stdout.readline()
            url = line.split("serving on ")[1].strip()
            client = ServeClient(url, timeout=30)
            (local,) = [
                w for w in client.census()["fleet"]
                if w["transport"] == "local"
            ]
            frozen = local["pid"]
            os.kill(frozen, signal.SIGSTOP)
            client.submit_sweep(spec.to_dict())
            # SIGKILL mid-sweep: no drain, no checkpoint — only the
            # journal knows what was in flight.
            os.kill(first.pid, signal.SIGKILL)
            first.wait(timeout=10)

            second = _spawn([
                "serve", "--store", store, "--workers", "2",
                "--listen", "127.0.0.1:0",
            ])
            banner = second.stdout.readline()
            if "recovered" in banner:
                banner = second.stdout.readline()
            url2 = banner.split("serving on ")[1].strip()
            client2 = ServeClient(url2, timeout=60)
            assert _wait_until(
                lambda: client2.stats()["queue_depth"] == 0, timeout=60
            )
            assert client2.census()["recovered_units"] >= 1
            # Zero lost cells: the resubmitted sweep is all store hits.
            submitted = client2.submit_sweep(spec.to_dict())
            payload = client2.result(submitted["id"], timeout=60)
            assert payload["status"] == "done"
            assert payload["result"]["store_hits"] == total_cells
            assert payload["result"]["computed"] == 0
            client2.shutdown()
            assert second.wait(timeout=60) == 0
        finally:
            if frozen is not None:
                # Orphaned by the kill, and stopped: it cannot notice.
                with _noop():
                    os.kill(frozen, signal.SIGKILL)
            for proc in (first, second):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
