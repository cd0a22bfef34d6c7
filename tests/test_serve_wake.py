"""The serve scheduler's wake policy.

The supervisor runs a scheduling pass only when signalled (submit,
result, worker registration or loss, abandon, stop) or when its
earliest pending timer falls due.  The service has no thread of its
own: it cuts its queue into a batch only when a worker is free, on the
submitting thread or in the supervisor's ``on_idle`` callback.  These
tests pin that policy down:

* :class:`TestNextWake` — the next-wake computation on hand-built
  supervisor states: the earliest of lease expiry, hedge threshold,
  retry backoff and job deadline, and no timeout with nothing pending.
* :class:`TestIdleWake` — an idle service makes no passes at all; with
  a registered remote worker it wakes only as its silence timeout
  requires.
* :class:`TestSentinelWake` — a SIGKILLed local worker's unit is
  retried on another worker while no timer is pending: the worker's
  process sentinel is what wakes the scheduler.
* :class:`TestSignalStress` — submitters and remote workers racing on
  the signal handshake with a tiny switch interval: a lost wakeup
  would strand a unit, since no timer would ever wake the scheduler.
"""

import operator
import os
import pickle
import queue
import signal
import sys
import threading
import time

import pytest

from repro.serve import EvaluationService
from repro.serve.supervisor import Supervisor, SupervisorConfig
from repro.serve.workers import CALL_KIND


def _stopped_supervisor(**config):
    """A supervisor whose scheduler thread has exited, so the test alone
    builds its state (stop() leaves the bookkeeping in place)."""
    sup = Supervisor(
        lambda *args: None, local_workers=0,
        config=SupervisorConfig(**config),
    )
    sup.stop()
    return sup


def _count_calls(obj, name):
    """Wrap ``obj.name`` with a call counter; returns the count list."""
    calls = []
    inner = getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(time.monotonic())
        return inner(*args, **kwargs)

    setattr(obj, name, counted)
    return calls


class TestNextWake:
    # Offsets (seconds) of the four timers; each case makes one earliest.
    CASES = {
        "lease": dict(lease_s=1.0, hedge_after_s=2.0, retry_base_s=3.0,
                      deadline=4.0),
        "hedge": dict(lease_s=4.0, hedge_after_s=1.0, retry_base_s=2.0,
                      deadline=3.0),
        "backoff": dict(lease_s=3.0, hedge_after_s=4.0, retry_base_s=1.0,
                        deadline=2.0),
        "deadline": dict(lease_s=2.0, hedge_after_s=3.0, retry_base_s=4.0,
                         deadline=1.0),
    }

    def _build(self, lease_s, hedge_after_s, retry_base_s, deadline):
        sup = _stopped_supervisor(
            lease_s=lease_s, hedge_after_s=hedge_after_s,
            retry_base_s=retry_base_s, retry_max_s=retry_base_s,
            worker_timeout_s=1000.0,
        )
        with sup._lock:
            busy = sup.register_worker(label="busy")["worker"]
            # A unit leased to a remote worker: lease expiry, and its
            # hedge threshold once another worker is free.
            sup.submit("leased", "eval", {})
            sup._assign_queued(time.monotonic())
            sup.register_worker(label="spare")
            # A unit backed off after a failure.
            sup.submit("backoff", "eval", {})
            sup._register_failure(sup._units["backoff"], "test")
            # A queued unit with a job deadline.
            sup.submit(
                "deadline", "eval", {},
                deadline=time.monotonic() + deadline,
            )
            (attempt,) = sup._units["leased"].attempts
            assert attempt.worker == busy
            instants = {
                "lease": attempt.deadline,
                "hedge": attempt.started + hedge_after_s,
                "backoff": sup._units["backoff"].next_due,
                "deadline": sup._units["deadline"].deadline,
            }
        return sup, instants

    @pytest.mark.parametrize("earliest", sorted(CASES))
    def test_timeout_is_the_earliest_timer(self, earliest):
        sup, instants = self._build(**self.CASES[earliest])
        with sup._lock:
            wake = sup._next_wake()
        assert min(instants, key=instants.get) == earliest
        assert wake == instants[earliest]

    def test_hedge_threshold_needs_a_free_worker(self):
        sup = _stopped_supervisor(
            lease_s=5.0, hedge_after_s=1.0, worker_timeout_s=1000.0
        )
        with sup._lock:
            sup.register_worker(label="only")
            sup.submit("leased", "eval", {})
            sup._assign_queued(time.monotonic())
            (attempt,) = sup._units["leased"].attempts
            # No worker could take a hedge: only the lease is timed.
            assert sup._next_wake() == attempt.deadline

    def test_nothing_pending_means_no_timeout(self):
        sup = _stopped_supervisor()
        with sup._lock:
            assert sup._next_wake() is None
            sup.submit("queued", "eval", {})  # untimed, waits for a worker
            assert sup._next_wake() is None

    def test_stale_timers_are_skipped(self):
        sup = _stopped_supervisor(worker_timeout_s=1000.0)
        with sup._lock:
            sup.submit("gone", "eval", {}, deadline=time.monotonic() + 1)
            sup._resolve(sup._units["gone"])
            assert sup._next_wake() is None
            assert sup._timers == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestIdleWake:
    WINDOW_S = 1.0

    def test_idle_service_makes_no_passes(self, tmp_path):
        from repro.conformance import conformance_configuration
        from repro.io.serialize import config_to_dict, system_to_dict
        from repro.synth.workload import WorkloadSpec, generate_workload

        service = EvaluationService(tmp_path / "store", workers=1)
        try:
            system = generate_workload(
                WorkloadSpec(nodes=2, processes_per_node=4, seed=3)
            )
            submitted = service.submit_evaluation(
                system_to_dict(system),
                config_to_dict(conformance_configuration(system)),
            )
            assert service.wait(submitted["id"], timeout=60).status == "done"
            service.supervisor.wait_quiet()
            scheduler = _count_calls(service.supervisor, "_schedule_pass")
            dispatcher = _count_calls(service, "_dispatch_pass")
            # Let the passes the finished unit signalled run out.
            time.sleep(0.2)
            settled = (len(scheduler), len(dispatcher))
            time.sleep(self.WINDOW_S)
            assert (len(scheduler), len(dispatcher)) == settled
            assert settled[1] == 0
        finally:
            assert service.drain(timeout=30)

    def test_remote_worker_wakes_only_for_its_timeout(self, tmp_path):
        timeout_s, poll_s = 0.5, 0.1
        service = EvaluationService(
            tmp_path / "store", workers=0,
            supervisor=SupervisorConfig(worker_timeout_s=timeout_s),
        )
        stop = threading.Event()
        sup = service.supervisor
        worker = sup.register_worker(label="poller")["worker"]

        def _poll():
            while not stop.is_set():
                sup.poll(worker, wait_s=poll_s)

        poller = threading.Thread(target=_poll, daemon=True)
        poller.start()
        try:
            scheduler = _count_calls(sup, "_schedule_pass")
            dispatcher = _count_calls(service, "_dispatch_pass")
            time.sleep(self.WINDOW_S)
            # The worker polls every poll_s, so each silence check lands
            # at least timeout_s - poll_s after the previous one.
            allowed = self.WINDOW_S / (timeout_s - poll_s) + 1
            assert len(scheduler) <= allowed
            assert len(dispatcher) == 0
            assert [w["alive"] for w in sup.fleet()] == [True]
        finally:
            stop.set()
            poller.join(timeout=5)
            assert service.drain(timeout=30)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestSentinelWake:
    def test_killed_worker_unit_retries_without_a_timer(self):
        delivered = queue.SimpleQueue()
        sup = Supervisor(
            lambda unit_id, status, result: delivered.put(
                (unit_id, status, result)
            ),
            local_workers=2,
            config=SupervisorConfig(hedge_after_s=3600.0),
        )
        pids = {w["id"]: w["pid"] for w in sup.fleet()}
        stopped = list(pids.values())
        try:
            for pid in stopped:
                os.kill(pid, signal.SIGSTOP)
            for unit_id, value in (("a", 5), ("b", 7)):
                sup.submit(
                    unit_id, CALL_KIND, pickle.dumps((operator.neg, value))
                )
            deadline = time.monotonic() + 30
            while not all(w["in_flight"] for w in sup.fleet()):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with sup._lock:
                # Both workers busy, nothing remote, no deadlines: the
                # scheduler has no timer to wake it.
                assert sup._next_wake() is None
                holder = next(
                    w.id for w in sup._workers.values() if "a" in w.inflight
                )
            os.kill(pids[holder], signal.SIGKILL)
            unit_id, status, result = delivered.get(timeout=30)
            assert (unit_id, status) == ("a", "ok")
            assert pickle.loads(result) == (False, -5)
            assert sup.counters["worker_failures"] == 1
            assert sup.counters["retries"] == 1
            fleet = {w["id"]: w for w in sup.fleet()}
            assert not fleet[holder]["alive"]
        finally:
            for pid in stopped:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            sup.stop(timeout=5)


class TestSignalStress:
    def test_racing_signals_strand_no_unit(self):
        submitters, workers, per_submitter = 4, 4, 60
        delivered = queue.SimpleQueue()
        sup = Supervisor(
            lambda unit_id, status, result: delivered.put(
                (unit_id, status, result)
            ),
            local_workers=0,
            # No timer may stand in for a lost signal.
            config=SupervisorConfig(
                lease_s=600.0, worker_timeout_s=600.0, hedge_after_s=600.0
            ),
        )
        stop = threading.Event()
        worker_ids = [
            sup.register_worker(label=f"w{i}")["worker"]
            for i in range(workers)
        ]

        def _work(worker_id):
            while not stop.is_set():
                unit = sup.poll(worker_id, wait_s=0.05).get("unit")
                if unit is not None:
                    sup.submit_result(
                        worker_id, unit["id"], "ok", unit["payload"]
                    )

        def _submit(base):
            for i in range(per_submitter):
                unit_id = f"u{base}-{i}"
                sup.submit(unit_id, "eval", unit_id)

        threads = [
            threading.Thread(target=_work, args=(w,), daemon=True)
            for w in worker_ids
        ] + [
            threading.Thread(target=_submit, args=(b,), daemon=True)
            for b in range(submitters)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            results = [
                delivered.get(timeout=30)
                for _ in range(submitters * per_submitter)
            ]
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sup.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(r[0] for r in results) == sorted(
            f"u{b}-{i}" for b in range(submitters)
            for i in range(per_submitter)
        )
        assert all(status == "ok" and unit_id == result
                   for unit_id, status, result in results)
        assert delivered.empty()
        assert sup.counters["hedges"] == 0
