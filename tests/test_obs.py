"""Unified observability layer tests (ISSUE 10).

Four layers:

* :class:`TestMetricsRegistry` / :class:`TestSpans` — the registry's
  snapshot/merge/drain semantics, Prometheus rendering, and span
  parenting (thread-local nesting, explicit parents, noop-when-off).
* :class:`TestSupervisorTracing` — delivery-layer guarantees: a hedged
  unit's attempts are *sibling* spans under one parent, the winning
  attempt's obs blob folds exactly once, and the losing attempt's
  blob is dropped with its span ended ``wasted``.
* :class:`TestServiceObs` — a real service with a forked fleet:
  per-worker metrics merge into one service-wide registry, the job's
  span chain is parent-connected across process boundaries, and a
  journal-replayed unit resumes the trace it was enqueued under.
* :class:`TestByteIdentity` — the zero-cost contract: with obs off
  (the default) every key, hash, journal byte and persisted record is
  identical to a build where the obs package does not exist.
"""

import os
import time
from pathlib import Path

import pytest

from repro import obs
from repro.api.session import config_hash
from repro.conformance.campaign import conformance_configuration
from repro.io.serialize import config_to_dict, system_to_dict
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.export import (
    chrome_trace,
    critical_span_ids,
    prometheus_text,
    read_spans_jsonl,
    render_span_tree,
)
from repro.serve import EvaluationService, evaluation_key
from repro.serve.protocol import system_fingerprint
from repro.serve.supervisor import (
    Supervisor,
    SupervisorConfig,
    UnitJournal,
)
from repro.synth.workload import WorkloadSpec, generate_workload


@pytest.fixture()
def obs_on():
    obs.configure(enabled=True)
    obs.reset_process()
    yield
    obs.reset_process()
    obs.configure(enabled=False)


def _system(seed=3, processes=4):
    return generate_workload(
        WorkloadSpec(nodes=2, processes_per_node=processes, seed=seed)
    )


def _wait_until(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


# -- registry -----------------------------------------------------------------


class TestMetricsRegistry:
    def test_snapshot_shape(self):
        reg = obs_metrics.MetricsRegistry()
        reg.inc("repro_x_total", (("kind", "a"),))
        reg.inc("repro_x_total", (("kind", "a"),))
        reg.inc("repro_x_total", (("kind", "b"),), value=3)
        reg.set_gauge("repro_depth", 7)
        reg.observe("repro_wait_seconds", 0.004)
        snap = reg.snapshot()
        counters = {
            (name, tuple(tuple(p) for p in labels)): value
            for name, labels, value in snap["counters"]
        }
        assert counters[("repro_x_total", (("kind", "a"),))] == 2
        assert counters[("repro_x_total", (("kind", "b"),))] == 3
        name, _, data = snap["hists"][0]
        assert name == "repro_wait_seconds"
        assert data["count"] == 1 and abs(data["sum"] - 0.004) < 1e-9
        assert sum(data["buckets"]) == 1  # one observation, one bucket

    def test_merge_is_addition(self):
        solo = obs_metrics.MetricsRegistry()
        a = obs_metrics.MetricsRegistry()
        b = obs_metrics.MetricsRegistry()
        for reg, n in ((a, 2), (b, 5)):
            for _ in range(n):
                reg.inc("repro_calls_total", (("backend", "analysis"),))
                reg.observe("repro_solve_seconds", 0.01 * n)
        for _ in range(7):
            solo.inc("repro_calls_total", (("backend", "analysis"),))
        merged = obs_metrics.MetricsRegistry()
        merged.merge(a.snapshot())
        merged.merge(b.snapshot())
        assert (
            merged.snapshot()["counters"] == solo.snapshot()["counters"]
        )
        hist = merged.snapshot()["hists"][0]
        assert hist[2]["count"] == 7  # observations add across merges

    def test_drain_ships_exactly_once(self):
        reg = obs_metrics.MetricsRegistry()
        reg.inc("repro_once_total")
        first = reg.drain()
        second = reg.drain()
        assert first["counters"] and not second["counters"]

    def test_prometheus_text_is_valid(self):
        reg = obs_metrics.MetricsRegistry()
        reg.inc("repro_store_gets_total", (("outcome", "hit"),))
        reg.inc("repro_store_gets_total", (("outcome", "miss"),), 2)
        reg.observe("repro_kernel_solve_seconds", 0.02)
        text = prometheus_text(
            reg.snapshot(),
            extra_counters={"repro_serve_computed_total": 4},
            extra_gauges={"repro_serve_queue_depth": 0},
        )
        lines = text.splitlines()
        # One TYPE line per metric family, no duplicates.
        types = [l for l in lines if l.startswith("# TYPE")]
        assert len(types) == len(set(types))
        assert 'repro_store_gets_total{outcome="hit"} 1' in lines
        assert 'repro_store_gets_total{outcome="miss"} 2' in lines
        assert "repro_serve_computed_total 4" in lines
        assert "repro_serve_queue_depth 0" in lines
        # Histograms carry the +Inf bucket, _sum and _count.
        assert any(
            'le="+Inf"' in l and l.startswith(
                "repro_kernel_solve_seconds_bucket"
            )
            for l in lines
        )
        assert any(
            l.startswith("repro_kernel_solve_seconds_count 1")
            for l in lines
        )
        assert text.endswith("\n")

    def test_stats_snapshot_schema(self):
        snap = obs_metrics.stats_snapshot(
            "session", counters={"hits": 3}, timings={"analysis_s": 0.1}
        )
        assert snap["format"] == obs_metrics.STATS_FORMAT
        assert snap["kind"] == "session"
        assert set(snap) == {
            "format", "kind", "counters", "timings", "derived",
        }


# -- spans --------------------------------------------------------------------


class TestSpans:
    def test_nested_spans_parent_via_stack(self, obs_on):
        with obs_trace.span("outer") as outer:
            with obs_trace.span("inner"):
                pass
        spans = obs_trace.drain_spans()
        by_name = {entry["name"]: entry for entry in spans}
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["inner"]["trace"] == outer.trace_id

    def test_explicit_parent_context(self, obs_on):
        root = obs_trace.start_span("serve.job", job="j1")
        ctx = obs_trace.context_of(root)
        child = obs_trace.start_span("serve.unit", parent=ctx)
        obs_trace.end_span(child, "done")
        obs_trace.end_span(root, "done")
        spans = obs_trace.drain_spans()
        unit = next(e for e in spans if e["name"] == "serve.unit")
        assert unit["trace"] == ctx["trace"]
        assert unit["parent"] == ctx["span"]
        assert unit["status"] == "done"

    def test_end_is_idempotent_and_drain_exactly_once(self, obs_on):
        span_obj = obs_trace.start_span("once")
        obs_trace.end_span(span_obj, "ok")
        obs_trace.end_span(span_obj, "error")  # late duplicate: no-op
        spans = obs_trace.drain_spans()
        assert len(spans) == 1 and spans[0]["status"] == "ok"
        assert obs_trace.drain_spans() == []

    def test_disabled_is_noop(self):
        assert not obs.obs_enabled()
        assert obs_trace.start_span("x") is None
        assert obs_trace.context_of(None) is None
        assert obs_trace.current_context() is None
        with obs_trace.span("x"):
            assert obs_trace.current_context() is None
        assert obs_trace.drain_spans() == []
        assert obs.snapshot_blob() is None

    def test_tree_render_and_critical_path(self, obs_on):
        with obs_trace.span("serve.job", job="j1"):
            with obs_trace.span("kernel.solve"):
                time.sleep(0.01)
        spans = obs_trace.drain_spans()
        critical = critical_span_ids(spans)
        assert len(critical) == 2  # root and its only child
        text = render_span_tree(spans)
        assert "serve.job" in text and "  kernel.solve" in text
        assert "* = critical path" in text
        events = chrome_trace(spans)["traceEvents"]
        assert {e["name"] for e in events} >= {"serve.job", "kernel.solve"}


# -- the delivery layer -------------------------------------------------------


def _fast_config(**overrides):
    base = dict(
        lease_s=5.0, worker_timeout_s=10.0, retry_base_s=0.01,
        retry_max_s=0.05, poll_s=0.2,
    )
    base.update(overrides)
    return SupervisorConfig(**base)


class _Collector:
    """Stub of the service-side obs sink."""

    def __init__(self):
        self.folds = []

    def fold(self, blob):
        self.folds.append(blob)


class TestSupervisorTracing:
    def test_hedged_attempts_are_sibling_spans(self, obs_on):
        delivered = []
        sup = Supervisor(
            lambda uid, status, result: delivered.append(status),
            local_workers=0,
            config=_fast_config(hedge_after_s=0.05),
        )
        try:
            first = sup.register_worker(label="a")["worker"]
            root = obs_trace.start_span("serve.unit", unit="u1")
            sup.submit("u1", "eval", {"x": 1},
                       trace=obs_trace.context_of(root))
            polled = sup.poll(first, wait_s=5.0)["unit"]
            assert polled is not None and polled["id"] == "u1"
            # The poll response threads the *attempt* span's context so
            # the remote worker's compute span nests under it.
            assert polled["trace"]["trace"] == root.trace_id
            # A second worker appears; the straggling unit hedges onto
            # it after hedge_after_s.
            second = sup.register_worker(label="b")["worker"]
            hedged = {}

            def _polled_hedge():
                unit = sup.poll(second, wait_s=0.2)["unit"]
                if unit is not None:
                    hedged.update(unit)
                return bool(hedged)

            assert _wait_until(_polled_hedge, timeout=10)
            assert hedged["id"] == "u1"
            # The hedge wins; the original attempt's result is late.
            assert sup.submit_result(second, "u1", "ok", 42)["accepted"]
            assert not sup.submit_result(first, "u1", "ok", 42)["accepted"]
            obs_trace.end_span(root, "done")
            spans = obs_trace.drain_spans()
            attempts = [e for e in spans if e["name"] == "serve.attempt"]
            assert len(attempts) == 2
            # Siblings: same parent (the unit span), same trace.
            assert {e["parent"] for e in attempts} == {root.span_id}
            assert {e["trace"] for e in attempts} == {root.trace_id}
            assert sorted(e["status"] for e in attempts) == ["ok", "wasted"]
            assert {e["attrs"]["hedge"] for e in attempts} == {False, True}
            assert sup.counters["hedges"] == 1
            assert sup.counters["hedge_wasted"] == 1
            assert delivered == ["ok"]
        finally:
            sup.stop()

    def test_obs_blob_folds_exactly_once(self, obs_on):
        collector = _Collector()
        sup = Supervisor(
            lambda uid, status, result: None,
            local_workers=0,
            config=_fast_config(),
            obs=collector,
        )
        try:
            a = sup.register_worker(label="a")["worker"]
            b = sup.register_worker(label="b")["worker"]
            sup.submit("u1", "eval", {"x": 1})
            assert _wait_until(
                lambda: sup.poll(a, wait_s=0.5)["unit"] is not None,
                timeout=10,
            )
            blob = {"metrics": {"counters": [["n", [], 1]]}, "spans": []}
            assert sup.submit_result(a, "u1", "ok", 1, obs=blob)["accepted"]
            # A duplicate (late hedge / retry race) must not fold again.
            late = {"metrics": {"counters": [["n", [], 9]]}, "spans": []}
            assert not sup.submit_result(
                b, "u1", "ok", 1, obs=late
            )["accepted"]
            assert collector.folds == [blob]
            assert sup.counters["hedge_wasted"] == 1
        finally:
            sup.stop()


# -- the service end to end ---------------------------------------------------


def _connected(spans):
    """Every span's parent is either absent or among the spans."""
    ids = {e["span"] for e in spans}
    return all(
        e.get("parent") is None or e["parent"] in ids for e in spans
    )


class TestServiceObs:
    def test_forked_fleet_merges_metrics_and_connects_spans(
        self, obs_on, tmp_path
    ):
        system = _system()
        sd = system_to_dict(system)
        service = EvaluationService(tmp_path / "store", workers=2)
        try:
            jobs = [
                service.submit_evaluation(
                    sd,
                    config_to_dict(
                        conformance_configuration(
                            system, rounds_per_period=4 + i
                        )
                    ),
                )
                for i in range(2)
            ]
            for entry in jobs:
                job = service.wait(entry["id"], timeout=60)
                assert job.status == "done", (job.status, job.error)
            # Worker-process counters merged into the service registry.
            text = service.metrics_text()
            assert (
                'repro_session_backend_calls_total{backend="analysis"} 2'
                in text
            )
            assert "repro_serve_computed_total 2" in text
            # The span chain of a job crosses the fork boundary intact.
            payload = service.trace_spans(jobs[0]["id"])
            assert payload is not None
            spans = payload["spans"]
            names = {e["name"] for e in spans}
            assert {
                "serve.job", "serve.unit", "serve.attempt",
                "worker.compute", "session.evaluate",
            } <= names
            assert _connected(spans)
            # The compute spans really ran in another process.
            compute = [e for e in spans if e["name"] == "worker.compute"]
            assert all(e["pid"] != os.getpid() for e in compute)
            assert service.stats()["obs_enabled"] is True
            # The daemon's trace file holds the same spans.
            assert (tmp_path / "store" / "serve-trace.jsonl").exists()
        finally:
            assert service.drain(timeout=60)

    def test_journal_replay_resumes_trace(self, obs_on, tmp_path):
        system = _system()
        sd = system_to_dict(system)
        cd = config_to_dict(
            conformance_configuration(system, rounds_per_period=4)
        )
        store_dir = tmp_path / "store"
        trace_ctx = {"trace": "ab" * 16, "span": "cd" * 8}
        journal = UnitJournal(store_dir / "serve-journal.jsonl")
        journal.record_unit(
            "u-crashed", "eval",
            {
                "system_hash": system_fingerprint(sd),
                "system": sd,
                "items": [["job-crashed-0", cd]],
                "backend": "analysis",
                "options": {},
            },
            persist=None,
            trace=trace_ctx,
        )
        journal.close()
        # A service starting on this store replays the journal; the
        # recovered unit's spans resume the recorded trace.
        service = EvaluationService(store_dir, workers=0)
        try:
            assert service.recovered_units == 1
            trace_file = store_dir / "serve-trace.jsonl"

            def _recovered_unit_span():
                spans = read_spans_jsonl(trace_file)
                return [
                    e for e in spans
                    if e["name"] == "serve.unit"
                    and e["trace"] == trace_ctx["trace"]
                ]
            assert _wait_until(lambda: bool(_recovered_unit_span()), 60)
            unit_span = _recovered_unit_span()[0]
            assert unit_span["parent"] == trace_ctx["span"]
        finally:
            assert service.drain(timeout=60)


# -- session telemetry --------------------------------------------------------


class TestSessionMetrics:
    @pytest.mark.parametrize("batch", [False, True])
    def test_every_backend_call_is_timed(self, obs_on, batch):
        """``evaluate`` and ``evaluate_many`` share one compute path, so
        N distinct configurations record N backend-seconds samples and
        N ``session.evaluate`` spans either way."""
        from repro.api import Session

        system = _system()
        configs = [
            conformance_configuration(system, rounds_per_period=r)
            for r in (4, 5, 8)
        ]
        session = Session(system)
        if batch:
            session.evaluate_many(configs)
        else:
            for config in configs:
                session.evaluate(config)
        snap = obs_metrics.registry().snapshot()
        hists = {
            (name, tuple(tuple(p) for p in labels)): data
            for name, labels, data in snap["hists"]
        }
        key = ("repro_session_backend_seconds", (("backend", "analysis"),))
        assert hists[key]["count"] == len(configs)
        counters = {
            (name, tuple(tuple(p) for p in labels)): value
            for name, labels, value in snap["counters"]
        }
        assert counters[
            ("repro_session_backend_calls_total", key[1])
        ] == len(configs)
        spans = [
            s for s in obs_trace.drain_spans()
            if s["name"] == "session.evaluate"
        ]
        assert len(spans) == len(configs)


class TestLocalExecutorObs:
    """Parallel sweeps and campaigns fold their workers' telemetry into
    the parent exactly as a serial run records it in place."""

    _SERIES = (
        "repro_explore_cells_total",
        "repro_session_backend_calls_total",
        "repro_conform_seeds_total",
    )

    @staticmethod
    def _sweep(workers):
        from repro.explore import SweepSpec, run_sweep

        run_sweep(
            SweepSpec(
                name="obs",
                workload={"nodes": 2, "processes_per_node": 4,
                          "seed": [0, 1]},
                methods=("SF", "OS"),
            ),
            workers=workers,
        )

    @staticmethod
    def _campaign(workers):
        from repro.conformance import CampaignSpec, run_campaign

        run_campaign(CampaignSpec(campaign=6, seed0=0, workers=workers))

    def _recorded(self, run, workers):
        from repro.explore import engine

        # The per-process workload cache would let forked workers reuse
        # the serial run's memoized results and record fewer calls.
        engine._WORKER_STATE.clear()
        obs.reset_process()
        run(workers)
        snap = obs_metrics.registry().snapshot()
        counters = {
            (name, tuple(tuple(p) for p in labels)): value
            for name, labels, value in snap["counters"]
            if name in self._SERIES
        }
        return counters, {s["name"] for s in obs_trace.drain_spans()}

    @pytest.mark.parametrize(
        "kind, span_name", [("sweep", "explore.cell"),
                            ("campaign", "conform.seed")],
    )
    def test_workers_two_records_what_workers_one_records(
        self, obs_on, kind, span_name
    ):
        run = self._sweep if kind == "sweep" else self._campaign
        serial, serial_spans = self._recorded(run, 1)
        parallel, parallel_spans = self._recorded(run, 2)
        assert serial, "the serial run must record the series"
        assert parallel == serial
        assert span_name in serial_spans
        assert {span_name, "worker.compute"} <= parallel_spans
        assert obs_metrics.registry().counters_by_name(
            "repro_supervisor_dispatched_total"
        ) >= 2


# -- the zero-cost contract ---------------------------------------------------


class TestByteIdentity:
    def test_keys_and_hashes_unchanged_by_obs(self):
        system = _system()
        sd = system_to_dict(system)
        config = conformance_configuration(system, rounds_per_period=4)
        cd = config_to_dict(config)
        h = system_fingerprint(sd)
        obs.configure(enabled=False)
        off = (config_hash(config), evaluation_key(h, "analysis", {}, cd))
        obs.configure(enabled=True)
        try:
            on = (
                config_hash(config),
                evaluation_key(h, "analysis", {}, cd),
            )
        finally:
            obs.configure(enabled=False)
            obs.reset_process()
        assert off == on

    def test_journal_bytes_identical_without_trace(self, tmp_path):
        paths = []
        for name, enabled in (("off.jsonl", False), ("on.jsonl", True)):
            obs.configure(enabled=enabled)
            try:
                journal = UnitJournal(tmp_path / name)
                journal.record_unit(
                    "u1", "eval", {"x": 1}, persist=None, trace=None
                )
                journal.record_done("u1")
                journal.close()
            finally:
                obs.configure(enabled=False)
            paths.append(tmp_path / name)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_persisted_results_identical_obs_on_vs_off(self, tmp_path):
        system = _system()
        sd = system_to_dict(system)
        cd = config_to_dict(
            conformance_configuration(system, rounds_per_period=4)
        )
        results = {}
        journals = {}
        for label, enabled in (("off", False), ("on", True)):
            obs.configure(enabled=enabled)
            obs.reset_process()
            try:
                service = EvaluationService(
                    tmp_path / label, workers=0
                )
                try:
                    entry = service.submit_evaluation(sd, cd)
                    job = service.wait(entry["id"], timeout=60)
                    assert job.status == "done", (job.status, job.error)
                    results[label] = job.result
                finally:
                    assert service.drain(timeout=60)
            finally:
                obs.configure(enabled=False)
                obs.reset_process()
            journals[label] = Path(
                tmp_path / label / "serve-journal.jsonl"
            ).read_bytes()
        assert results["off"] == results["on"]
        # Same journal skeleton: with obs on, unit records gain a
        # "trace" field; strip it and the records match line for line
        # (ids differ per run, so compare the keyset shape).
        assert b'"trace"' not in journals["off"]
        # Obs-off store root carries no trace file at all.
        assert not (tmp_path / "off" / "serve-trace.jsonl").exists()
        assert (tmp_path / "on" / "serve-trace.jsonl").exists()
