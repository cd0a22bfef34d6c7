"""Tests for :mod:`repro.explore`: specs, runner, Pareto, resume.

The resume acceptance check mirrors the ISSUE: a campaign killed midway
(modelled as a store that already holds a subset of the cells) resumes
with zero recomputation of completed cells — ``store_hits`` equals the
completed-cell count — and its final report is bit-identical (in the
deterministic sections) to an uninterrupted run's.
"""

import json

import pytest

from repro.conformance.campaign import CampaignSpec
from repro.exceptions import ConfigurationError, ReproError
from repro.explore import (
    Cell,
    SweepSpec,
    dominates,
    evaluate_cell,
    iter_chunked,
    pareto_front,
    partition_chunks,
    run_sweep,
)

#: Small two-cluster workloads: fast enough for per-test sweeps.
_WORKLOAD = {
    "nodes": 2,
    "processes_per_node": 6,
    "gateway_messages": 2,
    "graph_size_range": [[3, 5]],
}


def _small_spec(seeds=(0, 1), methods=("SF", "analysis"), **kwargs):
    return SweepSpec(
        name="test",
        workload={**_WORKLOAD, "seed": list(seeds)},
        methods=tuple(methods),
        group_by=("seed",),
        **kwargs,
    )


def _deterministic(report):
    data = report.to_dict()
    return {k: data[k] for k in ("cells", "fronts", "counts")}


class TestSweepSpec:
    def test_grid_expansion_counts_and_order(self):
        spec = _small_spec(seeds=(0, 1, 2), methods=("SF", "OS"))
        cells = spec.cells()
        assert len(cells) == 6
        # Methods alternate innermost, workloads outermost.
        assert [c.method for c in cells[:2]] == ["SF", "OS"]
        assert cells[0].workload["seed"] == 0
        assert cells[-1].workload["seed"] == 2
        assert [c.index for c in cells] == list(range(6))

    def test_options_filtered_per_method(self):
        spec = SweepSpec(
            workload={"seed": 0},
            methods=("SF", "SAS"),
            options={"sa_iterations": 10},
        )
        sf, sas = spec.cells()
        assert "sa_iterations" not in sf.options
        assert sas.options["sa_iterations"] == 10

    def test_cell_keys_are_stable_and_distinct(self):
        cells_a = _small_spec().cells()
        cells_b = _small_spec().cells()
        assert [c.key for c in cells_a] == [c.key for c in cells_b]
        assert len({c.key for c in cells_a}) == len(cells_a)

    def test_cell_key_covers_resolved_defaults(self):
        """The key pins defaults, so a changed default cannot silently
        reuse stale stored results."""
        base = SweepSpec(workload={"seed": 0}, methods=("analysis",))
        explicit = SweepSpec(
            workload={"seed": 0},
            methods=("analysis",),
            options={"rounds_per_period": 10},  # the documented default
        )
        assert base.cells()[0].key == explicit.cells()[0].key
        other = SweepSpec(
            workload={"seed": 0},
            methods=("analysis",),
            options={"rounds_per_period": 12},
        )
        assert other.cells()[0].key != base.cells()[0].key

    def test_method_filtered_option_axes_do_not_duplicate_cells(self):
        """An axis only some methods consume must not expand the other
        methods into identical-key duplicate cells."""
        spec = SweepSpec(
            workload={"seed": 0},
            methods=("SF", "OS"),
            options={"max_capacity_candidates": [2, 4]},  # OS-only axis
        )
        cells = spec.cells()
        assert len(cells) == 3  # one SF cell + two OS cells
        assert len({c.key for c in cells}) == 3
        assert [c.index for c in cells] == [0, 1, 2]
        assert sum(1 for c in cells if c.method == "SF") == 1

    def test_sample_is_reproducible_subset(self):
        spec = _small_spec(seeds=tuple(range(8)), sample=5, sample_seed=3)
        first = [c.key for c in spec.cells()]
        second = [c.key for c in spec.cells()]
        assert first == second
        assert len(first) == 5
        full = {c.key for c in _small_spec(seeds=tuple(range(8))).cells()}
        assert set(first) <= full

    def test_unknown_fields_raise(self):
        with pytest.raises(ConfigurationError, match="workload"):
            SweepSpec(workload={"no_such_knob": 1})
        with pytest.raises(ConfigurationError, match="method"):
            SweepSpec(methods=("XX",))
        with pytest.raises(ConfigurationError, match="options"):
            SweepSpec(options={"no_such_option": 1})
        with pytest.raises(ConfigurationError, match="fields"):
            SweepSpec.from_dict({"workloads": {}})

    def test_json_round_trip(self, tmp_path):
        spec = _small_spec(sample=3, sample_seed=7)
        path = tmp_path / "spec.json"
        spec.save(path)
        rebuilt = SweepSpec.from_file(path)
        assert rebuilt == spec
        assert [c.key for c in rebuilt.cells()] == [
            c.key for c in spec.cells()
        ]


class TestPareto:
    def test_dominates(self):
        assert dominates((1, 1), (2, 1))
        assert not dominates((1, 1), (1, 1))
        assert not dominates((1, 2), (2, 1))

    def test_front_drops_dominated_keeps_ties(self):
        points = [(1, 3), (2, 2), (3, 3), (1, 3), (0, 5)]
        front = pareto_front(points)
        assert front == [0, 1, 3, 4]  # (3,3) dominated; duplicates kept


class TestRunner:
    def test_partition_matches_campaign_chunks(self):
        """A campaign's seeds dispatch in the runner's partition: its
        conform cells pack into the contiguous lanes of
        ``partition_chunks``."""
        from repro.explore.engine import plan_cells

        spec = CampaignSpec(campaign=37, seed0=5, workers=3)
        cells = spec.cells()
        _records, _hits, units = plan_cells(cells, None, spec.workers)
        seeds = list(range(5, 42))
        assert [
            [cells[i].workload["seed"] for i in unit] for unit in units
        ] == partition_chunks(seeds, 3)

    def test_partition_covers_everything_in_order(self):
        chunks = partition_chunks(list(range(10)), workers=2)
        assert [x for chunk in chunks for x in chunk] == list(range(10))
        assert partition_chunks([], workers=4) == []

    def test_run_chunked_serial_matches_parallel(self):
        import warnings

        chunks = partition_chunks(list(range(20)), workers=2)
        serial = list(iter_chunked(chunks, _square_chunk, workers=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no silent inline fallback
            parallel = list(iter_chunked(chunks, _square_chunk, workers=2))
        assert serial == parallel
        assert [x for c in serial for x in c] == [i * i for i in range(20)]


class TestRunSweep:
    def test_cold_then_warm_is_bit_identical(self, tmp_path):
        spec = _small_spec()
        cold = run_sweep(spec, store=tmp_path / "store")
        warm = run_sweep(spec, store=tmp_path / "store")
        assert cold.computed == len(spec.cells())
        assert warm.computed == 0
        assert warm.store_hits == len(spec.cells())
        assert _deterministic(cold) == _deterministic(warm)

    def test_killed_midway_campaign_resumes_without_recompute(
        self, tmp_path
    ):
        """ISSUE acceptance: store_hits == completed cells, zero
        recomputation, report identical to an uninterrupted run."""
        full = _small_spec(seeds=(0, 1, 2))
        # "Killed midway": only the seed-0/1 cells reached the store.
        partial = _small_spec(seeds=(0, 1))
        interrupted = run_sweep(partial, store=tmp_path / "resumed")
        assert interrupted.computed == len(partial.cells())

        resumed = run_sweep(full, store=tmp_path / "resumed")
        assert resumed.store_hits == len(partial.cells())
        assert resumed.computed == len(full.cells()) - len(partial.cells())

        uninterrupted = run_sweep(full, store=tmp_path / "fresh")
        assert _deterministic(resumed) == _deterministic(uninterrupted)

    def test_crash_midway_checkpoints_completed_cells(
        self, tmp_path, monkeypatch
    ):
        """Completed cells are durable *before* the next cell starts:
        a hard crash (not just a clean exit) loses at most the cell in
        flight, and the resumed run recomputes only the remainder."""
        import repro.explore.engine as engine

        spec = _small_spec(seeds=(0, 1, 2), methods=("SF",))
        real_sf = engine._METHODS["SF"]
        calls = []

        def dies_on_third(state, cell):
            calls.append(cell.index)
            if len(calls) == 3:
                raise RuntimeError("simulated hard crash")  # not ReproError
            return real_sf(state, cell)

        monkeypatch.setitem(engine._METHODS, "SF", dies_on_third)
        with pytest.raises(RuntimeError, match="hard crash"):
            run_sweep(spec, store=tmp_path / "store")

        monkeypatch.setitem(engine._METHODS, "SF", real_sf)
        resumed = run_sweep(spec, store=tmp_path / "store")
        assert resumed.store_hits == 2  # the cells completed pre-crash
        assert resumed.computed == 1
        fresh = run_sweep(spec, store=tmp_path / "fresh")
        assert _deterministic(resumed) == _deterministic(fresh)

    def test_resumed_records_rehomed_onto_current_spec_positions(
        self, tmp_path
    ):
        """A stored record carries the index of the run that computed
        it; resuming a reordered/superset spec must re-home it, so the
        resumed report equals a fresh run of the current spec."""
        run_sweep(_small_spec(seeds=(1,)), store=tmp_path / "store")
        resumed = run_sweep(
            _small_spec(seeds=(0, 1)), store=tmp_path / "store"
        )
        assert resumed.store_hits == 2
        assert [r["index"] for r in resumed.records] == [0, 1, 2, 3]
        fresh = run_sweep(_small_spec(seeds=(0, 1)), store=tmp_path / "f")
        assert _deterministic(resumed) == _deterministic(fresh)

    def test_no_resume_recomputes(self, tmp_path):
        spec = _small_spec(seeds=(0,))
        run_sweep(spec, store=tmp_path / "store")
        again = run_sweep(spec, store=tmp_path / "store", resume=False)
        assert again.store_hits == 0
        assert again.computed == len(spec.cells())

    def test_failed_checkpoint_writes_are_counted(self, tmp_path):
        """A checkpoint write that fails is counted in the report's
        profile, not swallowed; the records are still reported."""
        from repro.store import ResultStore

        class FailingStore(ResultStore):
            def _ensure_writer(self, shard):  # the disk is full, below put()
                raise OSError("no space left on device")

        spec = _small_spec(seeds=(0,))
        report = run_sweep(spec, store=FailingStore(tmp_path / "store"))
        assert report.computed == len(spec.cells())
        assert not report.errored
        assert report.profile["store_errors"] == len(spec.cells())
        assert run_sweep(spec).profile["store_errors"] == 0

    def test_workers_match_serial(self):
        spec = _small_spec(seeds=(0, 1, 2, 3))
        serial = run_sweep(spec, workers=1)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no silent inline fallback
            parallel = run_sweep(spec, workers=2)
        assert _deterministic(serial) == _deterministic(parallel)

    def test_fronts_group_and_minimize(self, tmp_path):
        report = run_sweep(_small_spec(seeds=(0, 1)))
        fronts = report.fronts
        assert [f["group"] for f in fronts] == [{"seed": 0}, {"seed": 1}]
        for front in fronts:
            assert front["axes"] == ["degree", "total_buffers", "evaluations"]
            assert front["cells"], "every group competes"
            for entry in front["cells"]:
                assert len(entry["point"]) == 3

    def test_conform_is_a_sweep_kind(self):
        report = run_sweep(
            SweepSpec(
                workload={**_WORKLOAD, "seed": [0, 1]},
                methods=("conform",),
            )
        )
        assert [r["metrics"]["status"] for r in report.records] == [
            "ok", "ok",
        ]
        # No degree axis: conform cells stay out of the Pareto fronts.
        assert report.fronts == [{
            "group": {}, "axes": ["degree", "total_buffers", "evaluations"],
            "cells": [],
        }] or report.fronts == []

    def test_malformed_cell_parameter_becomes_error_record(self):
        """A JSON-valid but semantically bad workload value (a scalar
        where the generator expects a range pair) fails only its own
        cell, not the sweep."""
        report = run_sweep(SweepSpec(
            workload={"nodes": 2, "processes_per_node": 6,
                      "graph_size_range": 3, "seed": [0, 1]},
            methods=("SF",),
        ))
        assert report.counts == {
            "cells": 2, "errors": 2, "schedulable": 0,
        }
        for record in report.records:
            assert record["error"]
            assert record["metrics"] == {}

    def test_error_cells_are_recorded_not_raised(self, monkeypatch):
        import repro.explore.engine as engine

        def boom(state, cell):
            raise ReproError("synthetic failure")

        monkeypatch.setitem(engine._METHODS, "SF", boom)
        report = run_sweep(_small_spec(seeds=(0,), methods=("SF",)))
        record = report.records[0]
        assert record["error"] == "synthetic failure"
        assert report.counts["errors"] == 1
        assert report.fronts[0]["cells"] == [] if report.fronts else True

    def test_records_carry_provenance(self, tmp_path):
        report = run_sweep(_small_spec(seeds=(0,)))
        for record in report.records:
            assert record["metrics"]["config_hash"], record

    def test_evaluate_cell_smoke_all_heuristics(self):
        """SF/OS/OR/SAS/SAR all reduce to comparable metrics (the
        example's table) on one small workload."""
        spec = SweepSpec(
            workload={**_WORKLOAD, "seed": 0},
            methods=("SF", "OS", "OR", "SAS", "SAR"),
            options={"sa_iterations": 5, "max_capacity_candidates": 2},
        )
        report = run_sweep(spec)
        assert not report.errored
        by_method = {r["method"]: r["metrics"] for r in report.records}
        assert set(by_method) == {"SF", "OS", "OR", "SAS", "SAR"}
        for metrics in by_method.values():
            assert isinstance(metrics["degree"], float)
            assert metrics["evaluations"] >= 1
        # OS explores, so it cannot be worse than its SF-style seeds.
        assert by_method["OS"]["degree"] <= by_method["SF"]["degree"]


def _square_chunk(chunk):
    return [x * x for x in chunk]


class TestCellRecordShape:
    def test_evaluate_cell_record_fields(self):
        cell = SweepSpec(
            workload={**_WORKLOAD, "seed": 0}, methods=("analysis",)
        ).cells()[0]
        record = evaluate_cell(cell)
        assert record["key"] == cell.key
        assert record["method"] == "analysis"
        assert record["error"] is None
        assert record["wall_s"] >= 0.0
        assert record["metrics"]["evaluations"] == 1
        rebuilt = Cell.from_dict(cell.to_dict())
        assert rebuilt.key == cell.key
        assert json.dumps(record)  # JSON-serializable as stored
