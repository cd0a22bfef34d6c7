"""Tests for :mod:`repro.store` and the Session persistent memo tier.

Covers the hard contracts of the ISSUE: cross-process persistence (two
sessions sharing a directory see each other's results bit-identically),
corruption tolerance (a truncated or damaged tail degrades to
recompute-and-repair, never a crash), schema versioning, compaction and
eviction, the ``clear_cache`` interaction (memory only unless
``store=True``), and the one write-failure policy (a failed put is
counted, reported once, and never tears a later record).
"""

import errno
import json
from pathlib import Path

import pytest

from helpers import two_node_config, two_node_system
from repro.api import Session, config_hash, store_key
from repro.exceptions import StoreError
from repro.io import run_result_to_dict
from repro.store import ResultStore, content_key, shard_of


def _segments(root):
    """Every segment file of a store."""
    return sorted(Path(root).glob("shards/*/*.jsonl"))


class FailingStore(ResultStore):
    """A store whose disk is full: every append fails below put()."""

    def _ensure_writer(self, shard):
        raise OSError(errno.ENOSPC, "No space left on device")


class _TornHandle:
    """A writer handle that writes half of the next line, then fails —
    a disk filling up in the middle of an append."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._handle, name)


class TearingStore(ResultStore):
    """A store whose next append is torn (see :class:`_TornHandle`)."""

    tear_next = False

    def _ensure_writer(self, shard):
        path, handle = super()._ensure_writer(shard)
        if self.tear_next:
            self.tear_next = False
            return path, _TornHandle(handle)
        return path, handle


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        payload = {"degree": -1.5, "nested": {"a": [1, 2]}}
        assert store.put("k1", payload)
        assert store.get("k1") == payload
        assert store.contains("k1")
        assert list(store.keys()) == ["k1"]

    def test_duplicate_put_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        assert store.put("k", {"v": 1})
        assert not store.put("k", {"v": 1})
        assert store.stats.put_dupes == 1
        assert len(_segments(tmp_path / "s")) == 1

    def test_kinds_are_namespaced(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k", {"v": "run"}, kind="runresult")
        store.put("k", {"v": "cell"}, kind="sweepcell")
        assert store.get("k", kind="runresult") == {"v": "run"}
        assert store.get("k", kind="sweepcell") == {"v": "cell"}
        assert len(store) == 2

    def test_persistence_across_reopen(self, tmp_path):
        root = tmp_path / "s"
        ResultStore(root).put("k", {"v": 7})
        reopened = ResultStore(root)
        assert reopened.get("k") == {"v": 7}

    def test_two_instances_share_appends(self, tmp_path):
        """Two live handles (stand-in for two processes) converge."""
        root = tmp_path / "s"
        writer = ResultStore(root)
        reader = ResultStore(root)
        assert reader.get("k") is None
        writer.put("k", {"v": 1})
        # get() refreshes on an index miss and sees the new record.
        assert reader.get("k") == {"v": 1}
        # Writers never clobber each other: separate segment files.
        reader.put("k2", {"v": 2})
        assert len(_segments(root)) == 2
        assert writer.get("k2") == {"v": 2}

    def test_truncated_tail_is_ignored(self, tmp_path):
        root = tmp_path / "s"
        store = ResultStore(root)
        store.put("good", {"v": 1})
        store.close()
        segment = _segments(root)[0]
        with open(segment, "ab") as handle:
            handle.write(b'{"key": "half-written')  # no newline: torn append
        reopened = ResultStore(root)
        assert reopened.get("good") == {"v": 1}
        assert reopened.get("half-written") is None
        # The store stays writable and a compaction drops the damage.
        assert reopened.put("repaired", {"v": 2})
        reopened.compact()
        data = b"".join(p.read_bytes() for p in _segments(root))
        assert b"half-written" not in data
        assert reopened.get("good") == {"v": 1}
        assert reopened.get("repaired") == {"v": 2}

    def test_corrupt_checksum_line_is_skipped_and_counted(self, tmp_path):
        root = tmp_path / "s"
        store = ResultStore(root)
        store.put("good", {"v": 1})
        store.close()
        bad = {"key": "bad", "kind": "runresult", "payload": {"v": 9},
               "sha": "0" * 16, "v": 1}
        with open(_segments(root)[0], "ab") as handle:
            handle.write((json.dumps(bad) + "\n").encode())
        reopened = ResultStore(root)
        assert reopened.get("bad") is None
        assert reopened.get("good") == {"v": 1}
        assert reopened.stats.corrupt_records == 1

    def test_unterminated_tail_retried_after_completion(self, tmp_path):
        """A concurrently flushing writer's half line is re-examined."""
        root = tmp_path / "s"
        writer = ResultStore(root)
        writer.put("seed", {"v": 0})  # creates the writer segment
        reader = ResultStore(root)
        # The late record must belong to the same shard as the segment
        # it is appended to, or the reader rightly never looks there.
        late_key = shard_of("seed") * 64
        record = {"key": late_key, "kind": "runresult", "payload": {"v": 5}}
        record["sha"] = content_key({"v": 5})[:16]
        line = json.dumps(record, sort_keys=True).encode()
        (segment,) = _segments(root)
        writer.close()
        with open(segment, "ab") as handle:
            handle.write(line[:10])
            handle.flush()
            assert reader.get(late_key) is None  # incomplete: invisible
            handle.write(line[10:] + b"\n")
        assert reader.get(late_key) == {"v": 5}

    def test_schema_version_guard(self, tmp_path):
        root = tmp_path / "s"
        ResultStore(root)
        meta = json.loads((root / "store.json").read_text())
        meta["version"] = 99
        (root / "store.json").write_text(json.dumps(meta))
        with pytest.raises(StoreError, match="newer"):
            ResultStore(root)

    def test_foreign_directory_guard(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / "store.json").write_text('{"format": "something-else"}')
        with pytest.raises(StoreError, match="not a repro-store"):
            ResultStore(root)

    def test_compact_folds_segments_and_keeps_content(self, tmp_path):
        root = tmp_path / "s"
        for i in range(3):  # three writer instances = three segments
            ResultStore(root).put(f"k{i}", {"v": i})
        store = ResultStore(root)
        assert len(_segments(root)) == 3
        assert store.compact() == 3
        # Compaction folds down to one segment per occupied shard.
        shards = {shard_of(f"k{i}") for i in range(3)}
        assert len(_segments(root)) == len(shards)
        for i in range(3):
            assert store.get(f"k{i}") == {"v": i}

    def test_eviction_keeps_newest(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for i in range(10):
            store.put(f"k{i}", {"v": i})
        store.compact(max_entries=4)
        assert len(store) == 4
        assert store.get("k9") == {"v": 9}
        assert store.get("k0") is None

    def test_put_never_auto_compacts(self, tmp_path):
        """Compaction unlinks segments, which is only safe with no
        concurrent writers — so a bounded store must not compact itself
        mid-put; the bound applies when compact() is called."""
        store = ResultStore(tmp_path / "s")
        other = ResultStore(tmp_path / "s")  # a concurrent writer
        other.put("other", {"v": "theirs"})
        for i in range(8):
            store.put(f"k{i}", {"v": i})
        assert store.stats.compactions == 0
        # Both writers' appends are intact: nothing was unlinked.
        assert store.get("other") == {"v": "theirs"}
        assert len(store) == 9
        other.close()
        store.compact(max_entries=2)
        assert len(store) == 2  # the bound applies here, explicitly

    def test_eviction_age_is_mtime_not_segment_name(self, tmp_path):
        """Retention must follow append recency, not the (random,
        pid-prefixed) segment file names."""
        import os

        root = tmp_path / "s"
        old_writer = ResultStore(root)
        old_writer.put("old", {"v": "old"})
        old_writer.close()
        new_writer = ResultStore(root)
        new_writer.put("new", {"v": "new"})
        new_writer.close()
        segments = {p: json.loads(p.read_text())["key"]
                    for p in _segments(root)}
        for path, key in segments.items():
            age = 100 if key == "old" else 10  # seconds ago
            stat = path.stat()
            os.utime(path, (stat.st_atime, stat.st_mtime - age))
        store = ResultStore(root)
        store.compact(max_entries=1)
        assert store.get("new") == {"v": "new"}
        assert store.get("old") is None

    def test_clear_removes_everything(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k", {"v": 1})
        store.clear()
        assert store.get("k") is None
        assert not _segments(tmp_path / "s")
        assert store.put("k", {"v": 2})  # still usable


class TestStoreKey:
    def test_scalar_options_are_storable(self):
        key = ("analysis", (("max_iterations", 30),), "ab" * 32)
        assert store_key(key) is not None
        # Address covers the options: different options, different key.
        other = ("analysis", (("max_iterations", 31),), "ab" * 32)
        assert store_key(key) != store_key(other)

    def test_object_options_are_not_storable(self):
        key = ("simulation", (("execution", print),), "ab" * 32)
        assert store_key(key) is None


class TestWriteFailures:
    """put() owns the write-failure policy: a failed write is counted in
    ``stats.write_errors``, the first one is reported on stderr, put
    returns False, and the next put lands on clean bytes."""

    def test_failed_partial_append_does_not_tear_the_next_put(
        self, tmp_path, capsys
    ):
        root = tmp_path / "s"
        store = TearingStore(root)
        # Three keys of one shard, so all would share a writer segment.
        first, torn, second = "a1" * 32, "a2" * 32, "a3" * 32
        assert store.put(first, {"v": 1})
        store.tear_next = True
        assert store.put(torn, {"v": 2}) is False
        assert store.stats.write_errors == 1
        assert "No space left on device" in capsys.readouterr().err
        assert store.put(second, {"v": 3})
        store.close()

        reopened = ResultStore(root)
        assert reopened.get(first) == {"v": 1}
        assert reopened.get(second) == {"v": 3}
        assert reopened.get(torn) is None
        assert reopened.stats.corrupt_records == 0
        assert reopened.verify()["clean"]

    def test_unserializable_payload_is_counted(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        assert store.put("k", {"v": object()}) is False
        assert store.stats.write_errors == 1
        assert store.put("k", {"v": 1})  # nothing half-stored
        assert store.get("k") == {"v": 1}

    def test_session_store_write_failures_are_counted(
        self, tmp_path, capsys
    ):
        """A failed store write never fails the evaluation, and is
        counted (and reported once), never swallowed."""
        store = FailingStore(tmp_path / "s")
        session = Session(two_node_system(), store=store)
        first = session.evaluate(two_node_config())
        second = session.evaluate(two_node_config(capacity=16))
        assert first.feasible and second.feasible
        assert session.cache_info().store_writes == 0
        assert store.stats.write_errors == 2
        err = capsys.readouterr().err
        assert err.count("No space left on device") == 1

    def test_session_stats_show_failed_writes(self, tmp_path, capsys):
        """``cache_info()`` and the ``--stats`` payload carry the
        session's failed store writes beside its successful ones."""
        from repro.cli import _session_stats_payload

        store = FailingStore(tmp_path / "s")
        session = Session(two_node_system(), store=store)
        session.evaluate(two_node_config())
        session.evaluate(two_node_config(capacity=16))
        info = session.cache_info()
        assert (info.store_writes, info.store_write_errors) == (0, 2)
        counters = _session_stats_payload(session)["counters"]
        assert counters["store_write_errors"] == 2
        healthy = Session(two_node_system(), store=tmp_path / "ok")
        healthy.evaluate(two_node_config())
        info = healthy.cache_info()
        assert (info.store_writes, info.store_write_errors) == (1, 0)


class TestSessionStoreTier:
    def test_cross_session_results_bit_identical(self, tmp_path):
        """ISSUE acceptance: two Sessions sharing a store directory see
        each other's results bit-identically (RunResult round trip)."""
        root = tmp_path / "store"
        first = Session(two_node_system(), store=root)
        run_a = first.evaluate(two_node_config())
        assert first.cache_info().store_writes == 1

        second = Session(two_node_system(), store=root)
        run_b = second.evaluate(two_node_config())
        info = second.cache_info()
        assert second.backend_calls == 0
        assert info.store_hits == 1
        assert run_result_to_dict(run_b) == run_result_to_dict(run_a)
        # The hit re-homes the synthesized offsets like a memory hit.
        assert run_b.config.offsets is not None

    def test_store_hit_promotes_to_memory_tier(self, tmp_path):
        root = tmp_path / "store"
        Session(two_node_system(), store=root).evaluate(two_node_config())
        session = Session(two_node_system(), store=root)
        session.evaluate(two_node_config())
        session.evaluate(two_node_config())
        info = session.cache_info()
        assert info.store_hits == 1  # disk read exactly once
        assert info.hits == 1

    def test_evaluate_many_consults_store(self, tmp_path):
        root = tmp_path / "store"
        configs = [two_node_config(), two_node_config(capacity=16)]
        Session(two_node_system(), store=root).evaluate_many(configs)
        session = Session(two_node_system(), store=root)
        runs = session.evaluate_many(
            [two_node_config(), two_node_config(capacity=16)]
        )
        assert session.backend_calls == 0
        assert session.cache_info().store_hits == 2
        assert all(run.feasible for run in runs)

    def test_warm_store_simulate_keeps_sim_template_cache(self, tmp_path):
        """A store-served analysis record (no rich payload) is refreshed
        once, so repeated simulations still compile one SimContext and
        reuse it — attaching a store must not degrade the hot path."""
        root = tmp_path / "store"
        Session(two_node_system(), store=root).evaluate(two_node_config())

        session = Session(two_node_system(), store=root)
        config = two_node_config()
        session.simulate(config, periods=2)
        # One refresh recompute of the analysis + one simulation run.
        assert session.backend_calls == 2
        session.simulate(config.copy(), periods=3)  # new periods value
        info = session.cache_info()
        assert info.sim_compiles == 1
        assert info.sim_reuses == 1
        assert session.backend_calls == 3  # only the new simulation ran

    def test_simulation_results_ride_the_store(self, tmp_path):
        root = tmp_path / "store"
        first = Session(two_node_system(), store=root)
        sim_a = first.simulate(two_node_config(), periods=2)
        second = Session(two_node_system(), store=root)
        sim_b = second.simulate(two_node_config(), periods=2)
        # Both the analysis pass and the simulation came from the store.
        assert second.backend_calls == 0
        assert second.cache_info().store_hits == 2
        assert run_result_to_dict(sim_b) == run_result_to_dict(sim_a)

    def test_clear_cache_keeps_store_by_default(self, tmp_path):
        """ISSUE satellite: optimizer loops must not wipe the store."""
        root = tmp_path / "store"
        session = Session(two_node_system(), store=root)
        session.evaluate(two_node_config())
        session.clear_cache()
        assert session.cache_info().size == 0
        session.evaluate(two_node_config())
        assert session.backend_calls == 1  # served from disk, not compute
        assert session.cache_info().store_hits == 1

    def test_clear_cache_store_true_clears_both(self, tmp_path):
        root = tmp_path / "store"
        session = Session(two_node_system(), store=root)
        session.evaluate(two_node_config())
        session.clear_cache(store=True)
        session.evaluate(two_node_config())
        assert session.backend_calls == 2
        assert session.cache_info().store_hits == 0

    def test_corrupt_tail_degrades_to_recompute_and_repair(self, tmp_path):
        """ISSUE acceptance: a truncated tail segment never crashes —
        the session recomputes and re-persists the damaged record."""
        root = tmp_path / "store"
        seeder = Session(two_node_system(), store=root)
        seeder.evaluate(two_node_config())
        seeder.evaluate(two_node_config(capacity=16))
        seeder.store.close()
        # Cut the capacity=16 record mid-line (a torn write / partial
        # copy), wherever its shard put it, leaving the other intact.
        marker = config_hash(two_node_config(capacity=16)).encode()
        segment = next(
            p for p in _segments(root) if marker in p.read_bytes()
        )
        lines = segment.read_bytes().splitlines(keepends=True)
        target = next(line for line in lines if marker in line)
        intact_lines = [line for line in lines if marker not in line]
        segment.write_bytes(
            b"".join(intact_lines) + target[: len(target) // 2]
        )

        session = Session(two_node_system(), store=root)
        intact = session.evaluate(two_node_config())
        assert intact.feasible and session.backend_calls == 0
        repaired = session.evaluate(two_node_config(capacity=16))
        assert repaired.feasible
        assert session.backend_calls == 1  # recomputed, not crashed
        assert session.cache_info().store_writes == 1  # and re-persisted

        third = Session(two_node_system(), store=root)
        third.evaluate(two_node_config(capacity=16))
        assert third.backend_calls == 0  # repair visible to later sessions

    def test_unstorable_options_stay_memory_only(self, tmp_path):
        root = tmp_path / "store"
        session = Session(two_node_system(), store=root)
        base = session.evaluate(two_node_config())
        writes_before = session.cache_info().store_writes
        session.evaluate(
            two_node_config(),
            backend="simulation",
            periods=2,
            analysis_run=base,
            execution=lambda process, wcet: wcet,  # object-keyed option
        )
        assert session.cache_info().store_writes == writes_before

    def test_provenance_config_hash_stamped(self, tmp_path):
        from repro.optim import evaluate as optim_evaluate

        system = two_node_system()
        session = Session(system, store=tmp_path / "store")
        config = two_node_config()
        run = session.evaluate(config)
        assert run.metadata["config_hash"] == config_hash(config)
        evaluation = optim_evaluate(system, config, session=session)
        assert evaluation.metadata["config_hash"] == config_hash(config)

    def test_miss_refreshes_are_rate_limited(self, tmp_path):
        """An optimizer-style loop of genuine misses must not re-scan
        the segment directory per evaluation."""
        from test_api_session import _config_grid

        session = Session(two_node_system(), store=tmp_path / "store")
        for config in _config_grid(24):
            session.evaluate(config)
        # One scan at open plus at most a couple of throttled refreshes
        # — not one per miss.
        assert session.store.stats.refreshes <= 4
        assert session.cache_info().store_writes == 24

    def test_store_accepts_path_or_instance(self, tmp_path):
        root = tmp_path / "store"
        by_path = Session(two_node_system(), store=str(root))
        assert isinstance(by_path.store, ResultStore)
        by_instance = Session(
            two_node_system(), store=ResultStore(root)
        )
        by_path.evaluate(two_node_config())
        by_instance.evaluate(two_node_config())
        assert by_instance.cache_info().store_hits == 1


class TestStoreVerify:
    """``repro store verify`` (ISSUE 7 satellite): a read-only audit
    that reports damage without mutating the store."""

    def test_clean_store(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for i in range(5):
            store.put(f"k{i}", {"v": i})
        report = store.verify()
        assert report["clean"]
        assert report["records"] == 5 and report["entries"] == 5
        assert report["corrupt_total"] == 0 and report["torn_total"] == 0

    def test_damage_census(self, tmp_path):
        root = tmp_path / "s"
        store = ResultStore(root)
        store.put("good", {"v": 1})
        store.close()
        segment = _segments(root)[0]
        bad = {"key": "bad", "kind": "runresult", "payload": {"v": 9},
               "sha": "0" * 16, "v": 1}
        with open(segment, "ab") as handle:
            handle.write(b"not json at all\n")
            handle.write((json.dumps(bad) + "\n").encode())
            handle.write(b'{"key": "torn')  # no newline: torn tail
        before = segment.read_bytes()

        report = ResultStore(root).verify()
        assert not report["clean"]
        assert report["corrupt_total"] == 2
        reasons = {c["reason"] for c in report["corrupt"]}
        assert reasons == {"unparsable", "checksum-mismatch"}
        assert report["torn_total"] == 1
        assert report["torn"][0]["path"].endswith(segment.name)
        # Verification mutated nothing: same bytes, store still serves.
        assert segment.read_bytes() == before
        assert ResultStore(root).get("good") == {"v": 1}

    def test_verify_covers_sharded_layout(self, tmp_path):
        root = tmp_path / "s"
        store = ResultStore(root, shard_prefix=1)
        for i in range(8):
            store.put(f"k{i}", {"v": i})
        report = store.verify()
        assert report["clean"]
        assert report["layout"] == "sharded"
        assert report["records"] == 8
        assert report["shards"] >= 1

    def test_misplaced_record_detected(self, tmp_path):
        root = tmp_path / "s"
        store = ResultStore(root, shard_prefix=1)
        store.put("k-home", {"v": 1})
        store.close()
        # Re-home a valid record into a foreign shard directory.
        segment = _segments(root)[0]
        wrong = next(
            d for d in "0123456789abcdef"
            if d != segment.parent.name
        )
        foreign = root / "shards" / wrong
        foreign.mkdir(parents=True, exist_ok=True)
        (foreign / segment.name).write_bytes(segment.read_bytes())
        report = ResultStore(root).verify()
        assert not report["clean"]
        assert report["misplaced"] == 1

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        root = tmp_path / "s"
        store = ResultStore(root)
        store.put("k", {"v": 1})
        store.close()
        assert cli_main(["store", "verify", str(root)]) == 0
        out = capsys.readouterr().out
        assert "CLEAN" in out
        with open(_segments(root)[0], "ab") as handle:
            handle.write(b"garbage line\n")
        assert cli_main(
            ["store", "verify", str(root), "--format", "json"]
        ) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["corrupt_total"] == 1
