"""Tests for the sharded store layout (ISSUE 6).

Covers the shard geometry (records live in the directory named by their
key prefix), the migration of pre-shard flat stores (opening an old
directory moves its records into shards — proven against a hand-crafted
PR-5 fixture, not a library-made one — also with two processes opening
it at once), grace-window compaction next to live writers, and the
multi-process concurrent-writer stress test from the ISSUE: N processes
``put()`` simultaneously, the merged index sees every record exactly
once with checksums intact, and ``compact()`` on a live-written shard
never loses a committed record.
"""

import errno
import hashlib
import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.exceptions import StoreError
from repro.store import (
    DEFAULT_SHARD_PREFIX,
    SCHEMA_VERSION,
    STORE_FORMAT,
    ResultStore,
    shard_of,
)


def _hex_key(n):
    """A deterministic sha256-style (hex) key, like real store keys."""
    return hashlib.sha256(f"key-{n}".encode()).hexdigest()


class TestShardGeometry:
    def test_new_store_is_sharded(self, tmp_path):
        root = tmp_path / "s"
        store = ResultStore(root)
        assert store.layout == "sharded"
        meta = json.loads((root / "store.json").read_text())
        assert meta["layout"] == "sharded"
        assert meta["shard_prefix"] == DEFAULT_SHARD_PREFIX
        assert (root / "shards").is_dir()

    def test_hex_keys_shard_by_prefix(self, tmp_path):
        root = tmp_path / "s"
        store = ResultStore(root)
        key = "ab" * 32
        store.put(key, {"v": 1})
        assert shard_of(key) == "a"
        segments = list((root / "shards" / "a").glob("*.jsonl"))
        assert len(segments) == 1
        assert store.get(key) == {"v": 1}

    def test_non_hex_keys_are_rehashed_into_a_shard(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("not-hex-at-all", {"v": 1})
        shard = shard_of("not-hex-at-all")
        assert len(shard) == DEFAULT_SHARD_PREFIX
        assert int(shard, 16) >= 0  # a real hex shard name
        assert store.get("not-hex-at-all") == {"v": 1}

    def test_one_writer_segment_per_touched_shard(self, tmp_path):
        root = tmp_path / "s"
        store = ResultStore(root)
        keys = [_hex_key(n) for n in range(32)]
        for n, key in enumerate(keys):
            store.put(key, {"v": n})
        shards = {shard_of(k) for k in keys}
        assert len(shards) > 1  # the point of the test
        for shard in shards:
            segments = list((root / "shards" / shard).glob("*.jsonl"))
            assert len(segments) == 1  # one writer -> one segment/shard
        for n, key in enumerate(keys):
            assert store.get(key) == {"v": n}

    def test_shard_stats(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        keys = [_hex_key(n) for n in range(16)]
        for key in keys:
            store.put(key, {"v": key})
        per_shard = store.shard_stats()
        assert set(per_shard) == {shard_of(k) for k in keys}
        assert sum(s["entries"] for s in per_shard.values()) == 16
        assert all(s["segments"] == 1 for s in per_shard.values())
        assert all(s["bytes"] > 0 for s in per_shard.values())
        store.refresh()
        assert store.stats.shards == len(per_shard)

    def test_point_lookup_scans_only_the_keys_shard(self, tmp_path):
        """get() on a sharded store refreshes one shard, not the store."""
        root = tmp_path / "s"
        writer = ResultStore(root)
        reader = ResultStore(root)
        key = "ab" * 32
        writer.put(key, {"v": 1})
        writer.put("cd" * 32, {"v": 2})  # a different shard
        scanned_before = set(reader._scanned)
        assert reader.get(key) == {"v": 1}
        touched = set(reader._scanned) - scanned_before
        assert all(p.parent.name == "a" for p in touched)


class TestFlatLayoutShim:
    """A pre-shard (PR 5) store is migrated into shards when opened."""

    @staticmethod
    def _make_pr5_fixture(root, count=6):
        """Hand-craft a pre-shard store directory, byte-for-byte what
        the PR 5 library wrote: no layout key in the meta, one segment
        file under segments/."""
        root.mkdir(parents=True)
        (root / "store.json").write_text(
            json.dumps(
                {"format": STORE_FORMAT, "version": SCHEMA_VERSION},
                sort_keys=True, separators=(",", ":"),
            ) + "\n"
        )
        segdir = root / "segments"
        segdir.mkdir()
        keys = []
        with open(segdir / "segment-123-deadbeef.jsonl", "w") as handle:
            for n in range(count):
                key = _hex_key(n)
                payload = {"v": n}
                canonical = json.dumps(
                    payload, sort_keys=True, separators=(",", ":")
                )
                sha = hashlib.sha256(canonical.encode()).hexdigest()[:16]
                record = {"key": key, "kind": "runresult",
                          "payload": payload, "sha": sha, "v": 1}
                handle.write(json.dumps(record, sort_keys=True,
                                        separators=(",", ":")) + "\n")
                keys.append(key)
        return keys

    def test_pre_shard_store_reads_transparently(self, tmp_path):
        root = tmp_path / "old"
        keys = self._make_pr5_fixture(root)
        store = ResultStore(root)
        for n, key in enumerate(keys):
            assert store.get(key) == {"v": n}
        # The open migrated it: records in their shards, the sharded
        # meta written, the flat segments gone.
        assert store.migrated and store.layout == "sharded"
        meta = json.loads((root / "store.json").read_text())
        assert meta["layout"] == "sharded"
        assert not (root / "segments").exists()
        for key in keys:
            assert list((root / "shards" / shard_of(key)).glob("*.jsonl"))
        store.put("extra", {"v": "x"})
        reopened = ResultStore(root)
        assert not reopened.migrated
        assert len(reopened) == len(keys) + 1

    def test_failed_migration_leaves_the_flat_store_intact(self, tmp_path):
        """A copy that fails (here: every append, as on read-only media)
        raises StoreError naming the CLI fix, and touches neither the
        flat segments nor the meta file."""

        class FailingStore(ResultStore):
            def _ensure_writer(self, shard):
                raise OSError(errno.EROFS, "Read-only file system")

        root = tmp_path / "old"
        keys = self._make_pr5_fixture(root)
        meta_before = (root / "store.json").read_bytes()
        segment = root / "segments" / "segment-123-deadbeef.jsonl"
        segment_before = segment.read_bytes()
        with pytest.raises(StoreError, match="repro store migrate"):
            FailingStore(root)
        assert (root / "store.json").read_bytes() == meta_before
        assert segment.read_bytes() == segment_before
        store = ResultStore(root)  # a later, working open migrates it
        assert all(store.get(key) == {"v": n} for n, key in enumerate(keys))

    def test_two_processes_opening_one_old_store(self, tmp_path):
        """Two processes migrate one pre-shard store at once: every
        record survives, none corrupt or misplaced."""
        root = tmp_path / "old"
        keys = self._make_pr5_fixture(root, count=200)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_opener_process, args=(root, barrier))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        store = ResultStore(root)
        assert not store.migrated
        for n, key in enumerate(keys):
            assert store.get(key) == {"v": n}
        report = store.verify()
        assert report["corrupt_total"] == 0
        assert report["misplaced"] == 0
        assert report["entries"] == len(keys)
        assert not (root / "segments").exists()

    def test_migrate_rewrites_into_shards(self, tmp_path):
        root = tmp_path / "old"
        keys = self._make_pr5_fixture(root, count=8)
        store = ResultStore(root)
        assert store.migrate() == 8
        assert store.layout == "sharded"
        meta = json.loads((root / "store.json").read_text())
        assert meta["layout"] == "sharded"
        assert not (root / "segments").exists()  # emptied and removed
        for n, key in enumerate(keys):
            assert store.get(key) == {"v": n}
            shard_dir = root / "shards" / shard_of(key)
            assert list(shard_dir.glob("*.jsonl"))
        # A fresh open sees the sharded store and all its records.
        reopened = ResultStore(root)
        assert reopened.layout == "sharded"
        assert len(reopened) == 8

    def test_migrate_is_idempotent(self, tmp_path):
        root = tmp_path / "old"
        self._make_pr5_fixture(root, count=4)
        store = ResultStore(root)
        assert store.migrate() == 4
        assert store.migrate() == 4  # already sharded: a no-op compact
        assert len(ResultStore(root)) == 4


class TestCompactGrace:
    def test_grace_window_protects_recent_segments(self, tmp_path):
        root = tmp_path / "s"
        writer = ResultStore(root)
        for n in range(6):
            writer.put(_hex_key(n), {"v": n})
        compactor = ResultStore(root)
        # Every segment was just written: all inside the grace window,
        # so nothing is rewritten or unlinked.
        before = sorted(str(p) for p in root.glob("shards/*/*.jsonl"))
        assert compactor.compact(grace_s=3600.0) == 6
        after = sorted(str(p) for p in root.glob("shards/*/*.jsonl"))
        assert after == before
        # The live writer keeps appending to its (untouched) segments.
        for n in range(6, 12):
            writer.put(_hex_key(n), {"v": n})
        compactor.refresh()
        assert all(
            compactor.get(_hex_key(n)) == {"v": n} for n in range(12)
        )

    def test_grace_zero_folds_everything(self, tmp_path):
        root = tmp_path / "s"
        for n in range(4):  # four writers, then a cold compaction
            ResultStore(root).put(_hex_key(n), {"v": n})
        store = ResultStore(root)
        assert store.compact() == 4
        for shard_dir in (root / "shards").iterdir():
            segments = list(shard_dir.glob("*.jsonl"))
            if segments:
                assert len(segments) == 1

    def test_grace_protected_records_exempt_from_eviction(self, tmp_path):
        root = tmp_path / "s"
        old = ResultStore(root)
        old.put("aged", {"v": "old"})
        old.close()
        for path in root.glob("shards/*/*.jsonl"):
            stat = path.stat()
            os.utime(path, (stat.st_atime, stat.st_mtime - 7200))
        fresh = ResultStore(root)
        for n in range(4):
            fresh.put(_hex_key(n), {"v": n})
        store = ResultStore(root)
        # Limit below the protected population: protected records stay,
        # the unprotected old one is evicted.
        store.compact(max_entries=2, grace_s=3600.0)
        assert store.get("aged") is None
        assert all(store.get(_hex_key(n)) == {"v": n} for n in range(4))


def _opener_process(root, barrier):
    """Child: open (and so migrate) a store at a shared start."""
    barrier.wait()
    ResultStore(root).close()


def _writer_process(root, writer_id, count, barrier):
    """Child: put `count` records as fast as possible (shared start)."""
    store = ResultStore(root)
    barrier.wait()
    for n in range(count):
        key = hashlib.sha256(f"w{writer_id}-{n}".encode()).hexdigest()
        store.put(key, {"writer": writer_id, "n": n})
    store.close()


def _churn_process(root, stop_path, done_path):
    """Child: keep appending until told to stop; record what committed."""
    store = ResultStore(root)
    written = []
    n = 0
    while not Path(stop_path).exists():
        key = hashlib.sha256(f"churn-{n}".encode()).hexdigest()
        store.put(key, {"n": n})
        written.append(key)
        n += 1
        time.sleep(0.002)
    store.close()
    Path(done_path).write_text(json.dumps(written))


class TestConcurrentWriters:
    def test_parallel_puts_merge_exactly_once(self, tmp_path):
        """ISSUE satellite: N processes put() simultaneously; the merged
        index sees every record exactly once, checksums intact."""
        root = tmp_path / "s"
        ResultStore(root).close()  # create the directory up front
        ctx = multiprocessing.get_context("fork")
        writers, count = 4, 25
        barrier = ctx.Barrier(writers)
        procs = [
            ctx.Process(
                target=_writer_process, args=(root, w, count, barrier)
            )
            for w in range(writers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        store = ResultStore(root)
        assert len(store) == writers * count
        assert store.stats.corrupt_records == 0
        for w in range(writers):
            for n in range(count):
                key = hashlib.sha256(f"w{w}-{n}".encode()).hexdigest()
                assert store.get(key, refresh=False) == {
                    "writer": w, "n": n,
                }
        # Each key is indexed exactly once per (kind, key): a second
        # full scan from scratch agrees.
        again = ResultStore(root)
        assert len(again) == writers * count
        # And a cold compaction folds all writer segments losslessly.
        assert store.compact() == writers * count

    def test_compact_during_live_writes_loses_nothing(self, tmp_path):
        """ISSUE satellite: compact() on a live-written shard never
        loses a committed record (grace-window compaction)."""
        root = tmp_path / "s"
        ResultStore(root).close()
        stop_path = tmp_path / "stop"
        done_path = tmp_path / "done"
        ctx = multiprocessing.get_context("fork")
        churn = ctx.Process(
            target=_churn_process, args=(root, str(stop_path), str(done_path))
        )
        churn.start()
        try:
            compactor = ResultStore(root)
            deadline = time.time() + 2.0
            while time.time() < deadline:
                compactor.compact(grace_s=60.0)
                time.sleep(0.05)
        finally:
            stop_path.write_text("")
            churn.join(timeout=60)
        assert churn.exitcode == 0
        committed = json.loads(done_path.read_text())
        assert committed  # the child actually wrote something
        verify = ResultStore(root)
        missing = [k for k in committed if verify.get(k) is None]
        assert missing == []
        assert verify.stats.corrupt_records == 0
