"""The on-disk result store: sharded JSON-lines segments + a derived
index.

Layout of a store directory::

    <root>/store.json                 # format + schema + shard geometry
    <root>/shards/<p>/segment-*.jsonl # append-only logs, one dir per
                                      # store-key prefix ``p``

A directory written before sharding (a meta file without a ``layout``
key, records under ``<root>/segments/``) is migrated into shards when
it is opened; those flat segments are read by that migration only.

Every record is one JSON line::

    {"key": <content hash>, "kind": "runresult", "payload": {...},
     "sha": <sha256 of the canonical payload>, "v": 1}

Design points (all stdlib):

* **Content-addressed.** Records are keyed by a caller-supplied content
  hash (e.g. the :func:`repro.api.session.config_hash` of the evaluated
  configuration folded with the backend name and options).  The payload
  carries its own checksum, so a record is verifiable in isolation.
* **Sharded.** A record lives in the shard named by the first
  ``shard_prefix`` hex characters of its key (keys that are not hex are
  re-hashed first), so the segment population of one directory grows
  with ``entries / 16**shard_prefix`` rather than with the whole store:
  index rebuilds, point lookups (:meth:`get` re-scans only the missing
  key's shard) and :meth:`compact` all operate per shard.  This is what
  lets one directory survive service-scale volume.
* **Append-only, multi-writer.** Each :class:`ResultStore` instance
  appends to its *own* segment file per shard (named with pid + random
  suffix), so concurrent writers never interleave bytes — within a
  shard or across shards.  Readers index the segments and pick up
  concurrently appended records via :meth:`ResultStore.refresh`.
* **Atomic, corruption-tolerant.** A record becomes visible only once
  its full line (terminated by ``\\n``) is on disk.  A truncated tail —
  a writer killed mid-append, a torn copy — is simply not indexed (and
  re-examined on the next refresh, in case a live writer finishes the
  line); a complete line that fails to parse or whose checksum
  mismatches is counted in :attr:`StoreStats.corrupt_records` and
  skipped.  Reads never raise on bad data: the caller recomputes, the
  store re-appends, and :meth:`compact` drops the damage for good.
* **One write-failure policy.** :meth:`ResultStore.put` never raises on
  a failed write (a full disk, an unserializable payload): it counts
  the failure in :attr:`StoreStats.write_errors`, reports the
  instance's first one on stderr and returns False, so the result just
  stays uncached.  A failed append cuts its torn bytes off and retires
  its writer segment; the next put starts a fresh one.
* **Eviction/compaction.** :meth:`compact` rewrites the live records of
  every shard into one fresh segment per shard (newest-first retention
  when ``max_entries`` bounds it) and deletes the old segments.
  Plain compaction is a maintenance operation — run it while no other
  process writes the directory.  ``grace_s > 0`` adds a *grace window*
  for service-mode compaction next to live writers: segments whose
  mtime falls inside the window are left untouched (their records stay
  where they are), so a writer actively appending to a shard never has
  a segment unlinked under it and no committed record is lost.

The index is derived state: it is rebuilt by scanning the segments, so
the segment files are the only source of truth and the store needs no
write-ahead log or lock file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..exceptions import StoreError
from ..obs import metrics as _obs_metrics
from ..obs import state as _obs_state
from ..obs import trace as _obs_trace

__all__ = [
    "DEFAULT_SHARD_PREFIX",
    "SCHEMA_VERSION",
    "STORE_FORMAT",
    "ResultStore",
    "StoreStats",
    "content_key",
    "shard_of",
]

#: Format tag written into ``store.json`` and refused when unknown.
STORE_FORMAT = "repro-store-v1"
#: Schema version of the record lines; bump on incompatible changes.
SCHEMA_VERSION = 1
#: Hex characters of the store key that name a record's shard
#: (1 -> 16 shards, 2 -> 256).
DEFAULT_SHARD_PREFIX = 1

_META_NAME = "store.json"
_FLAT_DIR = "segments"  # pre-shard records, read by the migration
_SHARD_DIR = "shards"
_HEX = set("0123456789abcdef")
#: Most writer segment handles kept open at once (one per touched
#: shard); the oldest is closed beyond this and reopens as a new
#: segment on the next put into that shard.
_MAX_OPEN_WRITERS = 16


def _canonical(payload: Any) -> str:
    """Canonical JSON used for hashing (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_key(payload: Any) -> str:
    """Stable content hash of a JSON-compatible value (sha256 hex)."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def _payload_sha(payload: Any) -> str:
    # 16 hex chars: integrity check, not a security boundary.
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()[:16]


@contextlib.contextmanager
def _observed(op: str, kind: str) -> Iterator[None]:
    """Span and latency histogram of one store operation (obs on)."""
    started = time.perf_counter()
    with _obs_trace.span(f"store.{op}", kind=kind):
        yield
    _obs_metrics.observe(
        "repro_store_op_seconds", time.perf_counter() - started,
        (("op", op),),
    )


def _record_line(key: str, payload: Any, kind: str) -> bytes:
    """One record as its terminated JSON line."""
    record = {
        "key": key,
        "kind": kind,
        "payload": payload,
        "sha": _payload_sha(payload),
        "v": SCHEMA_VERSION,
    }
    return (_canonical(record) + "\n").encode("utf-8")


def _decode(line: bytes) -> Union[Dict[str, Any], str]:
    """The record on one complete line, or why the line is damaged."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return "unparsable"
    if not isinstance(record, dict):
        return "not-a-record"
    if not isinstance(record.get("key"), str) or not isinstance(
        record.get("kind"), str
    ):
        return "missing-key-or-kind"
    if record.get("v", 0) > SCHEMA_VERSION:
        return "newer-schema"
    if record.get("sha") != _payload_sha(record.get("payload")):
        return "checksum-mismatch"
    return record


def shard_of(key: str, prefix_len: int = DEFAULT_SHARD_PREFIX) -> str:
    """The shard name of a store key: its first ``prefix_len`` hex chars.

    Keys produced by :func:`content_key` / :func:`repro.api.store_key`
    are sha256 hex, so their prefix is uniformly distributed.  An
    arbitrary (non-hex) key is re-hashed so every key has a shard.
    """
    prefix = key[:prefix_len].lower()
    if len(prefix) == prefix_len and all(c in _HEX for c in prefix):
        return prefix
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:prefix_len]


@dataclass
class StoreStats:
    """Observable counters of one :class:`ResultStore` instance."""

    entries: int = 0
    segments: int = 0
    shards: int = 0
    puts: int = 0
    put_dupes: int = 0
    corrupt_records: int = 0
    refreshes: int = 0
    compactions: int = 0
    #: Puts that failed to write (see :meth:`ResultStore.put`).
    write_errors: int = 0


@dataclass
class _Entry:
    """Index record: where a (kind, key) lives on disk."""

    path: Path
    offset: int
    length: int


class ResultStore:
    """A content-addressed, append-only result store (see module docs).

    Parameters
    ----------
    root:
        Store directory; created (with its meta file) when missing, and
        migrated into shards when it holds a pre-shard store.
    fsync:
        Force every appended record to disk with ``os.fsync``.  Off by
        default: each record is written with one unbuffered ``write``,
        so a crashed process loses at most its final record, which the
        corruption-tolerant reader treats as absent.
    shard_prefix:
        Shard-name length in hex characters for new and pre-shard stores
        (1 -> 16 shards, 2 -> 256); a sharded store keeps the geometry
        recorded in its meta file.
    """

    #: The one on-disk layout (reported by ``repro store stats`` and
    #: :meth:`verify`).
    layout = "sharded"

    def __init__(
        self,
        root: Union[str, Path],
        fsync: bool = False,
        shard_prefix: int = DEFAULT_SHARD_PREFIX,
    ) -> None:
        self.root = Path(root)
        self.fsync = fsync
        self.shard_prefix = shard_prefix
        self.stats = StoreStats()
        #: Whether opening migrated a pre-shard store into shards.
        self.migrated = False
        self._index: Dict[Tuple[str, str], _Entry] = {}
        #: Bytes of each segment already scanned into the index.
        self._scanned: Dict[Path, int] = {}
        #: Open writer segments (unbuffered), one per shard, in open
        #: order (the eldest closes first).
        self._writers: Dict[str, Tuple[Path, Any]] = {}
        self._open()

    # -- lifecycle -----------------------------------------------------------

    def _open(self) -> None:
        meta_path = self.root / _META_NAME
        if not meta_path.exists():
            self.root.mkdir(parents=True, exist_ok=True)
            self._write_meta()
        else:
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError) as exc:
                raise StoreError(
                    f"unreadable store meta file {meta_path}: {exc}"
                ) from exc
            if meta.get("format") != STORE_FORMAT:
                raise StoreError(
                    f"{meta_path} is not a {STORE_FORMAT} store "
                    f"(found {meta.get('format')!r})"
                )
            if meta.get("version", 0) > SCHEMA_VERSION:
                raise StoreError(
                    f"store schema version {meta.get('version')} is newer "
                    f"than this library understands ({SCHEMA_VERSION}); "
                    "refusing to read it"
                )
            self.shard_prefix = meta.get("shard_prefix", self.shard_prefix)
            if meta.get("layout") != self.layout:
                self._migrate_flat()
                return
        (self.root / _SHARD_DIR).mkdir(exist_ok=True)
        self.refresh()

    def _migrate_flat(self) -> None:
        """Move a pre-shard store's records into their shards.

        Each record of the flat segments is appended to its shard
        through the normal append path; then the meta file is rewritten
        atomically, and only then are the flat segments unlinked.  No
        shard segment is ever unlinked, so two processes opening one old
        store at once lose no record (at worst one is appended twice,
        which compaction folds away).  A failed copy raises
        :class:`StoreError` and leaves the flat segments and the meta
        file as they were.
        """
        flat_dir = self.root / _FLAT_DIR
        try:
            flat = sorted(flat_dir.glob("*.jsonl"))
            (self.root / _SHARD_DIR).mkdir(exist_ok=True)
            self.refresh()  # copies left by an interrupted migration
            for path in flat:
                try:
                    data = path.read_bytes()
                except FileNotFoundError:
                    continue  # another opener finished the migration
                for line in data.split(b"\n")[:-1]:
                    record = _decode(line)
                    if isinstance(record, dict) and not self.contains(
                        record["key"], record["kind"]
                    ):
                        self._append(
                            record["key"], record["payload"], record["kind"]
                        )
            self._write_meta()
        except OSError as exc:
            self.close()
            raise StoreError(
                f"cannot migrate the pre-shard store {self.root} into "
                f"shards ({exc}); run `repro store migrate {self.root}` "
                "where the directory is writable"
            ) from exc
        for path in flat:
            with contextlib.suppress(OSError):
                path.unlink()
        with contextlib.suppress(OSError):
            flat_dir.rmdir()  # only when emptied
        self.migrated = True
        self.refresh()

    def _write_meta(self) -> None:
        meta = {
            "format": STORE_FORMAT, "version": SCHEMA_VERSION,
            "layout": self.layout, "shard_prefix": self.shard_prefix,
        }
        meta_path = self.root / _META_NAME
        # A private temporary name: concurrent openers never write into
        # each other's file, and the rename is atomic.
        tmp = meta_path.with_name(
            f"{_META_NAME}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
        )
        tmp.write_text(_canonical(meta) + "\n")
        os.replace(tmp, meta_path)

    def close(self) -> None:
        """Close the writer segments (further puts reopen new ones)."""
        for shard in list(self._writers):
            self._retire(shard)

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return (
            f"ResultStore({str(self.root)!r}, "
            f"entries={len(self._index)}, segments={len(self._scanned)})"
        )

    # -- shard geometry ------------------------------------------------------

    def _shard_dir(self, shard: str) -> Path:
        return self.root / _SHARD_DIR / shard

    def _segment_paths(self, key: Optional[str] = None) -> List[Path]:
        """Existing segment files — all of them, or one key's shard."""
        shard = "*" if key is None else shard_of(key, self.shard_prefix)
        return sorted((self.root / _SHARD_DIR).glob(f"{shard}/*.jsonl"))

    def shard_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-shard entry/segment/byte counts of the indexed state."""
        out: Dict[str, Dict[str, int]] = {}

        def bucket(path: Path) -> Dict[str, int]:
            return out.setdefault(
                path.parent.name, {"entries": 0, "segments": 0, "bytes": 0}
            )

        for entry in self._index.values():
            bucket(entry.path)["entries"] += 1
        for path in self._scanned:
            info = bucket(path)
            info["segments"] += 1
            with contextlib.suppress(OSError):
                info["bytes"] += path.stat().st_size
        return dict(sorted(out.items()))

    # -- reading -------------------------------------------------------------

    def refresh(self, key: Optional[str] = None) -> int:
        """Index records appended since the last scan; returns how many.

        Picks up both new bytes in known segments and whole new segments
        (other processes' writers).  Only complete, checksum-valid lines
        enter the index; an unterminated tail is left for a later
        refresh so a concurrently flushing writer is never mis-read.

        With ``key`` given, only that key's shard directory is
        re-scanned — the point-lookup path stays O(shard), not O(store).
        """
        self.stats.refreshes += 1
        added = 0
        try:
            segment_paths = self._segment_paths(key)
        except OSError:
            return 0
        for path in segment_paths:
            added += self._scan_segment(path)
        if key is None:
            self.stats.segments = len(segment_paths)
            self.stats.shards = len({p.parent for p in segment_paths})
        self.stats.entries = len(self._index)
        return added

    def _scan_segment(self, path: Path) -> int:
        offset = self._scanned.get(path, 0)
        try:
            size = path.stat().st_size
        except OSError:
            # Segment vanished (another process compacted): forget it.
            self._scanned.pop(path, None)
            return 0
        if size <= offset:
            return 0
        added = 0
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read(size - offset)
        except OSError:
            return 0
        position = offset
        for line in data.split(b"\n")[:-1]:  # last piece: tail after final \n
            length = len(line) + 1
            record = _decode(line)
            if isinstance(record, dict):
                index_key = (record["kind"], record["key"])
                if index_key not in self._index:
                    added += 1
                    self._index[index_key] = _Entry(path, position, length)
            else:
                self.stats.corrupt_records += 1
            position += length
        # Everything up to the last newline is settled; an unterminated
        # tail (position < size) stays unscanned and is retried later.
        self._scanned[path] = position
        return added

    def contains(self, key: str, kind: str = "runresult") -> bool:
        """Whether a record is indexed (no implicit refresh)."""
        return (kind, key) in self._index

    def get(
        self, key: str, kind: str = "runresult", refresh: bool = True
    ) -> Optional[Any]:
        """The stored payload for ``(kind, key)``, or ``None``.

        On an index miss the store re-scans the key's shard first
        (other processes may have appended since), unless
        ``refresh=False`` — batch callers refresh once and then probe
        many keys cheaply.  A record that can no longer be read back
        (deleted segment, bit rot under the checksum) degrades to a
        miss, never an error.
        """
        if not _obs_state.enabled:
            return self._get_impl(key, kind, refresh)
        with _observed("get", kind):
            payload = self._get_impl(key, kind, refresh)
        _obs_metrics.inc(
            "repro_store_gets_total",
            (("outcome", "hit" if payload is not None else "miss"),),
        )
        return payload

    def _get_impl(
        self, key: str, kind: str = "runresult", refresh: bool = True
    ) -> Optional[Any]:
        entry = self._index.get((kind, key))
        if entry is None and refresh:
            self.refresh(key=key)
            entry = self._index.get((kind, key))
        if entry is None:
            return None
        try:
            with open(entry.path, "rb") as handle:
                handle.seek(entry.offset)
                line = handle.read(entry.length)
        except OSError:
            self._index.pop((kind, key), None)
            return None
        record = _decode(line.rstrip(b"\n"))
        if (
            isinstance(record, str)
            or record["key"] != key or record["kind"] != kind
        ):
            self.stats.corrupt_records += 1
            self._index.pop((kind, key), None)
            return None
        return record["payload"]

    def keys(self, kind: Optional[str] = None) -> Iterator[str]:
        """Indexed keys, optionally filtered by record kind."""
        for record_kind, key in self._index:
            if kind is None or record_kind == kind:
                yield key

    # -- writing -------------------------------------------------------------

    def put(
        self, key: str, payload: Any, kind: str = "runresult"
    ) -> bool:
        """Append one record; returns whether it was stored.

        False means the key is already present (counted in
        ``stats.put_dupes``) or the write failed (counted in
        ``stats.write_errors``): a full disk, an I/O error or a payload
        that is not JSON.  A failure never raises — the caller's result
        just stays uncached — and the instance's first one is reported
        on stderr with its cause.

        The duplicate check consults the local index only (call
        :meth:`refresh` first to also dedupe against concurrent
        writers); a lost race merely appends an identical record, which
        compaction later folds away.  The line is written before the
        index is updated, so a key this method reported stored is
        durable up to OS buffering (pass ``fsync=True`` for crash-hard
        durability).
        """
        if not _obs_state.enabled:
            return self._put_impl(key, payload, kind)
        with _observed("put", kind):
            stored = self._put_impl(key, payload, kind)
        _obs_metrics.inc("repro_store_puts_total")
        return stored

    def _put_impl(self, key: str, payload: Any, kind: str) -> bool:
        if (kind, key) in self._index:
            self.stats.put_dupes += 1
            return False
        try:
            self._append(key, payload, kind)
        except (OSError, TypeError, ValueError) as exc:
            self.stats.write_errors += 1
            if self.stats.write_errors == 1:
                print(
                    f"repro: store {self.root}: write of {kind} {key} "
                    f"failed ({type(exc).__name__}: {exc}); results stay "
                    "uncached, later failures are only counted",
                    file=sys.stderr,
                )
            return False
        self.stats.puts += 1
        self.stats.entries = len(self._index)
        return True

    def _append(self, key: str, payload: Any, kind: str) -> None:
        """Write one record line into its shard's writer segment.

        Raises on failure after cutting the segment back to its last
        complete record and retiring it, so no later record is appended
        behind torn bytes.
        """
        line = _record_line(key, payload, kind)
        shard = shard_of(key, self.shard_prefix)
        path, writer = self._ensure_writer(shard)
        offset = writer.tell()
        try:
            written = writer.write(line)
            if written != len(line):
                raise OSError(
                    f"short write to {path}: {written} of {len(line)} bytes"
                )
            if self.fsync:
                os.fsync(writer.fileno())
        except OSError:
            self._retire(shard, truncate_to=offset)
            raise
        self._index[(kind, key)] = _Entry(path, offset, len(line))
        self._scanned[path] = offset + len(line)

    def _ensure_writer(self, shard: str) -> Tuple[Path, Any]:
        entry = self._writers.get(shard)
        if entry is None:
            while len(self._writers) >= _MAX_OPEN_WRITERS:
                self._retire(next(iter(self._writers)))
            directory = self._shard_dir(shard)
            directory.mkdir(parents=True, exist_ok=True)
            suffix = os.urandom(4).hex()
            path = directory / f"segment-{os.getpid()}-{suffix}.jsonl"
            # Unbuffered: one write() per record, nothing held back.
            entry = (path, open(path, "ab", buffering=0))
            self._writers[shard] = entry
            self._scanned.setdefault(path, 0)
        return entry

    def _retire(self, shard: str, truncate_to: Optional[int] = None) -> None:
        """Close a shard's writer segment, first cutting it back to
        ``truncate_to`` bytes when given (the next put opens a new one)."""
        _, handle = self._writers.pop(shard)
        # A torn tail that cannot be cut off stays; readers skip it.
        with contextlib.suppress(OSError):
            if truncate_to is not None:
                handle.truncate(truncate_to)
        with contextlib.suppress(OSError):
            handle.close()

    # -- maintenance ---------------------------------------------------------

    #: Damaged-line samples reported verbatim by :meth:`verify`; the
    #: totals always cover everything.
    _VERIFY_SAMPLE_LIMIT = 20

    def verify(self) -> Dict[str, Any]:
        """Offline integrity audit: every byte of every segment, read-only.

        Re-reads the segment files from scratch — independently of the
        in-memory index, which it neither consults nor updates — and
        checks every complete line against the record schema and its
        payload checksum.  Reports:

        * ``records`` / ``entries`` / ``duplicates`` — complete valid
          lines, distinct ``(kind, key)`` pairs, and redundant appends
          of an already-seen pair (lost put races; harmless, compaction
          folds them away);
        * ``corrupt`` — complete lines that fail to parse, violate the
          record structure, or mismatch their checksum (samples with
          path/offset/reason; ``corrupt_total`` counts all);
        * ``torn`` — unterminated segment tails (a writer killed
          mid-append; invisible to readers but dead bytes on disk);
        * ``misplaced`` — records whose key belongs to a different
          shard directory than the one they live in (point lookups
          would miss them).

        ``clean`` is True when no corrupt line, torn tail or misplaced
        record was found.  The store is not mutated in any way — safe
        on a live directory (a torn tail may simply be a writer that
        has not flushed its newline yet) and on read-only media.
        """
        report: Dict[str, Any] = {
            "root": str(self.root),
            "layout": self.layout,
            "segments": 0,
            "shards": 0,
            "bytes": 0,
            "records": 0,
            "entries": 0,
            "duplicates": 0,
            "corrupt": [],
            "corrupt_total": 0,
            "torn": [],
            "torn_total": 0,
            "misplaced": 0,
            "unreadable": [],
        }
        seen: set = set()
        shards_seen: set = set()
        limit = self._VERIFY_SAMPLE_LIMIT
        for path in self._segment_paths():
            try:
                data = path.read_bytes()
            except OSError as exc:
                report["unreadable"].append(
                    {"path": str(path), "error": str(exc)}
                )
                continue
            report["segments"] += 1
            report["bytes"] += len(data)
            shards_seen.add(path.parent)
            position = 0
            pieces = data.split(b"\n")
            for line in pieces[:-1]:
                length = len(line) + 1
                record = _decode(line)
                if isinstance(record, str):
                    if line.strip():
                        report["corrupt_total"] += 1
                        if len(report["corrupt"]) < limit:
                            report["corrupt"].append({
                                "path": str(path),
                                "offset": position,
                                "length": length,
                                "reason": record,
                            })
                else:
                    report["records"] += 1
                    pair = (record["kind"], record["key"])
                    if pair in seen:
                        report["duplicates"] += 1
                    else:
                        seen.add(pair)
                    if (
                        shard_of(record["key"], self.shard_prefix)
                        != path.parent.name
                    ):
                        report["misplaced"] += 1
                position += length
            tail = pieces[-1]
            if tail:
                report["torn_total"] += 1
                if len(report["torn"]) < limit:
                    report["torn"].append({
                        "path": str(path),
                        "offset": position,
                        "bytes": len(tail),
                    })
        report["entries"] = len(seen)
        report["shards"] = len(shards_seen)
        report["clean"] = (
            report["corrupt_total"] == 0
            and report["torn_total"] == 0
            and report["misplaced"] == 0
            and not report["unreadable"]
        )
        return report

    def compact(
        self,
        max_entries: Optional[int] = None,
        grace_s: float = 0.0,
    ) -> int:
        """Rewrite the live records per shard; returns the live count.

        Drops duplicate appends, corrupt bytes and truncated tails, and
        — when ``max_entries`` is set — the oldest surplus records.  Age
        is approximated by segment modification time (a segment's mtime
        is its last append) and, within a segment, exact append order;
        segment *names* carry no temporal meaning.  Each shard's new segment is published with an
        atomic rename before the old segments are unlinked, so a reader
        never observes an empty store.

        With ``grace_s == 0`` (the default) run while no other process
        writes this directory — compaction unlinks live segments, and a
        concurrent writer appending to an unlinked file would lose its
        records.  ``grace_s > 0`` is the service-mode variant: segments
        modified within the last ``grace_s`` seconds are left exactly
        where they are (not rewritten, not unlinked, exempt from
        eviction), so a writer that keeps appending — its segment mtime
        keeps moving — never loses a committed record to a concurrent
        compaction.
        """
        self.refresh()
        self.close()

        def _mtime(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0

        now = time.time()
        all_segments = self._segment_paths()
        mtimes = {path: _mtime(path) for path in all_segments}
        protected = {
            path for path in all_segments
            if grace_s > 0 and now - mtimes.get(path, 0.0) < grace_s
        }
        ordered = sorted(
            self._index.items(),
            key=lambda item: (
                mtimes.get(item[1].path, 0.0),
                str(item[1].path),
                item[1].offset,
            ),
        )
        live = [item for item in ordered if item[1].path not in protected]
        kept_in_place = len(ordered) - len(live)
        if max_entries is not None:
            budget = max(0, max_entries - kept_in_place)
            if len(live) > budget:
                live = live[len(live) - budget:]
        by_shard: Dict[str, List[Tuple[str, str, Any]]] = {}
        for (kind, key), _ in live:
            payload = self.get(key, kind=kind, refresh=False)
            if payload is not None:
                by_shard.setdefault(
                    shard_of(key, self.shard_prefix), []
                ).append((kind, key, payload))
        compacted_paths = set()
        for shard, records in by_shard.items():
            directory = self._shard_dir(shard)
            directory.mkdir(parents=True, exist_ok=True)
            suffix = os.urandom(4).hex()
            compacted = (
                directory / f"segment-compact-{os.getpid()}-{suffix}.jsonl"
            )
            tmp = compacted.with_suffix(".tmp")
            with open(tmp, "wb") as handle:
                for kind, key, payload in records:
                    handle.write(_record_line(key, payload, kind))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, compacted)
            compacted_paths.add(compacted)
        for path in all_segments:
            if path not in protected and path not in compacted_paths:
                with contextlib.suppress(OSError):
                    path.unlink()
        self._index.clear()
        self._scanned.clear()
        self.stats.corrupt_records = 0
        self.stats.compactions += 1
        self.refresh()
        return len(self._index)

    def migrate(self, shard_prefix: Optional[int] = None) -> int:
        """Re-shard the store: record ``shard_prefix`` (when given) as
        its geometry, then compact every record into its shard.

        Writes the meta file first (atomically).  Returns the live
        record count.  Single-writer: run while no other process writes
        the directory, like :meth:`compact`.  (A pre-shard store needs
        no call: opening it migrates it.)
        """
        if shard_prefix is not None:
            self.shard_prefix = shard_prefix
        self._write_meta()
        return self.compact()

    def clear(self) -> None:
        """Delete every record (the segments); the store stays usable."""
        self.close()
        for path in self._segment_paths():
            with contextlib.suppress(OSError):
                path.unlink()
        self._index.clear()
        self._scanned.clear()
        self.stats.entries = 0
        self.stats.segments = 0
        self.stats.shards = 0
