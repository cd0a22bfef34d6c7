"""The process-safe metrics registry: counters, gauges, histograms.

Recording is **lock-free per process**: every series lives under a
``(name, labels)`` key in a plain dict and updates are single bytecode
read-modify-write operations on floats/ints, which the GIL makes
atomic — no locks on the hot path, and no cross-thread tearing.  The
cross-*process* story is snapshot/merge: a forked ``LocalFleet``
worker or a remote ``repro worker`` calls :meth:`MetricsRegistry.
drain` after each unit (snapshot + reset, so each increment ships
exactly once), sends the snapshot back with the unit result, and the
service folds it with :meth:`MetricsRegistry.merge` into the
service-wide view that ``GET /metrics`` exports.

Naming follows Prometheus convention: ``repro_<subsystem>_<what>``
with ``_total`` for counters and ``_seconds`` for duration
histograms; labels are short identity dimensions (``backend``,
``kind``, ``worker``), never unbounded values.

The module also defines the **unified stats snapshot** schema
(:data:`STATS_FORMAT`, :func:`stats_snapshot`) that ``repro ...
--stats --format json`` emits across analyze/simulate/conform/explore
— one shape (``counters`` / ``timings`` / ``derived``), the only one:
the three historical ad-hoc shapes are gone.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

from . import state

__all__ = [
    "HIST_BOUNDS", "METRICS_FORMAT", "STATS_FORMAT", "MetricsRegistry",
    "registry", "inc", "observe", "set_gauge", "stats_snapshot",
]

#: Format tag stamped on serialized registry snapshots.
METRICS_FORMAT = "repro-metrics-v1"

#: Format tag of the unified ``--stats`` snapshot schema.
STATS_FORMAT = "repro-stats-v1"

#: Shared histogram bucket upper bounds (seconds) — one fixed ladder
#: for every duration histogram so snapshots merge bucket-for-bucket.
HIST_BOUNDS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

LabelPairs = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Iterable) -> LabelPairs:
    return tuple((str(k), str(v)) for k, v in labels)


class MetricsRegistry:
    """Labeled counters/gauges/histograms with snapshot/merge."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelPairs], float] = {}
        self._gauges: Dict[Tuple[str, LabelPairs], float] = {}
        #: name,labels -> [bucket counts (len(HIST_BOUNDS)+1), sum, count]
        self._hists: Dict[Tuple[str, LabelPairs], List[Any]] = {}

    # -- recording (lock-free; GIL-atomic updates) ---------------------------

    def inc(self, name: str, labels: Iterable = (), value: float = 1.0) -> None:
        key = (name, _labels_key(labels))
        self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, labels: Iterable = ()) -> None:
        self._gauges[(name, _labels_key(labels))] = float(value)

    def observe(self, name: str, value: float, labels: Iterable = ()) -> None:
        key = (name, _labels_key(labels))
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = [
                [0] * (len(HIST_BOUNDS) + 1), 0.0, 0,
            ]
        hist[0][bisect_left(HIST_BOUNDS, value)] += 1
        hist[1] += value
        hist[2] += 1

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable copy of every series."""
        return {
            "format": METRICS_FORMAT,
            "counters": [
                [name, [list(p) for p in labels], value]
                for (name, labels), value in self._counters.items()
            ],
            "gauges": [
                [name, [list(p) for p in labels], value]
                for (name, labels), value in self._gauges.items()
            ],
            "hists": [
                [
                    name, [list(p) for p in labels],
                    {
                        "buckets": list(hist[0]),
                        "sum": hist[1],
                        "count": hist[2],
                    },
                ]
                for (name, labels), hist in self._hists.items()
            ],
        }

    def drain(self) -> Dict[str, Any]:
        """Snapshot then reset — each increment ships exactly once."""
        snap = self.snapshot()
        self.reset()
        return snap

    def merge(self, snapshot: Optional[Dict[str, Any]]) -> None:
        """Fold a snapshot in: counters add, gauges overwrite,
        histograms add bucket-for-bucket.  Malformed snapshots are
        ignored series by series — a bad worker blob must never take
        the collector down."""
        if not isinstance(snapshot, dict):
            return
        for entry in snapshot.get("counters") or []:
            try:
                name, labels, value = entry
                key = (name, _labels_key(labels))
                self._counters[key] = (
                    self._counters.get(key, 0.0) + float(value)
                )
            except (TypeError, ValueError):
                continue
        for entry in snapshot.get("gauges") or []:
            try:
                name, labels, value = entry
                self._gauges[(name, _labels_key(labels))] = float(value)
            except (TypeError, ValueError):
                continue
        for entry in snapshot.get("hists") or []:
            try:
                name, labels, data = entry
                buckets = [int(b) for b in data["buckets"]]
                if len(buckets) != len(HIST_BOUNDS) + 1:
                    continue
                key = (name, _labels_key(labels))
                hist = self._hists.get(key)
                if hist is None:
                    hist = self._hists[key] = [
                        [0] * (len(HIST_BOUNDS) + 1), 0.0, 0,
                    ]
                for i, b in enumerate(buckets):
                    hist[0][i] += b
                hist[1] += float(data["sum"])
                hist[2] += int(data["count"])
            except (KeyError, TypeError, ValueError):
                continue

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._hists.clear()

    # -- plain views ---------------------------------------------------------

    def counters_by_name(self, name: str) -> float:
        """Sum of a counter across all label sets."""
        return sum(
            value for (n, _), value in self._counters.items() if n == name
        )


#: The process-wide registry every instrumentation site records into.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY


# -- guarded module-level shorthands (no-ops when obs is off) ----------------


def inc(name: str, labels: Iterable = (), value: float = 1.0) -> None:
    if state.enabled:
        _REGISTRY.inc(name, labels, value)


def observe(name: str, value: float, labels: Iterable = ()) -> None:
    if state.enabled:
        _REGISTRY.observe(name, value, labels)


def set_gauge(name: str, value: float, labels: Iterable = ()) -> None:
    if state.enabled:
        _REGISTRY.set_gauge(name, value, labels)


# -- the unified --stats snapshot schema -------------------------------------


def stats_snapshot(
    kind: str,
    counters: Optional[Dict[str, Any]] = None,
    timings: Optional[Dict[str, Any]] = None,
    derived: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One stats shape for every ``--stats --format json`` surface.

    ``kind`` names the producer (``session`` / ``campaign`` / ``sweep``
    / ``serve``); ``counters`` are monotonic tallies, ``timings`` are
    seconds, ``derived`` are ratios/rates.  It is the only stats shape:
    the ad-hoc ``session_stats`` key is gone, and a campaign report's
    ``profile`` is part of the report record itself.
    """
    return {
        "format": STATS_FORMAT,
        "kind": kind,
        "counters": dict(counters or {}),
        "timings": dict(timings or {}),
        "derived": dict(derived or {}),
    }
