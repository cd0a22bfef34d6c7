"""Outside-in per-layer tracing for the benchmark's traced runs.

Every layer is timed by wrapping its public entry point from here; the
package under ``src/`` carries no benchmark instrumentation.  Class
methods are patched on the class.  Module functions are patched where
their caller resolves them (a ``from x import f`` copy lives in the
caller's module, so patching ``x.f`` alone would miss it).  The optim
modules are reached through ``sys.modules`` because ``repro.optim``
re-exports functions that shadow same-named submodules
(``repro.optim.optimize_resources`` is a function there).

A layer's self time is its wall time minus the wall time of wrapped
layers called beneath it, so self times add up to the traced wall time
covered by wrapped layers without double counting.

The daemon side of ``repro serve`` is traced by the daemon itself
(``REPRO_OBS=1``); :func:`span_self_times` turns its span export into
the same calls/self-time shape.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Dict, Iterable, List

#: The wrapped layers, named after their ``src/repro/`` modules, in the
#: order of the printed table.
LAYERS = (
    "analysis.solve",
    "analysis.multicluster",
    "analysis.multihop",
    "schedule.static_schedule",
    "api.evaluate",
    "optim.neighbors",
    "optim.random_move",
    "synth.generate",
    "sim.compile",
    "sim.replay",
    "conformance.classify",
    "explore.cell",
    "store.get",
    "store.put",
)

class LayerTracer:
    """Call counts, self time and layer-specific counters per layer."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.counters: Dict[str, float] = {
            "analysis.multicluster.iterations": 0,
            "api.evaluate.hits": 0,
            "sim.events": 0,
        }
        # One slot per active wrapped frame: wall time of wrapped
        # layers that ran beneath it.
        self._child_s: List[float] = []
        self._restore: List[Callable[[], None]] = []

    # -- wrapping ------------------------------------------------------------

    def _timed(self, name: str, fn: Callable, after=None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            tracer._child_s.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = tracer._child_s.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - children
                if tracer._child_s:
                    tracer._child_s[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def patch(self, owner: Any, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper (undone by
        :meth:`uninstall`)."""
        original = getattr(owner, attr)
        setattr(owner, attr, self._timed(name, original, after))
        self._restore.append(lambda: setattr(owner, attr, original))

    def install(self) -> "LayerTracer":
        """Wrap every layer entry point of :data:`LAYERS`."""
        mod = sys.modules.get
        for module in (
            "repro.analysis.kernel", "repro.analysis.multicluster",
            "repro.analysis.multihop", "repro.api.backends",
            "repro.api.session", "repro.optim.optimize_resources",
            "repro.optim.annealing", "repro.explore.engine",
            "repro.conformance.campaign", "repro.sim.kernel",
            "repro.store.store",
        ):
            importlib.import_module(module)
        kernel = mod("repro.analysis.kernel")
        session = mod("repro.api.session")
        sim = mod("repro.sim.kernel")
        store = mod("repro.store.store")
        engine = mod("repro.explore.engine")
        campaign = mod("repro.conformance.campaign")
        counters = self.counters

        def loop_iterations(args, result):
            counters["analysis.multicluster.iterations"] += result.iterations

        self.patch(kernel.AnalysisContext, "solve", "analysis.solve")
        self.patch(
            mod("repro.api.backends"), "multi_cluster_scheduling",
            "analysis.multicluster", after=loop_iterations,
        )
        self.patch(
            mod("repro.analysis.multihop"),
            "multihop_response_time_analysis", "analysis.multihop",
        )
        self.patch(
            mod("repro.analysis.multicluster"), "static_schedule",
            "schedule.static_schedule",
        )
        self._patch_evaluate(session.Session)
        self.patch(
            mod("repro.optim.optimize_resources"), "generate_neighbors",
            "optim.neighbors",
        )
        self.patch(
            mod("repro.optim.annealing"), "random_move", "optim.random_move"
        )
        self.patch(engine, "generate_workload", "synth.generate")
        self.patch(campaign, "generate_workload", "synth.generate")
        self.patch(sim.SimContext, "__init__", "sim.compile")
        self._patch_replay(sim.SimContext)
        self.patch(campaign, "classify_run", "conformance.classify")
        self.patch(engine, "evaluate_cell", "explore.cell")
        self.patch(store.ResultStore, "get", "store.get")
        self.patch(store.ResultStore, "put", "store.put")
        return self

    def _patch_evaluate(self, cls) -> None:
        """``Session.evaluate`` plus memo hits from the session's own
        ``cache_info()`` delta around each call."""
        original = cls.evaluate
        counters = self.counters
        timed = self._timed("api.evaluate", original)

        def evaluate(session, *args, **kwargs):
            before = session.cache_info().hits
            try:
                return timed(session, *args, **kwargs)
            finally:
                counters["api.evaluate.hits"] += (
                    session.cache_info().hits - before
                )

        cls.evaluate = evaluate
        self._restore.append(lambda: setattr(cls, "evaluate", original))

    def _patch_replay(self, cls) -> None:
        """``SimContext.run`` plus replayed events from the context's own
        cumulative ``stats.events``."""
        original = cls.run
        counters = self.counters
        timed = self._timed("sim.replay", original)

        def run(context, *args, **kwargs):
            before = context.stats.events
            try:
                return timed(context, *args, **kwargs)
            finally:
                counters["sim.events"] += context.stats.events - before

        cls.run = run
        self._restore.append(lambda: setattr(cls, "run", original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flat per-layer metrics (``<layer>.calls`` / ``<layer>.self_s``
        plus the derived ratios)."""
        out: Dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        loops = self.calls["analysis.multicluster"]
        out["analysis.multicluster.iterations"] = (
            self.counters["analysis.multicluster.iterations"] / loops
            if loops else 0.0
        )
        evaluations = self.calls["api.evaluate"]
        out["api.evaluate.hit_ratio"] = (
            self.counters["api.evaluate.hits"] / evaluations
            if evaluations else 0.0
        )
        out["sim.events"] = self.counters["sim.events"]
        replay_s = self.self_s["sim.replay"]
        out["sim.events_per_s"] = (
            self.counters["sim.events"] / replay_s if replay_s > 0 else 0.0
        )
        return out


def span_self_times(
    spans: Iterable[Dict[str, Any]]
) -> Dict[str, Dict[str, float]]:
    """Per span name: count and self time (duration minus the durations
    of its direct children, linked by parent id)."""
    spans = [s for s in spans if s.get("dur_s") is not None]
    child_s: Dict[str, float] = {}
    for entry in spans:
        parent = entry.get("parent")
        if parent is not None:
            child_s[parent] = child_s.get(parent, 0.0) + float(entry["dur_s"])
    out: Dict[str, Dict[str, float]] = {}
    for entry in spans:
        row = out.setdefault(entry["name"], {"count": 0, "self_s": 0.0})
        row["count"] += 1
        row["self_s"] += max(
            0.0, float(entry["dur_s"]) - child_s.get(entry["span"], 0.0)
        )
    return out
