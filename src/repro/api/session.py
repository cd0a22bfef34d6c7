"""The :class:`Session` facade: one entry point for analyse/synthesize/
simulate/batch-evaluate workflows.

A session owns a :class:`repro.system.System` (and therefore all of its
derived caches — routes, frame times, ancestor sets, and the compiled
kernels and templates every session on it shares) and exposes every
evaluation path through one coherent surface:

* :meth:`Session.evaluate` — score one configuration with any registered
  backend (``"analysis"``, ``"simulation"``, or a user-registered one);
* :meth:`Session.evaluate_many` — the batch path: configuration-hash
  memoization plus optional parallelism on the local executor;
* :meth:`Session.synthesize` — the paper's OS/OR pipeline, its analysis
  runs routed through the session cache;
* :meth:`Session.simulate` / :meth:`Session.sensitivity` — validation and
  robustness companions, returning the same :class:`RunResult` record.

Results are memoized by a stable configuration hash
(:func:`config_hash`): the hash covers the synthesis decisions ``<β, π>``
plus the ``tt_delays`` knobs and deliberately excludes ``offsets`` —
offsets are *derived* by the analysis, so two configurations that differ
only in (stale) offsets are the same evaluation problem.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from collections import namedtuple
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..model.configuration import SystemConfiguration
from ..obs import metrics as _obs_metrics
from ..obs import state as _obs_state
from ..obs import trace as _obs_trace
from ..system import System
from .backends import EvaluationBackend, get_backend
from .result import RunResult

__all__ = [
    "CacheInfo", "Session", "SynthesisResult", "config_hash", "store_key",
]

#: Memoization and hot-path statistics of a session.  The first four
#: fields are the original cache counters; then the total wall-time
#: spent inside evaluation backends; then the analysis-kernel
#: instrumentation of the session's System (summed over the kernels it
#: holds): full kernel compiles, incremental kernel recompiles, solves
#: answered from the kernel's cache of identical solves, and the
#: busy-window rows the fixed point re-solved and skipped
#: (:class:`repro.analysis.kernel.KernelStats`); then the System's
#: simulation-template counters: compiled
#: :class:`repro.sim.kernel.SimContext` templates it holds and cache
#: hits that reused one; and finally the persistent-store tier: results
#: served from the on-disk :class:`repro.store.ResultStore`, results
#: written into it and results whose write failed (the store counts
#: and reports the failure; the result stays process-local).
CacheInfo = namedtuple(
    "CacheInfo",
    [
        "hits", "misses", "size", "backend_calls",
        "analysis_time", "kernel_compiles", "kernel_updates",
        "reused_solves", "rows_solved", "rows_skipped",
        "sim_compiles", "sim_reuses",
        "store_hits", "store_writes", "store_write_errors",
    ],
)


def config_hash(config: SystemConfiguration) -> str:
    """Stable content hash of a configuration's synthesis decisions.

    Hashes the TDMA round ``β``, the priorities ``π`` and the
    ``tt_delays`` in a canonical JSON form.  ``offsets`` are excluded on
    purpose: they are outputs of the multi-cluster loop, not inputs, so
    including them would defeat memoization across optimizer iterations.
    """
    payload = {
        "bus": [
            {"node": s.node, "capacity": s.capacity, "duration": s.duration}
            for s in config.bus.slots
        ],
        "process_priorities": config.priorities.process_priorities,
        "message_priorities": config.priorities.message_priorities,
        "tt_delays": config.tt_delays,
    }
    routes = getattr(config, "routes", None)
    if routes:
        # Route overrides join the hash only when present: the empty
        # dict is the canonical "all default routes" state, omitted so
        # every pre-routing hash, store key and serve address is
        # byte-identical (same pattern as the null FaultSpec).
        payload["routes"] = {
            name: list(hops) for name, hops in sorted(routes.items())
        }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Backend options that carry derived inputs rather than evaluation
#: parameters; excluded from cache keys so equal evaluations still hit.
_NON_KEY_OPTIONS = frozenset({"analysis_run"})

#: Minimum seconds between store segment re-scans triggered by
#: single-evaluation misses (see Session._store_fetch).
_STORE_REFRESH_INTERVAL = 0.25

#: Option values of these types serialize canonically, so evaluations
#: keyed on them can live in the persistent store.  Anything else
#: (callables such as ``execution``, ad-hoc objects) keys by identity
#: in the in-memory cache and is deliberately *not* store-addressable.
_STORABLE_OPTION_TYPES = (str, int, float, bool, type(None))


def store_key(key: Tuple) -> Optional[str]:
    """Stable store address of a session cache key, or ``None``.

    Folds the backend name, the keyed options and the configuration
    hash into one sha256 — the address under which
    :class:`repro.store.ResultStore` shares the result across
    processes.  Keys whose options are not plain JSON scalars have no
    canonical cross-process form and return ``None`` (the evaluation
    stays memoized in memory only).
    """
    name, options_key, config_h = key
    for _, value in options_key:
        if not isinstance(value, _STORABLE_OPTION_TYPES):
            return None
    payload = json.dumps(
        [name, [[k, v] for k, v in options_key], config_h],
        sort_keys=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _normalize_fault_option(options: Dict[str, Any]) -> None:
    """Canonicalize a ``faults`` option in place (session cache hygiene).

    A :class:`repro.faults.FaultSpec` (or its dict / JSON forms) is
    reduced to its canonical minimal JSON string — a plain storable
    scalar, so faulted evaluations cache and store-key by *content*.  A
    null spec is removed entirely: injecting no faults is the same
    evaluation as passing no spec, and must hit the same cache entries
    and store records (the null-fault bit-identity contract).
    """
    if "faults" not in options:
        return
    from ..faults import FaultSpec

    spec = FaultSpec.coerce(options["faults"])
    if spec is None:
        del options["faults"]
    else:
        options["faults"] = spec.canonical()


def _options_key(options: Dict[str, Any]) -> Tuple:
    """Hashable cache-key component for backend keyword options.

    Plain values (ints, strings, ...) key by value.  Object-valued
    options (e.g. an ``execution`` callable) necessarily key by object
    identity — logically equal but distinct objects will not share cache
    entries, so reuse the same object across calls to benefit from
    memoization.
    """
    parts = []
    for name in sorted(options):
        value = options[name]
        try:
            hash(value)
        except TypeError:
            value = repr(value)
        parts.append((name, value))
    return tuple(parts)


@dataclass
class SynthesisResult:
    """Outcome of :meth:`Session.synthesize` (OS, optionally + OR)."""

    best: RunResult
    os_result: Any  # repro.optim.optimize_schedule.OSResult
    or_result: Optional[Any] = None  # repro.optim.optimize_resources.ORResult

    @property
    def config(self) -> SystemConfiguration:
        """The synthesized configuration ``ψ``."""
        return self.best.config

    @property
    def schedulable(self) -> bool:
        """Whether the synthesized configuration meets all deadlines."""
        return self.best.schedulable

    @property
    def evaluations(self) -> int:
        """Total analysis runs spent across OS (and OR, when enabled)."""
        if self.or_result is not None:
            return self.or_result.evaluations
        return self.os_result.evaluations


def _evaluate_chunk(payload) -> List[RunResult]:
    """Executor chunk of :meth:`Session.evaluate_many` (``workers > 1``).

    Evaluates configurations on a private session over the shipped
    System copy, so the chunk shares that copy's compiled kernel
    exactly as the caller's session shares its System's.
    """
    system, backend, options, configs = payload
    session = Session(system)
    resolved = get_backend(backend)
    return [session._compute(resolved, config, options) for config in configs]


class Session:
    """A long-lived evaluation context around one :class:`System`.

    Parameters
    ----------
    system:
        The analysis/synthesis problem instance.
    default_backend:
        Backend used when a call does not name one explicitly.
    cache_size:
        Maximum number of memoized results (cached entries retain the
        full analysis payload, so the cache is bounded by default;
        insertion-order eviction).  ``None`` disables the bound.
    store:
        Optional persistent second memo tier: a
        :class:`repro.store.ResultStore` or a directory path (opened as
        one).  Lookup order is in-memory -> store -> compute; every
        computed, store-addressable result is appended to the store, so
        any two sessions sharing the directory — across processes and
        machines — see bit-identical records
        (:meth:`cache_info` ``.store_hits`` / ``.store_writes``).
        Store hits are rebuilt from JSON and therefore carry no rich
        in-memory ``analysis`` payload (same contract as
        :meth:`repro.api.result.RunResult.from_dict`).
    """

    def __init__(
        self,
        system: System,
        default_backend: str = "analysis",
        cache_size: Optional[int] = 4096,
        store=None,
    ) -> None:
        self.system = system
        self.default_backend = default_backend
        self.cache_size = cache_size
        if isinstance(store, (str, Path)):
            from ..store import ResultStore

            store = ResultStore(store)
        self.store = store
        self._store_hits = 0
        self._store_writes = 0
        self._store_write_errors = 0
        #: Monotonic time of the last store segment re-scan triggered
        #: by a single-evaluation miss; see :meth:`_store_fetch`.
        self._store_refreshed_at = 0.0
        self._cache: Dict[Tuple, RunResult] = {}
        self._hits = 0
        self._misses = 0
        #: Number of actual backend invocations (cache misses included,
        #: cache hits excluded) — the observable the memoization tests
        #: and throughput benchmarks assert on.
        self.backend_calls = 0
        #: Wall-clock seconds spent inside backend invocations (cache
        #: hits cost nothing and are excluded).
        self._analysis_time = 0.0

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_file(cls, path: Union[str, Path], **kwargs) -> "Session":
        """Open a session on a system JSON file."""
        from ..io.serialize import load_system

        return cls(load_system(path), **kwargs)

    @classmethod
    def from_dict(cls, data: Dict[str, Any], **kwargs) -> "Session":
        """Open a session on a serialized system dictionary."""
        from ..io.serialize import system_from_dict

        return cls(system_from_dict(data), **kwargs)

    @classmethod
    def from_workload(cls, spec=None, **spec_kwargs) -> "Session":
        """Open a session on a freshly generated random workload.

        Accepts either a :class:`repro.synth.WorkloadSpec` or its keyword
        arguments directly (``Session.from_workload(nodes=4, seed=7)``).
        """
        from ..synth.workload import WorkloadSpec, generate_workload

        if spec is None:
            spec = WorkloadSpec(**spec_kwargs)
        elif spec_kwargs:
            raise TypeError(
                "pass either a WorkloadSpec or keyword arguments, not both"
            )
        return cls(generate_workload(spec))

    def save(self, path: Union[str, Path]) -> None:
        """Persist the session's system to a JSON file."""
        from ..io.serialize import save_system

        save_system(self.system, path)

    # -- caching ------------------------------------------------------------

    def cache_info(self) -> CacheInfo:
        """Memoization and hot-path statistics of this session.

        The kernel and simulation counters describe the compiled state
        of the session's System, which every session (and session-less
        evaluation) on that System shares.
        """
        kernels = [kernel.stats for kernel in self.system._kernels.values()]
        templates = [
            template.stats
            for _, template in self.system._sim_templates.values()
        ]
        return CacheInfo(
            hits=self._hits,
            misses=self._misses,
            size=len(self._cache),
            backend_calls=self.backend_calls,
            analysis_time=self._analysis_time,
            kernel_compiles=sum(k.compiles for k in kernels),
            kernel_updates=sum(k.updates for k in kernels),
            reused_solves=sum(k.reused_solves for k in kernels),
            rows_solved=sum(k.rows_solved for k in kernels),
            rows_skipped=sum(k.rows_skipped for k in kernels),
            sim_compiles=sum(t.compiles for t in templates),
            sim_reuses=sum(t.reuses for t in templates),
            store_hits=self._store_hits,
            store_writes=self._store_writes,
            store_write_errors=self._store_write_errors,
        )

    def clear_cache(self, store: bool = False) -> None:
        """Drop all memoized results (statistics are kept).

        By default only the *in-memory* tier is cleared: the persistent
        store — shared with other sessions and processes — keeps every
        record, so an optimizer loop that clears its working cache
        cannot accidentally wipe results other campaigns rely on.  Pass
        ``store=True`` to also delete the attached store's records
        (a no-op when the session has no store).
        """
        self._cache.clear()
        if store and self.store is not None:
            self.store.clear()

    # -- the persistent store tier ------------------------------------------

    def _store_fetch(
        self, skey: Optional[str], refresh: bool = True
    ) -> Optional[RunResult]:
        """Load a result from the store tier; ``None`` on any miss.

        A damaged or unreadable store degrades to a miss (the result is
        recomputed and re-appended) — persistence must never break an
        evaluation that plain compute could serve.  ``refresh=False``
        skips the segment re-scan; batch callers refresh once up front.

        Refreshes are rate-limited per session: an optimizer loop
        produces thousands of genuine misses in a row, and re-globbing
        the segment directory for each would dominate on network
        filesystems.  Records appended by concurrent writers become
        visible within :data:`_STORE_REFRESH_INTERVAL` seconds — a
        freshness bound, never a correctness one (a missed record is
        recomputed bit-identically).
        """
        if self.store is None or skey is None:
            return None
        if refresh:
            now = time.monotonic()
            if now - self._store_refreshed_at < _STORE_REFRESH_INTERVAL:
                refresh = False
            else:
                self._store_refreshed_at = now
        try:
            payload = self.store.get(skey, kind="runresult", refresh=refresh)
        except OSError:
            return None
        if payload is None:
            return None
        try:
            run = RunResult.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return None
        self._store_hits += 1
        return run

    def _store_write(self, skey: Optional[str], run: RunResult) -> None:
        """Append a computed result to the store tier.  A failed write
        does not fail the evaluation: the store counts it (and reports
        its first one) and the result stays process-local."""
        if self.store is None or skey is None:
            return
        if self.store.put(skey, run.to_dict(), kind="runresult"):
            self._store_writes += 1
        else:
            self._store_write_errors += 1

    def _key(
        self,
        config: SystemConfiguration,
        backend: Union[str, EvaluationBackend],
        options: Dict[str, Any],
    ) -> Tuple:
        name = backend if isinstance(backend, str) else backend.name
        keyed = {
            k: v for k, v in options.items() if k not in _NON_KEY_OPTIONS
        }
        return (name, _options_key(keyed), config_hash(config))

    @staticmethod
    def _snapshot(run: RunResult, config: SystemConfiguration) -> RunResult:
        """Copy of ``run`` whose mutable containers are private.

        ``metadata`` is deep-copied (simulation observations and margins
        nest dicts/lists inside it) and ``timing``/``graph_responses``
        shallow-copied so neither the cache nor any caller can mutate
        another holder's record through shared containers
        (``buffers``/``report``/``analysis`` are treated as immutable
        analysis outputs and stay shared).  A timing table nobody has
        read stays unbuilt: the copy builds its own on first read.
        """
        snapshot = object.__new__(type(run))  # copy.copy, minus __reduce__
        snapshot.__dict__.update(vars(run))
        snapshot.config = config
        snapshot.graph_responses = dict(run.graph_responses)
        table = vars(run)["_timing"]
        if table is not None:
            snapshot.timing = {k: dict(v) for k, v in table.items()}
        snapshot.metadata = copy.deepcopy(run.metadata)
        return snapshot

    def _remember(self, key: Tuple, run: RunResult) -> None:
        """Insert into the cache with snapshotted mutable state.

        Callers may keep mutating the config object (or the result's
        dicts) they were handed; caching copies keeps the memoized
        offsets (the re-homing source of :meth:`_adapt`) and the cached
        verdict immune to that aliasing.
        """
        config = run.config.copy() if run.config is not None else None
        if self.cache_size is not None:
            while len(self._cache) >= max(1, self.cache_size):
                self._cache.pop(next(iter(self._cache)))
        self._cache[key] = self._snapshot(run, config)

    def _adapt(
        self, cached: RunResult, config: SystemConfiguration
    ) -> RunResult:
        """Re-home a memoized result onto the caller's config object.

        An evaluation promises to leave the synthesized offsets on the
        evaluated configuration; a cache hit must honor that contract for
        the *new* object too.  The returned record gets its own mutable
        containers so the caller cannot poison the cache entry.
        """
        if cached.config is not None and cached.config.offsets is not None:
            config.offsets = cached.config.offsets.copy()
        return self._snapshot(cached, config)

    def _compute(
        self,
        resolved: EvaluationBackend,
        config: SystemConfiguration,
        options: Dict[str, Any],
    ) -> RunResult:
        """One backend call: the cache-miss path of every evaluation.

        Runs the backend and accounts for it in :meth:`cache_info` and,
        with obs on, in the ``session.evaluate`` span and the
        ``repro_session_backend_*`` metrics.
        """
        self._misses += 1
        started = time.perf_counter()
        if _obs_state.enabled:
            name = getattr(resolved, "name", type(resolved).__name__)
            labels = (("backend", name),)
            with _obs_trace.span("session.evaluate", backend=name):
                run = resolved.run(self.system, config, **options)
            _obs_metrics.inc("repro_session_backend_calls_total", labels)
            _obs_metrics.observe(
                "repro_session_backend_seconds",
                time.perf_counter() - started,
                labels,
            )
        else:
            run = resolved.run(self.system, config, **options)
        self._analysis_time += time.perf_counter() - started
        self.backend_calls += 1
        return run

    # -- single evaluation --------------------------------------------------

    def evaluate(
        self,
        config: SystemConfiguration,
        backend: Optional[Union[str, EvaluationBackend]] = None,
        memoize: bool = True,
        **options,
    ) -> RunResult:
        """Evaluate one configuration, consulting the memo tiers.

        Lookup order: in-memory cache, then the persistent store (when
        the session has one), then compute — computed results populate
        both tiers on the way out.
        """
        backend = backend if backend is not None else self.default_backend
        _normalize_fault_option(options)
        skey = None
        if memoize:
            key = self._key(config, backend, options)
            if key in self._cache:
                self._hits += 1
                if _obs_state.enabled:
                    _obs_metrics.inc("repro_session_cache_hits_total")
                return self._adapt(self._cache[key], config)
            if self.store is not None:
                skey = store_key(key)
                stored = self._store_fetch(skey)
                if stored is not None:
                    # Promote into the in-memory tier: later hits on
                    # this session skip the disk entirely.
                    self._remember(key, stored)
                    return self._adapt(stored, config)
        else:
            # No cache interaction: skip the config hash entirely (it
            # is throughput-relevant on campaign-style one-shot sweeps).
            key = None
        run = self._compute(get_backend(backend), config, options)
        if memoize:
            # Store-addressable provenance: the configuration hash rides
            # in the record so optimizer results (and serialized JSON)
            # can name the exact store entry they came from.
            run.metadata.setdefault("config_hash", key[2])
            self._remember(key, run)
            self._store_write(skey, run)
        return run

    # -- batch evaluation ---------------------------------------------------

    def evaluate_many(
        self,
        configs: Iterable[SystemConfiguration],
        backend: Optional[Union[str, EvaluationBackend]] = None,
        workers: int = 1,
        memoize: bool = True,
        **options,
    ) -> List[RunResult]:
        """Evaluate many configurations; the session's batch path.

        Deduplicates by configuration hash first (within the batch *and*
        against the session cache), evaluates one representative per
        distinct configuration, and shares the result across duplicates.
        ``workers > 1`` evaluates the distinct configurations in chunks on
        the local executor's forked workers
        (:func:`repro.explore.runner.iter_chunked`); the results are the
        objects a serial batch returns, ``analysis`` payload included.
        Without ``fork`` the chunks run in this process, with a
        :class:`RuntimeWarning`.
        """
        backend = backend if backend is not None else self.default_backend
        _normalize_fault_option(options)
        configs = list(configs)
        results: List[Optional[RunResult]] = [None] * len(configs)
        pending: Dict[Tuple, List[int]] = {}
        for index, config in enumerate(configs):
            key = self._key(config, backend, options)
            if memoize and key in self._cache:
                self._hits += 1
                results[index] = self._adapt(self._cache[key], config)
            else:
                pending.setdefault(key, []).append(index)

        #: Store address per pending key, computed once for the probe
        #: and reused for the write-back; empty without a store, so the
        #: store-less batch path never pays for hashing.
        skeys: Dict[Tuple, Optional[str]] = {}
        if memoize and self.store is not None and pending:
            # One segment re-scan covers the whole batch; then probe
            # each distinct key against the refreshed index.
            try:
                self.store.refresh()
            except OSError:
                pass
            for key in list(pending):
                skeys[key] = store_key(key)
                stored = self._store_fetch(skeys[key], refresh=False)
                if stored is None:
                    continue
                self._remember(key, stored)
                for index in pending.pop(key):
                    results[index] = self._adapt(stored, configs[index])

        reps = [(key, configs[indices[0]]) for key, indices in pending.items()]
        if workers > 1 and len(reps) > 1:
            runs = self._run_parallel(reps, backend, options, workers)
        else:
            resolved = get_backend(backend)
            runs = [
                self._compute(resolved, config, options)
                for _, config in reps
            ]

        for (key, _), run in zip(reps, runs):
            if memoize:
                run.metadata.setdefault("config_hash", key[2])
                self._remember(key, run)
                self._store_write(skeys.get(key), run)
            for index in pending[key]:
                results[index] = self._adapt(run, configs[index])
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _run_parallel(
        self,
        reps: List[Tuple[Tuple, SystemConfiguration]],
        backend: Union[str, EvaluationBackend],
        options: Dict[str, Any],
        workers: int,
    ) -> List[RunResult]:
        """Evaluate representatives on the local executor's workers."""
        from ..explore.runner import iter_chunked, partition_chunks

        # Each chunk evaluates on a pickled copy of the System, which
        # ships without compiled state: chunks compile their own.
        chunks = [
            (self.system, backend, options,
             [config for _, config in chunk])
            for chunk in partition_chunks(reps, workers)
        ]
        started = time.perf_counter()
        runs = [
            run
            for chunk_runs in iter_chunked(chunks, _evaluate_chunk, workers)
            for run in chunk_runs
        ]
        self._analysis_time += time.perf_counter() - started
        self._misses += len(reps)
        self.backend_calls += len(reps)
        # Chunks evaluated pickled copies; re-home each result (and its
        # synthesized offsets) onto the caller's configuration objects.
        return [
            self._adapt(run, config)
            for (_, config), run in zip(reps, runs)
        ]

    # -- synthesis ----------------------------------------------------------

    def synthesize(
        self,
        minimize_buffers: bool = False,
        os_options: Optional[Dict[str, Any]] = None,
        or_options: Optional[Dict[str, Any]] = None,
    ) -> SynthesisResult:
        """Run OptimizeSchedule (and optionally OptimizeResources).

        The heuristics' analysis runs flow through this session, so
        repeated configurations inside (or across) synthesis runs hit the
        memo cache.
        """
        from ..optim.optimize_resources import optimize_resources
        from ..optim.optimize_schedule import optimize_schedule

        os_result = optimize_schedule(
            self.system, session=self, **(os_options or {})
        )
        or_result = None
        best = os_result.best
        if minimize_buffers:
            or_result = optimize_resources(
                self.system,
                os_result=os_result,
                session=self,
                **(or_options or {}),
            )
            best = or_result.best
        return SynthesisResult(
            best=best, os_result=os_result, or_result=or_result
        )

    # -- validation & robustness -------------------------------------------

    def simulate(
        self,
        config: SystemConfiguration,
        periods: int = 4,
        memoize: bool = True,
        **options,
    ) -> RunResult:
        """Evaluate with the discrete-event simulation backend.

        The analysis pass the simulator needs (schedule tables + bounds)
        is obtained through :meth:`evaluate` first, so it is shared with
        — and memoized alongside — plain ``"analysis"`` evaluations of
        the same configuration.

        A *store*-served analysis record carries no rich in-memory
        payload (no schedule tables), which would force the simulation
        backend to re-run the fixed point on every call and defeat the
        compiled-template cache.  When the simulation itself still has
        to be computed, such records are refreshed once — one honest
        recompute, bit-identical by construction — and the rich result
        replaces the degraded one in the memory tier, so repeated
        simulations compile/reuse one :class:`SimContext` exactly as
        without a store.  (When the simulation result is *also* already
        cached or stored, nothing needs the rich payload and nothing is
        recomputed.)

        A ``faults`` option (FaultSpec / dict / JSON) is split along the
        modeled/unmodeled boundary: the analysis pass runs under the
        spec's *modeled* subset (``FaultSpec.analysis_spec`` — derated
        WCETs/bus plus the CAN error term), keyed separately from
        fault-free analyses, while the simulation replays the full spec.
        A null spec is dropped entirely, so cache and store keys are
        bit-identical to a fault-free call.
        """
        from ..faults import FaultSpec

        fault_spec = FaultSpec.coerce(options.pop("faults", None))
        analysis_options: Dict[str, Any] = {}
        if fault_spec is not None:
            options["faults"] = fault_spec.canonical()
            analysis_faults = fault_spec.analysis_spec()
            if not analysis_faults.is_null:
                analysis_options["faults"] = analysis_faults.canonical()
        base = self.evaluate(
            config, backend="analysis", memoize=memoize, **analysis_options
        )
        if (
            memoize
            and base.feasible
            and base.analysis is None
            and not self._simulation_available(config, periods, options)
        ):
            fresh = self.evaluate(
                config, backend="analysis", memoize=False,
                **analysis_options,
            )
            if fresh.feasible and fresh.analysis is not None:
                key = self._key(config, "analysis", analysis_options)
                fresh.metadata.setdefault("config_hash", key[2])
                self._remember(key, fresh)
                base = fresh
        return self.evaluate(
            config,
            backend="simulation",
            memoize=memoize,
            periods=periods,
            analysis_run=base,
            **options,
        )

    def _simulation_available(
        self,
        config: SystemConfiguration,
        periods: int,
        options: Dict[str, Any],
    ) -> bool:
        """Whether a memoized/stored simulation result already exists.

        Used by :meth:`simulate` to decide if a degraded (store-served)
        analysis record even needs refreshing: when the simulation
        outcome is itself served from a cache tier, no schedule tables
        are required.  The probe is index-only and may answer "no" for
        a record a concurrent writer appended a moment ago — that only
        costs one redundant analysis pass, never correctness.
        """
        key = self._key(
            config, "simulation", {"periods": periods, **options}
        )
        if key in self._cache:
            return True
        if self.store is None:
            return False
        skey = store_key(key)
        return skey is not None and self.store.contains(skey)

    def sensitivity(
        self,
        config: SystemConfiguration,
        upper: float = 4.0,
        top: int = 5,
    ) -> RunResult:
        """Analysis run augmented with robustness metadata.

        Adds to the result metadata the WCET scaling margin (binary
        search up to ``upper``) and the ``top`` most deadline-critical
        activities; both tools come from
        :mod:`repro.analysis.sensitivity`.
        """
        from ..analysis.sensitivity import (
            critical_activities,
            wcet_scaling_margin,
        )

        run = self.evaluate(config, backend="analysis")
        if not run.feasible or run.analysis is None:
            return run
        critical = critical_activities(
            self.system, run.analysis.rho, limit=top
        )
        margin = wcet_scaling_margin(self.system, config, upper=upper)
        metadata = dict(run.metadata)
        metadata["critical_activities"] = [
            {"activity": name, "slack": slack} for name, slack in critical
        ]
        metadata["wcet_margin"] = {
            "factor": margin.factor,
            "margin_percent": margin.margin_percent,
            "schedulable_at_factor": margin.schedulable_at_factor,
            "iterations": margin.iterations,
        }
        return replace(run, metadata=metadata)

    def __repr__(self) -> str:
        return (
            f"Session({self.system!r}, cache={len(self._cache)} entries, "
            f"backend_calls={self.backend_calls})"
        )
