"""Compiled analysis kernel: the optimizer hot path of the holistic
response-time analysis.

The pre-kernel holistic analysis (kept as the parity oracle under
``tests/oracles``) recompiles its full O(n²) interference structure —
string-keyed dicts, per-pair ancestor queries, relative phases — on
**every** call, while the Fig. 5
multi-cluster loop calls it up to 30 times per evaluation and the
synthesis heuristics run thousands of evaluations.  Everything but the
jitters is structurally invariant across those calls (the classic
observation behind Tindell & Clark's holistic analysis and Palencia &
Harbour's offset refinement), which is exactly what a compiled kernel
exploits.

:class:`AnalysisContext` splits the work into three tiers:

* **compile** (once per :class:`~repro.system.System`): intern every
  activity — ET process, CAN message, ET->TT message — to an integer id
  and record the id-indexed constants (periods, WCETs, frame times,
  sizes, precedence arcs).
* **update** (once per ``(π, β)``): flatten the priority-dependent
  interference sets into parallel index/value rows.  When only a few
  activities changed priority (an OptimizeResources swap, an
  OptimizeSchedule slot candidate) only the rows whose *membership*
  could have changed are rebuilt — O(n·|changed|) instead of O(n²) —
  and a ``β`` change touches nothing but a handful of scalars (gateway
  slot, round length, divergence horizon).
* **solve** (once per offsets ``φ``): run the global monotone fixed
  point entirely over list indices — no string-dict lookups anywhere on
  the inner loops — optionally **warm-started** from a previous
  solution.

Warm starts come in two flavours:

* *Within one solve*, each activity's busy-window equation is seeded
  with its window from the previous outer iteration.  This is exact:
  the outer Gauss-Seidel state ratchets monotonically upward from
  bottom, so the previous window is ≤ the new least fixed point, and a
  monotone busy-window iteration started anywhere at or below its least
  fixed point converges to exactly that fixed point.
* *Across solves* (``warm=``), the previous solution seeds the whole
  state vector.  This is **not** exact in general: re-scheduling can
  move offsets so that an activity's true least fixed point shrinks,
  and a seed above the least fixed point converges to *a* fixed point
  of the same monotone equations — a safe (possibly pessimistic) upper
  bound, never an unsound one.  It is therefore opt-in
  (``multi_cluster_scheduling(warm_start=True)``); the default path is
  parity-tested bit for bit against the pre-kernel implementation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..buses.ttp import TTPBusConfig
from ..exceptions import AnalysisError
from ..model.architecture import GATEWAY_TRANSFER_PROCESS, MessageRoute
from ..model.configuration import OffsetTable, PriorityAssignment
from ..obs import metrics as _obs_metrics
from ..obs import state as _obs_state
from ..obs import trace as _obs_trace
from ..semantics import (
    ettt_queue_instant,
    fifo_competitors,
    fifo_drain_rounds,
    gateway_transfer_delay,
)
from ..system import System
from .can_analysis import TIE_EPSILON, can_error_term
from .timing import ActivityTiming, ResponseTimes

__all__ = ["AnalysisContext", "KernelStats", "SolveState"]

_MAX_OUTER_ITERATIONS = 1_000
_MAX_INNER_ITERATIONS = 50_000

_INF = math.inf


@dataclass
class KernelStats:
    """Counters describing how a kernel earned its keep.

    ``compiles`` counts full interference-table builds, ``updates`` the
    incremental row rebuilds that replaced one, ``solves`` the fixed
    points run and ``warm_starts`` the solves seeded from a previous
    solution instead of from zero jitter.
    """

    compiles: int = 0
    updates: int = 0
    rows_recompiled: int = 0
    solves: int = 0
    warm_starts: int = 0


@dataclass
class SolveState:
    """One solved fixed point, in kernel (id-indexed) coordinates.

    Pass it back into :meth:`AnalysisContext.solve` to warm-start the
    next solve.  All vectors are parallel to the kernel's interned
    activity lists.
    """

    proc_jitter: List[float]
    proc_window: List[float]
    proc_resp: List[float]
    msg_jitter: List[float]
    msg_queue: List[float]
    msg_resp: List[float]
    ttp_jitter: List[float]
    ttp_queue: List[float]
    ttp_ahead: List[float]

    def finite(self) -> bool:
        """Whether every component converged (safe to warm-start from)."""
        for vec in (
            self.proc_jitter, self.proc_window, self.msg_jitter,
            self.msg_queue, self.ttp_jitter, self.ttp_queue,
        ):
            for value in vec:
                if value == _INF:
                    return False
        return True


def _solve_row(
    base: float,
    own_jitter: float,
    row: List[tuple],
    jitters: List[float],
    residencies: List[float],
    epsilon: float,
    bound: float,
    start: float,
) -> float:
    """Least fixed point of one busy-window equation over an id row.

    Mirrors :func:`repro.analysis.holistic._solve_window` operation for
    operation (same expressions, same summation order) so results are
    bit-identical; ``start`` seeds the iteration anywhere in
    ``[base, lfp]`` without changing the result (see module docstring).
    """
    if not row:
        return base
    if base == _INF or own_jitter == _INF:
        return _INF
    for entry in row:
        if jitters[entry[0]] == _INF:
            return _INF
    floor = math.floor
    ceil = math.ceil
    w = start
    for _ in range(_MAX_INNER_ITERATIONS):
        total = base
        for k, rel, period, cost, lck, anc in row:
            if lck:
                k_max = floor((own_jitter + w - rel) / period + 1e-9)
                k_min = ceil(
                    (-(jitters[k] + residencies[k]) - rel) / period - 1e-9
                )
                if anc and k_min < 0:
                    k_min = 0
                hits = k_max - k_min + 1
                if hits < 0:
                    hits = 0
            else:
                x = w + jitters[k] + epsilon
                hits = ceil(x / period - 1e-12) if x > 0 else 0
            total += hits * cost
        if total == w:
            return w
        if total > bound:
            return _INF
        w = total
    return _INF


class AnalysisContext:
    """A holistic analysis compiled once per ``(System, π, β)``.

    See the module docstring for the compile/update/solve split.  The
    context is deliberately *not* thread-safe: a :class:`Session` owns
    one and serializes access.
    """

    def __init__(
        self,
        system: System,
        priorities: PriorityAssignment,
        bus: TTPBusConfig,
        faults=None,
        routes=None,
    ) -> None:
        self.system = system
        self.stats = KernelStats()
        # General topologies (or non-default route overrides) run the
        # route-aware per-leg solver (repro.analysis.multihop) instead
        # of the interned canonical rows: the canonical compile below
        # stays byte-for-byte the pre-routing fast path, and multi-hop
        # systems pay an interpreted solve per call (compiling per-leg
        # rows for general graphs is tracked in ROADMAP.md).
        self._multihop = system.multi_topology or bool(routes)
        self._plan = None
        if self._multihop:
            self._plan = system.routing_for(routes)
            self._route_overrides = dict(routes) if routes else {}
            self._max_graph_period = max(
                g.period for g in system.app.graphs.values()
            )
        else:
            self._compile_static()
        # Modeled CAN error process: one virtual unlocked interferer
        # (see repro.analysis.can_analysis.can_error_term) appended to
        # every CAN row.  Its id is the virtual slot len(can_msgs); its
        # jitter is a constant held in the extra msg_jitter slot.
        # Degradation factors (node_slow / bus_slow) are *not* handled
        # here — callers derate the System before compiling a context.
        self.faults = faults
        self._can_error: Optional[Tuple[float, float, float]] = None
        term = can_error_term(system, faults)
        if term is not None:
            self._can_error = (term.period, term.cost, term.jitter)
        self._compiled = False
        self._proc_prio: List[int] = []
        self._msg_prio: List[int] = []
        self._bus: Optional[TTPBusConfig] = None
        self.update(priorities, bus, routes=routes)

    # -- static (per-System) compile ----------------------------------------

    def _compile_static(self) -> None:
        system = self.system
        app = system.app
        arch = system.arch

        self.et_procs: List[str] = system.et_processes()
        self.proc_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.et_procs)
        }
        self.can_msgs: List[str] = system.can_messages()
        self.msg_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.can_msgs)
        }
        self.ettt_msgs: List[str] = system.et_to_tt_messages()
        self.ettt_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.ettt_msgs)
        }

        self._wcet = [app.process(p).wcet for p in self.et_procs]
        self._proc_period = [
            app.period_of_process(p) for p in self.et_procs
        ]
        self._proc_node = [app.process(p).node for p in self.et_procs]
        self._msg_period = [
            app.period_of_message(m) for m in self.can_msgs
        ]
        self._frame_time = [
            system.can_frame_time(m) for m in self.can_msgs
        ]
        self._msg_size = [
            float(app.message(m).size) for m in self.can_msgs
        ]
        self._msg_route = [system.route(m) for m in self.can_msgs]
        self._ettt_can = [self.msg_index[m] for m in self.ettt_msgs]
        self._ettt_size = [self._msg_size[i] for i in self._ettt_can]

        # Source of each CAN message: the ET sender's id, or -1 for
        # TT->ET messages (their jitter is the gateway transfer time).
        self._msg_src: List[int] = []
        for i, m in enumerate(self.can_msgs):
            if self._msg_route[i] is MessageRoute.TT_TO_ET:
                self._msg_src.append(-1)
            else:
                self._msg_src.append(self.proc_index[app.message(m).src])

        # Incoming arcs of every ET process, for release jitter
        # propagation: (can message id, -1, "") for message arcs,
        # (-1, ET predecessor id, "") for same-cluster precedence, and
        # (-1, -1, name) for a TT predecessor (fixed response = WCET).
        self._proc_arcs: List[List[Tuple[int, int, str]]] = []
        for p in self.et_procs:
            graph = app.graph_of_process(p)
            arcs: List[Tuple[int, int, str]] = []
            for pred, msg_name in graph.predecessors(p):
                if msg_name is not None:
                    arcs.append((self.msg_index[msg_name], -1, ""))
                elif pred in self.proc_index:
                    arcs.append((-1, self.proc_index[pred], ""))
                else:
                    arcs.append((-1, -1, pred))
            self._proc_arcs.append(arcs)
        self._tt_pred_wcet = {
            p.name: p.wcet
            for p in app.all_processes()
            if not arch.is_et_node(p.node)
        }

        self._procs_on_node: Dict[str, List[int]] = {}
        for i, node in enumerate(self._proc_node):
            self._procs_on_node.setdefault(node, []).append(i)

        self._transfer_wcet = gateway_transfer_delay(system)
        self._gateway = arch.gateway
        self._max_graph_period = max(
            (g.period for g in app.graphs.values()), default=0.0
        )

        # Ancestor flags are priority-independent; precompute the pair
        # tables once so row rebuilds never re-query the System.
        self._msg_anc = [
            [
                system.message_is_ancestor(j, m)
                for j in self.can_msgs
            ]
            for m in self.can_msgs
        ]
        self._proc_anc_rows: Dict[int, List[bool]] = {}
        for node, members in self._procs_on_node.items():
            for i in members:
                self._proc_anc_rows[i] = [
                    system.process_is_ancestor(
                        self.et_procs[j], self.et_procs[i]
                    )
                    for j in members
                ]

        # Out_TTP FIFO competitor rows are priority-*independent* — the
        # FIFO drains in arrival order (repro.semantics contract), so the
        # row of every ET->TT message is all other ET->TT messages and is
        # compiled once per System, never rebuilt on a (π, β) re-target.
        self._ttp_rows = [
            self._build_ttp_row(i) for i in range(len(self.ettt_msgs))
        ]
        # Largest frame (own message included) pending per FIFO row —
        # the fragmentation term of the whole-frame drain bound.
        self._ttp_max_size = [
            max(
                [self._ettt_size[i]]
                + [entry[3] for entry in self._ttp_rows[i]]
            )
            for i in range(len(self.ettt_msgs))
        ]

    # -- (π, β) compile and incremental update ------------------------------

    def _build_can_row(self, i: int, prio: List[int]) -> List[tuple]:
        """Higher-priority interferer row of CAN message ``i``.

        Entries are ``(id, rel, period, cost, locked, ancestor)`` in the
        legacy iteration order (sorted message names); ``rel`` is filled
        by :meth:`_refresh_offsets` (it depends on ``φ``).
        """
        own = prio[i]
        period_i = self._msg_period[i]
        anc = self._msg_anc[i]
        row = [
            (j, 0.0, self._msg_period[j], self._frame_time[j],
             self._msg_period[j] == period_i, anc[j])
            for j in range(len(self.can_msgs))
            if j != i and prio[j] <= own
        ]
        if self._can_error is not None:
            # Error process interferes with every message regardless of
            # priority; appended last so the legacy summation order
            # (real interferers first, error term last) is preserved.
            period, cost, _ = self._can_error
            row.append((len(self.can_msgs), 0.0, period, cost, False, False))
        return row

    def _build_can_blocking(self, i: int, prio: List[int]) -> tuple:
        """Blocking structure of CAN message ``i``.

        ``B_m`` is the largest lower-priority frame that can already be
        on the wire.  The part contributed by different-period messages
        is a constant; the equal-period candidates depend on offsets and
        on ``m``'s evolving jitter, so they are kept as a candidate list
        that :meth:`_refresh_offsets` turns into a sorted
        offset/prefix-max table (the per-iteration query is then a
        binary search instead of a scan).
        """
        own = prio[i]
        period_i = self._msg_period[i]
        diff_const = 0.0
        same: List[int] = []
        for j in range(len(self.can_msgs)):
            if j == i or prio[j] <= own:
                continue
            if self._msg_period[j] == period_i:
                same.append(j)
            elif self._frame_time[j] > diff_const:
                diff_const = self._frame_time[j]
        return (diff_const, same)

    def _build_ttp_row(self, i: int) -> List[tuple]:
        """Out_TTP FIFO competitor row of ET->TT message ``i``.

        Priority-blind by the shared FIFO contract
        (:func:`repro.semantics.fifo_competitors`): every other ET->TT
        message can sit ahead of ``i`` in the arrival-ordered queue.
        """
        can_i = self._ettt_can[i]
        period_i = self._msg_period[can_i]
        anc = self._msg_anc[can_i]
        competitors = set(
            fifo_competitors(self.system, self.ettt_msgs[i])
        )
        return [
            (j, 0.0, self._msg_period[cj], self._msg_size[cj],
             self._msg_period[cj] == period_i, anc[cj])
            for j, cj in enumerate(self._ettt_can)
            if self.ettt_msgs[j] in competitors
        ]

    def _build_proc_row(self, i: int, prio: List[int]) -> List[tuple]:
        """Same-node higher-priority interferer row of ET process ``i``."""
        own = prio[i]
        period_i = self._proc_period[i]
        members = self._procs_on_node[self._proc_node[i]]
        anc = self._proc_anc_rows[i]
        return [
            (j, 0.0, self._proc_period[j], self._wcet[j],
             self._proc_period[j] == period_i, anc[pos])
            for pos, j in enumerate(members)
            if j != i and prio[j] < own
        ]

    def _snapshot_bus(self, bus: TTPBusConfig) -> None:
        # Validate before assigning anything: a bus without a gateway
        # slot must not leave half-updated scalars behind (a retry with
        # the same object would then skip re-validation entirely).
        gateway_slot = bus.slot_of(self._gateway)
        self._bus = bus
        self._round_length = bus.round_length
        self._gateway_capacity = gateway_slot.capacity
        self._gateway_slot_time = gateway_slot.duration
        self._horizon = (
            4.0 * max(self._max_graph_period, bus.round_length) + 1.0e4
        )

    def update(
        self,
        priorities: PriorityAssignment,
        bus: TTPBusConfig,
        routes=None,
    ) -> str:
        """Re-target the kernel at a new ``(π, β)`` (and, for general
        topologies, a new route assignment).

        Returns ``"compiled"`` on the first (full) build,
        ``"incremental"`` when only the rows mentioning changed
        activities were rebuilt, and ``"cached"`` when nothing changed.
        A ``β`` change alone never rebuilds a row — the TDMA round only
        enters the analysis through the gateway slot scalars and the
        divergence horizon.
        """
        if self._multihop:
            # Route-aware solves re-read (π, β, routes) per call; the
            # only state to refresh here is the plan (a route move from
            # the optimizer) and the solve inputs.
            if routes is not None and dict(routes) != getattr(
                self, "_route_overrides", None
            ):
                self._plan = self.system.routing_for(routes)
                self._route_overrides = dict(routes)
            self._priorities = priorities
            self._bus = bus
            if not self._compiled:
                self._compiled = True
                self.stats.compiles += 1
                return "compiled"
            self.stats.updates += 1
            return "incremental"
        if routes:
            raise AnalysisError(
                "route overrides require a kernel created with routes= "
                "(the canonical compiled rows are single-hop)"
            )
        proc_prio = [
            priorities.process_priority(p) for p in self.et_procs
        ]
        msg_prio = [
            priorities.message_priority(m) for m in self.can_msgs
        ]
        if not self._compiled:  # first build
            self._can_rows = [
                self._build_can_row(i, msg_prio)
                for i in range(len(self.can_msgs))
            ]
            self._can_blocking = [
                self._build_can_blocking(i, msg_prio)
                for i in range(len(self.can_msgs))
            ]
            self._proc_rows = [
                self._build_proc_row(i, proc_prio)
                for i in range(len(self.et_procs))
            ]
            self._proc_prio = proc_prio
            self._msg_prio = msg_prio
            self._snapshot_bus(bus)
            self._compiled = True
            self.stats.compiles += 1
            return "compiled"

        changed = False
        changed_msgs = [
            j for j in range(len(self.can_msgs))
            if msg_prio[j] != self._msg_prio[j]
        ]
        if changed_msgs:
            old = self._msg_prio
            for i in range(len(self.can_msgs)):
                if i in changed_msgs or any(
                    (old[j] <= old[i]) != (msg_prio[j] <= msg_prio[i])
                    for j in changed_msgs
                    if j != i
                ):
                    self._can_rows[i] = self._build_can_row(i, msg_prio)
                    self._can_blocking[i] = self._build_can_blocking(
                        i, msg_prio
                    )
                    self.stats.rows_recompiled += 1
            # Out_TTP FIFO rows are priority-blind (built once in
            # _compile_static) — a π change never touches them.
            self._msg_prio = msg_prio
            changed = True

        changed_procs = [
            j for j in range(len(self.et_procs))
            if proc_prio[j] != self._proc_prio[j]
        ]
        if changed_procs:
            old = self._proc_prio
            touched_nodes = {self._proc_node[j] for j in changed_procs}
            for node in touched_nodes:
                peers = [
                    j for j in changed_procs if self._proc_node[j] == node
                ]
                for i in self._procs_on_node[node]:
                    if i in peers or any(
                        (old[j] < old[i]) != (proc_prio[j] < proc_prio[i])
                        for j in peers
                        if j != i
                    ):
                        self._proc_rows[i] = self._build_proc_row(
                            i, proc_prio
                        )
                        self.stats.rows_recompiled += 1
            self._proc_prio = proc_prio
            changed = True

        if self._bus is not bus:
            same = (
                self._bus is not None
                and len(self._bus.slots) == len(bus.slots)
                and all(
                    a.node == b.node
                    and a.capacity == b.capacity
                    and a.duration == b.duration
                    for a, b in zip(self._bus.slots, bus.slots)
                )
            )
            self._snapshot_bus(bus)
            if not same:
                changed = True

        if changed:
            self.stats.updates += 1
            return "incremental"
        return "cached"

    # -- per-solve (φ-dependent) refresh ------------------------------------

    def _refresh_offsets(self, offsets: OffsetTable) -> None:
        """Fill the offset-dependent pieces: relative phases and the
        equal-period blocking tables.  O(row entries), no priority or
        ancestor queries."""
        proc_off_map = offsets.process_offsets
        msg_off_map = offsets.message_offsets
        self._proc_off = [
            proc_off_map.get(p, 0.0) for p in self.et_procs
        ]
        self._msg_off = [
            msg_off_map.get(m, 0.0) for m in self.can_msgs
        ]
        self._proc_off_map = proc_off_map
        self._msg_off_map = msg_off_map

        msg_off = self._msg_off
        proc_off = self._proc_off

        def _rel(off_j: float, off_i: float, period: float) -> float:
            return (off_j - off_i) % period

        self._can_rows_z: List[List[tuple]] = []
        for i, row in enumerate(self._can_rows):
            off_i = msg_off[i]
            self._can_rows_z.append([
                (k,
                 _rel(msg_off[k], off_i, period) if lck else 0.0,
                 period, cost, lck, anc)
                for k, _, period, cost, lck, anc in row
            ])
        self._ttp_rows_z: List[List[tuple]] = []
        for i, row in enumerate(self._ttp_rows):
            off_i = msg_off[self._ettt_can[i]]
            self._ttp_rows_z.append([
                (k,
                 _rel(msg_off[self._ettt_can[k]], off_i, period)
                 if lck else 0.0,
                 period, cost, lck, anc)
                for k, _, period, cost, lck, anc in row
            ])
        self._proc_rows_z: List[List[tuple]] = []
        for i, row in enumerate(self._proc_rows):
            off_i = proc_off[i]
            self._proc_rows_z.append([
                (k,
                 _rel(proc_off[k], off_i, period) if lck else 0.0,
                 period, cost, lck, anc)
                for k, _, period, cost, lck, anc in row
            ])

        # Equal-period blocking candidates, sorted by offset with a
        # running prefix maximum of frame times.  A candidate blocks m
        # exactly when its offset lies strictly before O_m + J_m, so the
        # worst blocker among the first bisect(offsets, O_m + J_m)
        # candidates is one prefix-max lookup.  Atomic gateway frames
        # (both TT->ET, same offset — enqueued together by the transfer
        # process) can never block and are dropped here.
        self._blk_offsets: List[List[float]] = []
        self._blk_prefmax: List[List[float]] = []
        for i, (_, same) in enumerate(self._can_blocking):
            pairs = []
            own_tt = self._msg_route[i] is MessageRoute.TT_TO_ET
            off_i = msg_off[i]
            for j in same:
                if (
                    own_tt
                    and self._msg_route[j] is MessageRoute.TT_TO_ET
                    and msg_off[j] == off_i
                ):
                    continue
                pairs.append((msg_off[j], self._frame_time[j]))
            pairs.sort()
            offs = [p[0] for p in pairs]
            pref: List[float] = []
            worst = 0.0
            for _, cost in pairs:
                if cost > worst:
                    worst = cost
                pref.append(worst)
            self._blk_offsets.append(offs)
            self._blk_prefmax.append(pref)

    def _blocking(self, i: int, own_jitter: float) -> float:
        """``B_m`` of CAN message ``i`` at the current jitter."""
        worst = self._can_blocking[i][0]
        offs = self._blk_offsets[i]
        if offs:
            bound = self._msg_off[i] + own_jitter
            count = bisect_left(offs, bound)
            if count:
                pref = self._blk_prefmax[i][count - 1]
                if pref > worst:
                    worst = pref
        return worst

    # -- the fixed point -----------------------------------------------------

    def solve(
        self,
        offsets: OffsetTable,
        warm: Optional[SolveState] = None,
    ) -> Tuple[ResponseTimes, SolveState]:
        """Run the holistic fixed point for one offset table ``φ``.

        ``warm`` seeds the state vector from a previous solution (see
        the module docstring for the soundness argument); a seed with
        non-converged entries is ignored.  Returns the packaged
        :class:`ResponseTimes` and the raw :class:`SolveState` to pass
        back in next time.
        """
        if _obs_state.enabled:
            import time as _time

            started = _time.perf_counter()
            with _obs_trace.span(
                "kernel.solve", warm=warm is not None
            ):
                out = self._solve_impl(offsets, warm)
            _obs_metrics.observe(
                "repro_kernel_solve_seconds",
                _time.perf_counter() - started,
            )
            return out
        return self._solve_impl(offsets, warm)

    def _solve_impl(
        self,
        offsets: OffsetTable,
        warm: Optional[SolveState] = None,
    ) -> Tuple[ResponseTimes, SolveState]:
        if self._multihop:
            from .multihop import multihop_response_time_analysis

            self.stats.solves += 1
            rho = multihop_response_time_analysis(
                self.system,
                offsets,
                self._priorities,
                self._bus,
                self._plan,
                faults=self.faults,
            )
            # The interpreted path carries no warm-start vectors; the
            # Fig. 5 loop treats a None state as a cold solve.
            return rho, None
        self._refresh_offsets(offsets)
        self.stats.solves += 1

        n_proc = len(self.et_procs)
        n_msg = len(self.can_msgs)
        n_ttp = len(self.ettt_msgs)
        wcet = self._wcet
        frame_time = self._frame_time
        horizon = self._horizon
        transfer_response = self._transfer_wcet
        bus = self._bus
        round_length = self._round_length
        gateway_capacity = self._gateway_capacity
        gateway = self._gateway
        msg_off = self._msg_off
        proc_off = self._proc_off
        msg_src = self._msg_src
        routes = self._msg_route
        tt_to_et = MessageRoute.TT_TO_ET

        if warm is not None and warm.finite():
            self.stats.warm_starts += 1
            pj = list(warm.proc_jitter)
            pw = list(warm.proc_window)
            pr = list(warm.proc_resp)
            mj = list(warm.msg_jitter)
            mq = list(warm.msg_queue)
            mr = list(warm.msg_resp)
            tj = list(warm.ttp_jitter)
            tq = list(warm.ttp_queue)
            ta = list(warm.ttp_ahead)
        else:
            pj = [0.0] * n_proc
            pw = list(wcet)
            pr = list(wcet)
            mj = [0.0] * n_msg
            mq = [0.0] * n_msg
            mr = list(frame_time)
            tj = [0.0] * n_ttp
            tq = [0.0] * n_ttp
            ta = [0.0] * n_ttp

        if self._can_error is not None:
            # Virtual error slot: constant jitter at index n_msg.  The
            # step-1 jitter sweep only writes indices < n_msg, so the
            # slot survives every outer iteration; slicing first makes
            # warm states valid whichever shape they were saved with.
            mj = mj[:n_msg] + [self._can_error[2]]

        can_rows = self._can_rows_z
        ttp_rows = self._ttp_rows_z
        proc_rows = self._proc_rows_z
        ettt_can = self._ettt_can
        ettt_size = self._ettt_size
        floor = math.floor
        ceil = math.ceil

        for _ in range(_MAX_OUTER_ITERATIONS):
            changed = False

            # 1. Message queueing jitters from current process responses.
            for i in range(n_msg):
                if routes[i] is tt_to_et:
                    j = transfer_response
                else:
                    src = msg_src[i]
                    j = pr[src] - wcet[src]
                    if j < 0.0:
                        j = 0.0
                if j != mj[i]:
                    mj[i] = j
                    changed = True

            # 2. CAN bus queueing delays.  Residency of an interferer on
            # the wire: its own queueing delay plus its frame time.
            res_can = [
                (mq[i] if mq[i] != _INF else horizon) + frame_time[i]
                for i in range(n_msg)
            ]
            for i in range(n_msg):
                base = self._blocking(i, mj[i])
                prev = mq[i]
                start = prev if base < prev < _INF else base
                w = _solve_row(
                    base, mj[i], can_rows[i], mj, res_can,
                    TIE_EPSILON, horizon, start,
                )
                if w != mq[i]:
                    mq[i] = w
                    changed = True
                mr[i] = mj[i] + w + frame_time[i]

            # 3. Gateway Out_TTP FIFO for ET->TT messages.
            for i in range(n_ttp):
                j = mr[ettt_can[i]] + transfer_response
                if j != tj[i]:
                    tj[i] = j
                    changed = True
            for i in range(n_ttp):
                instant = ettt_queue_instant(msg_off[ettt_can[i]], tj[i])
                if instant == _INF:
                    if tq[i] != _INF:
                        changed = True
                    tq[i] = _INF
                    ta[i] = _INF
                    continue
                blocking = bus.waiting_time(gateway, instant)
                row = ttp_rows[i]
                diverged = False
                for entry in row:
                    if tj[entry[0]] == _INF:
                        diverged = True
                        break
                if diverged:
                    if tq[i] != _INF:
                        changed = True
                    tq[i] = _INF
                    ta[i] = _INF
                    continue
                own_j = tj[i]
                max_size = self._ttp_max_size[i]
                w = blocking
                ahead = 0.0
                for _inner in range(_MAX_INNER_ITERATIONS):
                    ahead = 0.0
                    count = 0
                    for k, rel, period, cost, lck, anc in row:
                        if lck:
                            k_max = floor(
                                (own_j + w - rel) / period + 1e-9
                            )
                            resid = tq[k] if tq[k] != _INF else horizon
                            k_min = ceil(
                                (-(tj[k] + resid) - rel) / period - 1e-9
                            )
                            if anc and k_min < 0:
                                k_min = 0
                            hits = k_max - k_min + 1
                            if hits < 0:
                                hits = 0
                        else:
                            x = w + tj[k]
                            hits = (
                                ceil(x / period - 1e-12) if x > 0 else 0
                            )
                        ahead += hits * cost
                        count += hits
                    # Whole-frame drain bound (repro.semantics): mirrors
                    # the legacy pass operation for operation.
                    rounds = fifo_drain_rounds(
                        ettt_size[i], ahead, count,
                        gateway_capacity, max_size,
                    )
                    w_next = blocking + (rounds - 1) * round_length
                    if w_next == w:
                        break
                    if w_next > horizon:
                        w = _INF
                        break
                    w = w_next
                else:
                    w = _INF
                if w != tq[i]:
                    tq[i] = w
                    ta[i] = ahead
                    changed = True

            # 4. Release jitters of ET processes from incoming arcs.
            for i in range(n_proc):
                own_offset = proc_off[i]
                jitter = 0.0
                for msg_idx, pred_idx, pred_name in self._proc_arcs[i]:
                    if msg_idx >= 0:
                        arrival = msg_off[msg_idx] + mr[msg_idx]
                    elif pred_idx >= 0:
                        arrival = proc_off[pred_idx] + pr[pred_idx]
                    else:
                        arrival = self._proc_off_map.get(
                            pred_name, 0.0
                        ) + self._tt_pred_wcet[pred_name]
                    if arrival - own_offset > jitter:
                        jitter = arrival - own_offset
                if jitter != pj[i]:
                    pj[i] = jitter
                    changed = True

            # 5. Busy windows of ET processes.  Residency of an
            # interfering process: its whole busy window (snapshot taken
            # before the sweep, as in the legacy pass).
            res_proc = [
                pw[i] if pw[i] != _INF else horizon
                for i in range(n_proc)
            ]
            for i in range(n_proc):
                base = wcet[i]
                prev = pw[i]
                start = prev if base < prev < _INF else base
                window = _solve_row(
                    base, pj[i], proc_rows[i], pj, res_proc,
                    0.0, horizon, start,
                )
                if window != pw[i]:
                    pw[i] = window
                    changed = True
                pr[i] = pj[i] + window

            if not changed:
                break
        else:
            raise AnalysisError(
                "holistic analysis did not stabilize within "
                f"{_MAX_OUTER_ITERATIONS} iterations"
            )

        state = SolveState(
            proc_jitter=pj, proc_window=pw, proc_resp=pr,
            msg_jitter=mj, msg_queue=mq, msg_resp=mr,
            ttp_jitter=tj, ttp_queue=tq, ttp_ahead=ta,
        )
        return self._package(state), state

    # -- packaging -----------------------------------------------------------

    def _package(self, state: SolveState) -> ResponseTimes:
        """Translate a solved state back into the named ``ρ`` record."""
        system = self.system
        app = system.app
        arch = system.arch
        proc_off_map = self._proc_off_map
        msg_off = self._msg_off
        result = ResponseTimes()
        proc_index = self.proc_index
        for proc in app.all_processes():
            name = proc.name
            if arch.is_tt_node(proc.node):
                result.processes[name] = ActivityTiming(
                    offset=proc_off_map.get(name, 0.0),
                    jitter=0.0,
                    queuing=0.0,
                    duration=proc.wcet,
                )
            else:
                i = proc_index[name]
                window = state.proc_window[i]
                jitter = state.proc_jitter[i]
                converged = window != _INF and jitter != _INF
                result.processes[name] = ActivityTiming(
                    offset=self._proc_off[i],
                    jitter=jitter if converged else _INF,
                    queuing=window - proc.wcet if converged else _INF,
                    duration=proc.wcet,
                    converged=converged,
                )
        result.processes[GATEWAY_TRANSFER_PROCESS] = ActivityTiming(
            offset=0.0, jitter=0.0, queuing=0.0,
            duration=self._transfer_wcet,
        )
        for i, m in enumerate(self.can_msgs):
            converged = (
                state.msg_queue[i] != _INF and state.msg_jitter[i] != _INF
            )
            result.can[m] = ActivityTiming(
                offset=msg_off[i],
                jitter=state.msg_jitter[i] if converged else _INF,
                queuing=state.msg_queue[i] if converged else _INF,
                duration=self._frame_time[i],
                converged=converged,
            )
        for i, m in enumerate(self.ettt_msgs):
            converged = (
                state.ttp_queue[i] != _INF and state.ttp_jitter[i] != _INF
            )
            result.ttp[m] = ActivityTiming(
                offset=msg_off[self._ettt_can[i]],
                jitter=state.ttp_jitter[i] if converged else _INF,
                queuing=state.ttp_queue[i] if converged else _INF,
                duration=self._gateway_slot_time,
                converged=converged,
            )
        route = system.route
        msg_off_map = self._msg_off_map
        for msg in app.all_messages():
            if route(msg.name) is MessageRoute.TT_TO_TT:
                result.tt_arrival[msg.name] = msg_off_map.get(
                    msg.name, 0.0
                )
        return result
