"""Compiled analysis kernel: the holistic response-time analysis of every
topology, and the optimizer hot path.

The interpreted analyses it replaced (kept as parity oracles under
``tests/oracles``) recompile their full O(n²) interference structure —
string-keyed dicts, per-pair ancestor queries, relative phases — on
**every** call, while the Fig. 5 multi-cluster loop calls the analysis
up to 30 times per evaluation and the synthesis heuristics run
thousands of evaluations.  Everything but the jitters is structurally
invariant across those calls (the classic observation behind Tindell &
Clark's holistic analysis and Palencia & Harbour's offset refinement),
which is exactly what a compiled kernel exploits.

The kernel analyses two kinds of interned *slots*: a **CAN slot** per
bus leg a message crosses and a **FIFO slot** per gateway ``Out_TTP``
leg.  One front end interns them, one slot per
:class:`~repro.semantics.routing.Leg` of the system's
:class:`~repro.semantics.routing.RoutingPlan`, and every CAN slot
carries a jitter-chain descriptor that threads the legs of a route
together (the per-leg rules are listed in
:mod:`repro.analysis.multihop`).  The paper's canonical shape — one
TTC, one ETC, one gateway — is simply the one-gateway plan: one CAN
slot per CAN-borne message and one FIFO slot per ET->TT message.

:class:`AnalysisContext` then splits the work into three tiers:

* **compile** (once per :class:`~repro.system.System` and modeled
  fault spec — the System caches its kernels, see :func:`kernel_for` —
  and once per routing plan): intern every activity — ET process, CAN
  slot, FIFO slot — to an integer id and record the id-indexed
  constants (periods, WCETs, frame times, sizes, precedence arcs,
  ancestor flags, jitter chains, the priority-blind FIFO competitor
  rows).
* **update** (once per ``(π, β)``): flatten the priority-dependent
  interference sets into parallel index/value rows.  When only a few
  activities changed priority (an OptimizeResources swap, an
  OptimizeSchedule slot candidate) only the rows whose *membership*
  could have changed are rebuilt — O(n·|changed|) instead of O(n²) —
  and a ``β`` change touches nothing but a handful of scalars (gateway
  slots, round length, divergence horizon).  A new routing plan
  re-interns the legs and rebuilds every row.
* **solve** (once per offsets ``φ``): run the global monotone fixed
  point entirely over list indices — no string-dict lookups anywhere on
  the inner loops.  The solve does only the work whose answer it does
  not already know:

  - *active set*: a sweep re-solves a CAN, FIFO or process row (and
    recomputes a jitter) only when one of its inputs changed since it
    was last solved, and the fixed point stops as soon as nothing is
    dirty.  A row is a deterministic function of its inputs, so a
    skipped row would have returned the value it already holds;
  - *exact reuse*: a small LRU of solutions, keyed on everything a
    solve reads — ``π``, the ``β`` slots, the ET-process and CAN-message
    offsets and the offsets of the TT predecessors the release jitters
    read — answers a repeated solve without iterating.  A re-schedule
    that moved only TT activities the ET analysis never reads repeats
    the previous solve exactly;
  - ``ttp_only=True`` packages just the gateway FIFO records, the only
    part of ``ρ`` the Fig. 5 loop reads between passes; the loop
    packages the full ``ρ`` once, from its last state
    (:meth:`AnalysisContext.package`).

Every solve starts from zero jitter.  Within it, each activity's
busy-window equation is warm-started from its window of the previous
outer iteration.  This is exact: the outer Gauss-Seidel state ratchets
monotonically upward from bottom, so the previous window is ≤ the new
least fixed point, and a monotone busy-window iteration started anywhere
at or below its least fixed point converges to exactly that fixed point.
The one exception is a row that diverged from such a start: it stays
dirty for one more sweep, which re-solves it from its base as a full
sweep would.  Every solve is parity-tested bit for bit against the
interpreted oracles.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..buses.ttp import TTPBusConfig
from ..exceptions import AnalysisError
from ..model.architecture import GATEWAY_TRANSFER_PROCESS, MessageRoute
from ..model.configuration import OffsetTable, PriorityAssignment
from ..obs import metrics as _obs_metrics
from ..obs import state as _obs_state
from ..obs import trace as _obs_trace
from ..semantics import ettt_queue_instant, fifo_drain_rounds
from ..system import System, lru_lookup
from .can_analysis import TIE_EPSILON, can_error_term
from .timing import ActivityTiming, ResponseTimes

__all__ = ["AnalysisContext", "KernelStats", "SolveState", "kernel_for"]

_MAX_OUTER_ITERATIONS = 1_000
_MAX_INNER_ITERATIONS = 50_000
#: Solutions kept per kernel for exact reuse.
_MAX_SOLVED = 16
#: Kernels kept per System (one per modeled fault spec).
_MAX_KERNELS = 8

_INF = math.inf

# Jitter-chain descriptors of a CAN slot, ``(kind, index, transfer)``:
#: sent by the ET process ``index``: ``J = r_S - C_S``;
_SOURCE = 0
#: entered from the TT side (MBI arrival is the offset): ``J = C_T``;
_ENTRY = 1
#: relayed after FIFO slot ``index`` (transit through the TT cluster):
#: ``J = J_fifo + w_fifo + slot + C_T``;
_TRANSIT = 2
#: relayed after CAN slot ``index`` (an ET->ET gateway): ``J = r + C_T``.
_RELAY = 3


@dataclass
class KernelStats:
    """Counters describing how a kernel earned its keep.

    ``compiles`` counts full interference-table builds, ``updates`` the
    incremental row rebuilds that replaced one, ``solves`` the fixed
    points asked for.  ``reused_solves`` counts solves answered from the
    kernel's cache of identical earlier solves; of the others,
    ``rows_solved`` counts the busy-window rows (CAN, FIFO and process)
    re-solved and ``rows_skipped`` the rows a sweep left alone because
    none of their inputs had changed.
    """

    compiles: int = 0
    updates: int = 0
    rows_recompiled: int = 0
    solves: int = 0
    reused_solves: int = 0
    rows_solved: int = 0
    rows_skipped: int = 0


@dataclass
class SolveState:
    """One solved fixed point, in kernel (id-indexed) coordinates.

    All vectors are parallel to the kernel's interned activity lists:
    ``msg_*`` to the CAN slots, ``ttp_*`` to the FIFO slots (one per
    FIFO leg, so at most one per message).  The kernel keeps its states
    for reuse, so treat a returned state as read-only.
    """

    proc_jitter: List[float]
    proc_window: List[float]
    proc_resp: List[float]
    msg_jitter: List[float]
    msg_queue: List[float]
    msg_resp: List[float]
    ttp_jitter: List[float]
    ttp_queue: List[float]


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

    Mirrors the interpreted oracles' busy-window iteration operation for
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


def _readers(rows: List[List[tuple]], n: int) -> Tuple[list, list]:
    """Reverse dependencies of ``n`` activities' busy-window ``rows``.

    Per activity ``k``: the rows that read its jitter (its own row
    first, then every row it interferes in) and the rows that read its
    residency (the locked entries).  The CAN error process's virtual
    slot (id ``n``) is constant and has no readers.
    """
    jitter = [[k] for k in range(n)]
    residency: List[List[int]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for entry in row:
            k = entry[0]
            if k < n:
                jitter[k].append(i)
                if entry[4]:
                    residency[k].append(i)
    return jitter, residency


class AnalysisContext:
    """A holistic analysis compiled once per ``(System, plan, π, β)``.

    See the module docstring for the compile/update/solve split.  The
    context is deliberately *not* thread-safe: its System caches it
    (:func:`kernel_for`) and every caller on that System shares it.
    """

    def __init__(
        self,
        system: System,
        priorities: PriorityAssignment,
        bus: TTPBusConfig,
        faults=None,
        routes=None,
    ) -> None:
        # Weak: the System caches its kernels (kernel_for), and a
        # dropped System must not wait for the cycle collector.
        self._system = weakref.ref(system)
        self.stats = KernelStats()
        # Modeled CAN error process: one virtual unlocked interferer
        # (see repro.analysis.can_analysis.can_error_term) appended to
        # every CAN row.  Its id is the virtual slot after the last CAN
        # slot; its jitter is a constant held in the extra msg_jitter
        # slot.  Degradation factors (node_slow / bus_slow) are *not*
        # handled here — callers derate the System before compiling.
        self.faults = faults
        self._can_error: Optional[Tuple[float, float, float]] = None
        term = can_error_term(system, faults)
        if term is not None:
            self._can_error = (term.period, term.cost, term.jitter)
        self._compile_activities()
        # Solutions by everything a solve reads (see solve()); one
        # plan's solutions at a time.
        self._solved: OrderedDict = OrderedDict()
        # The per-leg slots of a RoutingPlan, compiled in update()
        # whenever the plan object changes.
        self._plan = None
        self._compiled = False
        self._proc_prio: List[int] = []
        self._msg_prio: List[int] = []
        self._bus: Optional[TTPBusConfig] = None
        self.update(priorities, bus, routes=routes)

    @property
    def system(self) -> System:
        """The System the kernel was compiled for (held weakly)."""
        return self._system()

    # -- static (per-System) compile ----------------------------------------

    def _compile_activities(self) -> None:
        """Per-System constants (every routing plan shares them), read
        from the System's image."""
        image = self.system.image
        et, can = image.et_procs, image.can
        self.et_procs: List[str] = [image.proc_names[p] for p in et]
        #: ET id of every process (by process id), -1 for a TT process.
        self._et_id = [-1] * len(image.proc_names)
        for i, p in enumerate(et):
            self._et_id[p] = i
        self.can_msgs: List[str] = [image.msg_names[m] for m in can]

        self._wcet = [image.proc_wcet[p] for p in et]
        self._proc_period = [image.proc_period[p] for p in et]
        self._proc_node = [image.proc_node[p] for p in et]
        self._msg_period = [image.msg_period[m] for m in can]
        self._frame_time = [image.msg_frame[m] for m in can]
        self._msg_size = [float(image.msg_size[m]) for m in can]
        # Every process in packaging order as (name, WCET, ET id), the
        # id -1 marking a TT process (fixed response = WCET).
        self._proc_records: List[Tuple[str, float, int]] = list(
            zip(image.proc_names, image.proc_wcet, self._et_id)
        )
        self._tt_pred_wcet: Dict[str, float] = {
            name: wcet for name, wcet, i in self._proc_records if i < 0
        }
        self._tt_msgs = [
            name for name, route in zip(image.msg_names, image.msg_route)
            if route is MessageRoute.TT_TO_TT
        ]

        self._procs_on_node: Dict[str, List[int]] = {}
        for i, node in enumerate(self._proc_node):
            self._procs_on_node.setdefault(node, []).append(i)

        self._max_graph_period = max(
            (g.period for g in self.system.app.graphs.values()), default=0.0
        )

        # Ancestor flags are priority-independent; precompute them once
        # so row rebuilds never re-query the image.
        self._proc_anc_rows: Dict[int, List[bool]] = {}
        for members in self._procs_on_node.values():
            for i in members:
                ancestors = image.proc_anc[et[i]]
                self._proc_anc_rows[i] = [bool(ancestors >> et[j] & 1) for j in members]

    def _compile_plan(self, plan) -> None:
        """Per-leg slots of ``plan`` (once per ``(System, plan)``), from
        its :class:`~repro.image.PlanImage`.

        CAN slots follow ``can_messages()`` order, then leg position;
        FIFO slots follow message order, which is the sorted order the
        interpreted oracle iterates.
        """
        image = self.system.image
        legs_of = plan.image
        is_fifo = legs_of.leg_fifo
        can = image.can
        transfer = image.transfer
        slot_of = [-1] * len(is_fifo)  # CAN slot of each CAN leg
        fifo_of = [-1] * len(is_fifo)  # FIFO slot of each FIFO leg
        slot_msg: List[int] = []
        slot_entry: List[tuple] = []
        slot_atomic: List[Optional[int]] = []
        slot_bus: List[int] = []
        fifo_msg: List[int] = []
        fifo_prev: List[int] = []
        fifo_gw: List[int] = []
        final_slot: Dict[int, int] = {}
        report_slot: List[int] = []
        hop_slots: List[Tuple[str, tuple]] = []
        for mi, m in enumerate(can):
            legs = legs_of.msg_legs[m]
            hops = []
            for pos, leg in enumerate(legs):
                if is_fifo[leg]:
                    fifo_of[leg] = len(fifo_msg)
                    hops.append((True, len(fifo_msg)))
                    fifo_msg.append(mi)
                    fifo_prev.append(slot_of[legs[pos - 1]])
                    fifo_gw.append(legs_of.leg_via[leg])
                    continue
                slot_of[leg] = len(slot_msg)
                hops.append((False, len(slot_msg)))
                slot_msg.append(mi)
                slot_bus.append(legs_of.leg_bus[leg])
                via, prev = legs_of.leg_via[leg], legs[pos - 1]
                if via < 0:
                    entry = (_SOURCE, self._et_id[image.msg_src[m]], 0.0)
                elif pos == 0:
                    entry = (_ENTRY, -1, transfer[via])
                elif is_fifo[prev]:
                    entry = (_TRANSIT, fifo_of[prev], transfer[via])
                else:
                    entry = (_RELAY, slot_of[prev], transfer[via])
                slot_entry.append(entry)
                slot_atomic.append(
                    via if entry[0] in (_ENTRY, _TRANSIT) else None
                )
            if legs and not is_fifo[legs[-1]]:
                final_slot[m] = slot_of[legs[-1]]
                report_slot.append(final_slot[m])
            else:
                # ET->TT: the classic convention reports the source CAN
                # leg; the FIFO leg is the ttp record.
                report_slot.append(slot_of[legs[0]])
            if len(legs) > 1:
                hop_slots.append((self.can_msgs[mi], tuple(hops)))

        msg_anc = image.msg_anc
        on_bus: Dict[int, List[int]] = {}
        for k, bus in enumerate(slot_bus):
            on_bus.setdefault(bus, []).append(k)
        self._slot_peers = []
        for i, mi in enumerate(slot_msg):
            ancestors = msg_anc[can[mi]]
            self._slot_peers.append([
                (k, slot_msg[k], bool(ancestors >> can[slot_msg[k]] & 1))
                for k in on_bus[slot_bus[i]]
                if slot_msg[k] != mi
            ])
        self._fifo_rows = []
        for f, mi in enumerate(fifo_msg):
            ancestors = msg_anc[can[mi]]
            row = []
            for leg in legs_of.fifo_users[fifo_gw[f]]:
                k = fifo_of[leg]
                mj = fifo_msg[k]
                if mj == mi:
                    continue
                row.append((
                    k, 0.0, self._msg_period[mj], self._msg_size[mj],
                    self._msg_period[mj] == self._msg_period[mi],
                    bool(ancestors >> can[mj] & 1),
                ))
            self._fifo_rows.append(row)
        self._slot_msg = slot_msg
        self._slot_entry = slot_entry
        # The gateway relaying each CAN slot from the TT side: frames
        # relayed together by one transfer process at the same offset
        # never block each other.
        self._slot_atomic = slot_atomic
        self._slot_period = [self._msg_period[k] for k in slot_msg]
        self._slot_frame = [self._frame_time[k] for k in slot_msg]
        self._fifo_msg = fifo_msg
        self._fifo_prev = fifo_prev
        self._fifo_transfer = [transfer[g] for g in fifo_gw]
        self._fifo_gateway = [image.gateways[g] for g in fifo_gw]
        self._fifo_names = [self.can_msgs[k] for k in fifo_msg]
        self._fifo_size = [self._msg_size[k] for k in fifo_msg]
        # Largest frame (own message included) pending per FIFO row —
        # the fragmentation term of the whole-frame drain bound.
        self._fifo_max_size = [
            max([self._fifo_size[i]] + [entry[3] for entry in row])
            for i, row in enumerate(self._fifo_rows)
        ]

        # Incoming arcs of every ET process, for release jitter
        # propagation: (delivering CAN slot, -1, "") for message arcs,
        # (-1, ET predecessor id, "") for same-cluster precedence, and
        # (-1, -1, name) for a TT predecessor (fixed response = WCET).
        self._proc_arcs: List[List[Tuple[int, int, str]]] = []
        for p in image.et_procs:
            arcs: List[Tuple[int, int, str]] = []
            for pred, m in image.preds[p]:
                if m >= 0:
                    arcs.append((final_slot[m], -1, ""))
                elif self._et_id[pred] >= 0:
                    arcs.append((-1, self._et_id[pred], ""))
                else:
                    arcs.append((-1, -1, image.proc_names[pred]))
            self._proc_arcs.append(arcs)
        # The TT processes whose offsets the release jitters read.
        self._tt_preds = sorted({
            name for arcs in self._proc_arcs for _, _, name in arcs if name
        })

        # Reverse dependencies of the jitter steps (the active set of
        # solve()): per CAN slot, the relayed slots, FIFO legs and ET
        # processes whose jitter reads its response; per ET process, the
        # slots it sends and the processes it releases; per FIFO slot,
        # the slots relayed after it.
        self._mr_readers = [([], [], []) for _ in slot_msg]
        self._pr_readers = [([], []) for _ in self.et_procs]
        self._fifo_relays: List[List[int]] = [[] for _ in fifo_msg]
        for i, (kind, k, _) in enumerate(slot_entry):
            if kind == _SOURCE:
                self._pr_readers[k][0].append(i)
            elif kind == _TRANSIT:
                self._fifo_relays[k].append(i)
            elif kind == _RELAY:
                self._mr_readers[k][0].append(i)
        for f, k in enumerate(fifo_prev):
            self._mr_readers[k][1].append(f)
        for i, arcs in enumerate(self._proc_arcs):
            for slot, pred, _ in arcs:
                if slot >= 0:
                    self._mr_readers[slot][2].append(i)
                elif pred >= 0:
                    self._pr_readers[pred][1].append(i)
        self._fifo_deps = _readers(self._fifo_rows, len(fifo_msg))

        self._slot_gateways = sorted(set(self._fifo_gateway))
        self._report_slot = report_slot
        # One gateway (the paper's canonical shape) keeps the classic
        # record set, as it keeps the bare queue names: no per-gateway
        # transfer process and no hops (its only multi-leg messages are
        # ET->TT, reported as can[m] and ttp[m]).
        self._hop_slots: List[Tuple[str, tuple]] = []
        self._transfer_records: List[Tuple[str, float]] = []
        if len(transfer) > 1:
            self._hop_slots = hop_slots
            self._transfer_records = [
                (f"{GATEWAY_TRANSFER_PROCESS}@{g}", cost)
                for g, cost in zip(image.gateways, transfer)
            ]

    # -- (π, β) compile and incremental update ------------------------------

    def _build_can_slot(self, i: int, prio: List[int]) -> Tuple[list, tuple]:
        """Interference row and blocking structure of CAN slot ``i``.

        Row entries are ``(id, rel, period, cost, locked, ancestor)``
        over the higher- and equal-priority slots on the same bus, in
        the oracles' iteration order; ``rel`` is filled by
        :meth:`_refresh_offsets` (it depends on ``φ``).

        ``B_m`` is the largest lower-priority frame that can already be
        on the wire.  The part contributed by different-period messages
        is a constant; the equal-period candidates depend on offsets and
        on ``m``'s evolving jitter, so they are kept as a candidate list
        that :meth:`_refresh_offsets` turns into a sorted
        offset/prefix-max table (the per-iteration query is then a
        binary search instead of a scan).
        """
        own = prio[self._slot_msg[i]]
        periods = self._slot_period
        frames = self._slot_frame
        period_i = periods[i]
        row = []
        diff_const = 0.0
        same: List[int] = []
        for k, mk, anc in self._slot_peers[i]:
            if prio[mk] <= own:
                row.append(
                    (k, 0.0, periods[k], frames[k], periods[k] == period_i,
                     anc)
                )
            elif periods[k] == period_i:
                same.append(k)
            elif frames[k] > diff_const:
                diff_const = frames[k]
        if self._can_error is not None:
            # Error process interferes with every message regardless of
            # priority; appended last so the oracles' summation order
            # (real interferers first, error term last) is preserved.
            period, cost, _ = self._can_error
            row.append((len(self._slot_msg), 0.0, period, cost, False, False))
        return row, (diff_const, same)

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
        slots = {g: bus.slot_of(g) for g in self._slot_gateways}
        self._bus = bus
        self._beta_key = tuple(
            (slot.node, slot.capacity, slot.duration) for slot in bus.slots
        )
        self._round_length = bus.round_length
        self._fifo_capacity = [slots[g].capacity for g in self._fifo_gateway]
        self._fifo_slot_time = [slots[g].duration for g in self._fifo_gateway]
        self._horizon = (
            4.0 * max(self._max_graph_period, bus.round_length) + 1.0e4
        )

    def update(
        self,
        priorities: PriorityAssignment,
        bus: TTPBusConfig,
        routes=None,
    ) -> str:
        """Re-target the kernel at a new ``(π, β)`` and route overrides
        (``None`` means the topology-default routes).

        Returns ``"compiled"`` on a full build (the first one, or a new
        routing plan), ``"incremental"`` when only the rows mentioning
        changed activities were rebuilt, and ``"cached"`` when nothing
        changed.  A ``β`` change alone never rebuilds a row — the TDMA
        round only enters the analysis through the gateway slot scalars
        and the divergence horizon.
        """
        previous, self._plan = self._plan, None
        plan = self.system.routing_for(routes)
        if plan is not previous:
            # A new plan re-interns the legs and rebuilds every row.
            self._compiled = False
            self._solved.clear()
            self._compile_plan(plan)
        # Set last: after a re-target that fails above, the next update
        # recompiles instead of reusing stale rows.
        self._plan = plan
        proc_prio = [
            priorities.process_priority(p) for p in self.et_procs
        ]
        msg_prio = [
            priorities.message_priority(m) for m in self.can_msgs
        ]
        n_slot = len(self._slot_msg)
        if not self._compiled:
            built = [self._build_can_slot(i, msg_prio) for i in range(n_slot)]
            self._can_rows = [row for row, _ in built]
            self._can_blocking = [blocking for _, blocking in built]
            self._proc_rows = [
                self._build_proc_row(i, proc_prio)
                for i in range(len(self.et_procs))
            ]
            self._can_deps = _readers(self._can_rows, n_slot)
            self._proc_deps = _readers(self._proc_rows, len(self.et_procs))
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
            for i in range(n_slot):
                mi = self._slot_msg[i]
                if mi in changed_msgs or any(
                    (old[j] <= old[mi]) != (msg_prio[j] <= msg_prio[mi])
                    for j in changed_msgs
                    if j != mi
                ):
                    self._can_rows[i], self._can_blocking[i] = (
                        self._build_can_slot(i, msg_prio)
                    )
                    self.stats.rows_recompiled += 1
            self._can_deps = _readers(self._can_rows, n_slot)
            # Out_TTP FIFO rows are priority-blind (built at compile
            # time) — a π change never touches them.
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
            self._proc_deps = _readers(self._proc_rows, len(self.et_procs))
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

    def _set_offsets(self, offsets: OffsetTable) -> tuple:
        """Point the kernel at ``φ``: the offset vectors every solve and
        :meth:`package` read.  Returns the part of ``φ`` a solve reads —
        the ET-process offsets, the CAN-message offsets and the offsets
        of the TT predecessors of ET processes — as the reuse key."""
        proc_off_map = offsets.process_offsets
        msg_off_map = offsets.message_offsets
        self._proc_off = [
            proc_off_map.get(p, 0.0) for p in self.et_procs
        ]
        msg_off = [msg_off_map.get(m, 0.0) for m in self.can_msgs]
        self._slot_off = [msg_off[k] for k in self._slot_msg]
        self._fifo_off = [msg_off[k] for k in self._fifo_msg]
        self._proc_off_map = proc_off_map
        self._msg_off_map = msg_off_map
        return (
            tuple(self._proc_off),
            tuple(msg_off),
            tuple(proc_off_map.get(p, 0.0) for p in self._tt_preds),
        )

    def _refresh_offsets(self) -> None:
        """Fill the offset-dependent pieces: relative phases and the
        equal-period blocking tables.  O(row entries), no priority or
        ancestor queries."""

        def _relative(rows: List[List[tuple]], off: List[float]):
            return [
                [
                    (k, (off[k] - off[i]) % period if lck else 0.0,
                     period, cost, lck, anc)
                    for k, _, period, cost, lck, anc in row
                ]
                for i, row in enumerate(rows)
            ]

        self._can_rows_z = _relative(self._can_rows, self._slot_off)
        self._ttp_rows_z = _relative(self._fifo_rows, self._fifo_off)
        self._proc_rows_z = _relative(self._proc_rows, self._proc_off)

        # Equal-period blocking candidates, sorted by offset with a
        # running prefix maximum of frame times.  A candidate blocks m
        # exactly when its offset lies strictly before O_m + J_m, so the
        # worst blocker among the first bisect(offsets, O_m + J_m)
        # candidates is one prefix-max lookup.  Atomic gateway frames
        # (both relayed from the TT side by the same gateway at the same
        # offset — enqueued together by its transfer process) can never
        # block and are dropped here.
        slot_off = self._slot_off
        atomic = self._slot_atomic
        self._blk_offsets: List[List[float]] = []
        self._blk_prefmax: List[List[float]] = []
        for i, (_, same) in enumerate(self._can_blocking):
            pairs = []
            own_gateway = atomic[i]
            off_i = slot_off[i]
            for j in same:
                if (
                    own_gateway is not None
                    and atomic[j] == own_gateway
                    and slot_off[j] == off_i
                ):
                    continue
                pairs.append((slot_off[j], self._slot_frame[j]))
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
        """``B_m`` of CAN slot ``i`` at the current jitter."""
        worst = self._can_blocking[i][0]
        offs = self._blk_offsets[i]
        if offs:
            bound = self._slot_off[i] + own_jitter
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
        ttp_only: bool = False,
    ) -> Tuple[ResponseTimes, SolveState]:
        """Run the holistic fixed point for one offset table ``φ``.

        Returns the packaged :class:`ResponseTimes` and the raw
        :class:`SolveState`.  ``ttp_only=True`` packages only the
        gateway FIFO records (``ρ.ttp``); :meth:`package` gives the full
        ``ρ`` of the latest solve later.

        A solve whose inputs — ``π``, the ``β`` slots and the offsets it
        reads — equal those of one of the last :data:`_MAX_SOLVED`
        solves of the current plan returns that solve's state instead of
        iterating.
        """
        if _obs_state.enabled:
            import time as _time

            started = _time.perf_counter()
            with _obs_trace.span("kernel.solve"):
                out = self._solve_impl(offsets, ttp_only)
            _obs_metrics.observe(
                "repro_kernel_solve_seconds",
                _time.perf_counter() - started,
            )
            return out
        return self._solve_impl(offsets, ttp_only)

    def _solve_impl(
        self, offsets: OffsetTable, ttp_only: bool
    ) -> Tuple[ResponseTimes, SolveState]:
        self.stats.solves += 1
        read = self._set_offsets(offsets)
        key = (
            tuple(self._proc_prio), tuple(self._msg_prio), self._beta_key,
        ) + read
        if key in self._solved:
            self.stats.reused_solves += 1
        state = lru_lookup(
            self._solved, key, self._fixed_point, _MAX_SOLVED
        )
        return self.package(state, ttp_only), state

    def _fixed_point(self) -> SolveState:
        """The active-set holistic fixed point at the current ``φ``.

        The sweep order (steps 1–5) and the per-sweep residency
        snapshots are those of a full Gauss-Seidel sweep; an entry is
        recomputed only when it is *dirty*, i.e. one of its inputs
        changed since it was last computed.  A changed value marks its
        readers at once when they read it in place, and after the step
        when they read a snapshot taken before the step.  The one input
        a dirty flag cannot see is a row's within-solve warm start: a
        row that diverged from a start above its base is re-solved next
        sweep, as a full sweep would re-solve it from the base.
        """
        self._refresh_offsets()
        n_proc = len(self.et_procs)
        n_msg = len(self._slot_msg)
        n_ttp = len(self._fifo_msg)
        wcet = self._wcet
        frame_time = self._slot_frame
        horizon = self._horizon
        bus = self._bus
        round_length = self._round_length
        fifo_off = self._fifo_off
        fifo_prev = self._fifo_prev
        fifo_transfer = self._fifo_transfer
        fifo_gateway = self._fifo_gateway
        fifo_capacity = self._fifo_capacity
        fifo_slot_time = self._fifo_slot_time
        fifo_size = self._fifo_size
        fifo_max_size = self._fifo_max_size
        slot_off = self._slot_off
        proc_off = self._proc_off
        proc_off_map = self._proc_off_map
        tt_pred_wcet = self._tt_pred_wcet
        entries = self._slot_entry
        proc_arcs = self._proc_arcs
        mr_readers = self._mr_readers
        pr_readers = self._pr_readers
        fifo_relays = self._fifo_relays
        can_jit_readers, can_res_readers = self._can_deps
        fifo_jit_readers, fifo_q_readers = self._fifo_deps
        proc_jit_readers, proc_res_readers = self._proc_deps

        pj = [0.0] * n_proc
        pw = list(wcet)
        pr = list(wcet)
        mj = [0.0] * n_msg
        mq = [0.0] * n_msg
        mr = list(frame_time)
        tj = [0.0] * n_ttp
        tq = [0.0] * n_ttp
        if self._can_error is not None:
            # Virtual error slot: constant jitter at index n_msg.  The
            # step-1 jitter sweep only writes indices < n_msg, so the
            # slot survives every outer iteration.
            mj.append(self._can_error[2])

        can_rows = self._can_rows_z
        ttp_rows = self._ttp_rows_z
        proc_rows = self._proc_rows_z
        floor = math.floor
        ceil = math.ceil

        # Dirty flags, one list per step; the first sweep computes all.
        can_jit_dirty = [True] * n_msg
        can_dirty = [True] * n_msg
        fifo_jit_dirty = [True] * n_ttp
        fifo_dirty = [True] * n_ttp
        proc_jit_dirty = [True] * n_proc
        proc_dirty = [True] * n_proc
        # Slot wait B of each FIFO row at the instant it was taken.
        fifo_instant = [None] * n_ttp
        fifo_blocking = [0.0] * n_ttp
        solved = 0
        sweeps = 0

        for sweeps in range(1, _MAX_OUTER_ITERATIONS + 1):
            # 1. CAN queueing jitters from the upstream stage of each
            # slot (see the _SOURCE.._RELAY descriptors).
            for i in range(n_msg):
                if not can_jit_dirty[i]:
                    continue
                can_jit_dirty[i] = False
                kind, k, transfer = entries[i]
                if kind == _SOURCE:
                    j = pr[k] - wcet[k]
                    if j < 0.0:
                        j = 0.0
                elif kind == _ENTRY:
                    j = transfer
                elif kind == _TRANSIT:
                    j = tj[k] + tq[k] + fifo_slot_time[k] + transfer
                else:
                    j = mr[k] + transfer
                if j != mj[i]:
                    mj[i] = j
                    for r in can_jit_readers[i]:
                        can_dirty[r] = True

            # 2. Per-bus CAN queueing delays.  Residency of an
            # interferer on the wire: its own queueing delay plus its
            # frame time, snapshotted before the step.
            if True in can_dirty:
                res_can = [
                    (mq[i] if mq[i] != _INF else horizon) + frame_time[i]
                    for i in range(n_msg)
                ]
                moved = []
                for i in range(n_msg):
                    if not can_dirty[i]:
                        continue
                    can_dirty[i] = False
                    solved += 1
                    base = self._blocking(i, mj[i])
                    prev = mq[i]
                    start = prev if base < prev < _INF else base
                    w = _solve_row(
                        base, mj[i], can_rows[i], mj, res_can,
                        TIE_EPSILON, horizon, start,
                    )
                    if w != prev:
                        mq[i] = w
                        moved.append(i)
                    if w == _INF and start != base:
                        can_dirty[i] = True
                    r = mj[i] + w + frame_time[i]
                    if r != mr[i]:
                        mr[i] = r
                        relays, fifos, procs = mr_readers[i]
                        for k in relays:
                            can_jit_dirty[k] = True
                        for k in fifos:
                            fifo_jit_dirty[k] = True
                        for k in procs:
                            proc_jit_dirty[k] = True
                for k in moved:
                    for r in can_res_readers[k]:
                        can_dirty[r] = True

            # 3. Gateway Out_TTP FIFOs.  Rows read the competitors'
            # queueing delays in place.
            for i in range(n_ttp):
                if not fifo_jit_dirty[i]:
                    continue
                fifo_jit_dirty[i] = False
                j = mr[fifo_prev[i]] + fifo_transfer[i]
                if j != tj[i]:
                    tj[i] = j
                    for r in fifo_jit_readers[i]:
                        fifo_dirty[r] = True
                    for k in fifo_relays[i]:
                        can_jit_dirty[k] = True
            for i in range(n_ttp):
                if not fifo_dirty[i]:
                    continue
                fifo_dirty[i] = False
                solved += 1
                w = _INF
                instant = ettt_queue_instant(fifo_off[i], tj[i])
                row = ttp_rows[i]
                for entry in row:
                    if tj[entry[0]] == _INF:
                        instant = _INF
                        break
                if instant != _INF:
                    if instant != fifo_instant[i]:
                        fifo_instant[i] = instant
                        fifo_blocking[i] = bus.waiting_time(
                            fifo_gateway[i], instant
                        )
                    blocking = fifo_blocking[i]
                    own_j = tj[i]
                    w = blocking
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
                        # Whole-frame drain bound (repro.semantics):
                        # mirrors the oracles' pass operation for
                        # operation.
                        rounds = fifo_drain_rounds(
                            fifo_size[i], ahead, count,
                            fifo_capacity[i], fifo_max_size[i],
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
                    for r in fifo_q_readers[i]:
                        fifo_dirty[r] = True
                    for k in fifo_relays[i]:
                        can_jit_dirty[k] = True

            # 4. Release jitters of ET processes from incoming arcs.
            for i in range(n_proc):
                if not proc_jit_dirty[i]:
                    continue
                proc_jit_dirty[i] = False
                own_offset = proc_off[i]
                jitter = 0.0
                for slot, pred_idx, pred_name in proc_arcs[i]:
                    if slot >= 0:
                        arrival = slot_off[slot] + mr[slot]
                    elif pred_idx >= 0:
                        arrival = proc_off[pred_idx] + pr[pred_idx]
                    else:
                        arrival = proc_off_map.get(
                            pred_name, 0.0
                        ) + tt_pred_wcet[pred_name]
                    if arrival - own_offset > jitter:
                        jitter = arrival - own_offset
                if jitter != pj[i]:
                    pj[i] = jitter
                    for r in proc_jit_readers[i]:
                        proc_dirty[r] = True

            # 5. Busy windows of ET processes.  Residency of an
            # interfering process: its whole busy window, snapshotted
            # before the step.
            if True in proc_dirty:
                res_proc = [
                    pw[i] if pw[i] != _INF else horizon
                    for i in range(n_proc)
                ]
                moved = []
                for i in range(n_proc):
                    if not proc_dirty[i]:
                        continue
                    proc_dirty[i] = False
                    solved += 1
                    base = wcet[i]
                    prev = pw[i]
                    start = prev if base < prev < _INF else base
                    window = _solve_row(
                        base, pj[i], proc_rows[i], pj, res_proc,
                        0.0, horizon, start,
                    )
                    if window != prev:
                        pw[i] = window
                        moved.append(i)
                    if window == _INF and start != base:
                        proc_dirty[i] = True
                    r = pj[i] + window
                    if r != pr[i]:
                        pr[i] = r
                        slots, procs = pr_readers[i]
                        for k in slots:
                            can_jit_dirty[k] = True
                        for k in procs:
                            proc_jit_dirty[k] = True
                for k in moved:
                    for r in proc_res_readers[k]:
                        proc_dirty[r] = True

            if not (
                True in can_jit_dirty or True in can_dirty
                or True in fifo_jit_dirty or True in fifo_dirty
                or True in proc_jit_dirty or True in proc_dirty
            ):
                break
        else:
            raise AnalysisError(
                "holistic analysis did not stabilize within "
                f"{_MAX_OUTER_ITERATIONS} iterations"
            )

        self.stats.rows_solved += solved
        self.stats.rows_skipped += sweeps * (n_msg + n_ttp + n_proc) - solved
        return SolveState(
            proc_jitter=pj, proc_window=pw, proc_resp=pr,
            msg_jitter=mj, msg_queue=mq, msg_resp=mr,
            ttp_jitter=tj, ttp_queue=tq,
        )

    # -- packaging -----------------------------------------------------------

    def package(
        self, state: SolveState, ttp_only: bool = False
    ) -> ResponseTimes:
        """Translate a solved state back into the named ``ρ`` record.

        ``state`` must come from the kernel's latest :meth:`solve`: the
        records take their offsets from that solve's ``φ``.
        ``can[m]`` is the delivering CAN slot (the source slot of an
        ET->TT message), ``ttp[m]`` the FIFO slot; multi-gateway plans
        add the ``T@<gateway>`` transfer processes and, for multi-leg
        routes, ``hops[m]`` in traversal order.  ``ttp_only=True``
        fills ``ttp`` alone.
        """
        result = ResponseTimes()

        def fifo_record(i: int) -> ActivityTiming:
            converged = (
                state.ttp_queue[i] != _INF and state.ttp_jitter[i] != _INF
            )
            return ActivityTiming(
                offset=self._fifo_off[i],
                jitter=state.ttp_jitter[i] if converged else _INF,
                queuing=state.ttp_queue[i] if converged else _INF,
                duration=self._fifo_slot_time[i],
                converged=converged,
            )

        for i, m in enumerate(self._fifo_names):
            result.ttp[m] = fifo_record(i)
        if ttp_only:
            return result

        proc_off_map = self._proc_off_map
        slot_off = self._slot_off
        for name, wcet, i in self._proc_records:
            if i < 0:
                result.processes[name] = ActivityTiming(
                    offset=proc_off_map.get(name, 0.0),
                    jitter=0.0,
                    queuing=0.0,
                    duration=wcet,
                )
            else:
                window = state.proc_window[i]
                jitter = state.proc_jitter[i]
                converged = window != _INF and jitter != _INF
                result.processes[name] = ActivityTiming(
                    offset=self._proc_off[i],
                    jitter=jitter if converged else _INF,
                    queuing=window - wcet if converged else _INF,
                    duration=wcet,
                    converged=converged,
                )
        result.processes[GATEWAY_TRANSFER_PROCESS] = ActivityTiming(
            offset=0.0, jitter=0.0, queuing=0.0,
            duration=self.system.arch.gateway_transfer_wcet,
        )
        for name, transfer in self._transfer_records:
            result.processes[name] = ActivityTiming(
                offset=0.0, jitter=0.0, queuing=0.0, duration=transfer
            )

        def can_record(i: int) -> ActivityTiming:
            converged = (
                state.msg_queue[i] != _INF and state.msg_jitter[i] != _INF
            )
            return ActivityTiming(
                offset=slot_off[i],
                jitter=state.msg_jitter[i] if converged else _INF,
                queuing=state.msg_queue[i] if converged else _INF,
                duration=self._slot_frame[i],
                converged=converged,
            )

        for m, i in zip(self.can_msgs, self._report_slot):
            result.can[m] = can_record(i)
        for m, hops in self._hop_slots:
            result.hops[m] = tuple(
                fifo_record(i) if is_fifo else can_record(i)
                for is_fifo, i in hops
            )
        msg_off_map = self._msg_off_map
        for name in self._tt_msgs:
            result.tt_arrival[name] = msg_off_map.get(name, 0.0)
        return result


def kernel_for(
    system: System,
    priorities: PriorityAssignment,
    bus: TTPBusConfig,
    faults=None,
    routes=None,
) -> AnalysisContext:
    """The System's kernel for ``faults``, re-targeted at ``(π, β,
    routes)`` — the entry of every analysis and of the Fig. 5 loop.

    Kernels are cached on the System, one per modeled fault spec (keyed
    by its canonical form, ``None`` when fault-free), so every caller
    analysing one System shares one compile and then updates it
    incrementally.  A compile that raises caches nothing (and a fresh one
    is already at ``(π, β, routes)``, so it is not updated again).
    """
    key = None if faults is None else faults.canonical()
    cached = key in system._kernels
    kernel = lru_lookup(
        system._kernels, key,
        lambda: AnalysisContext(
            system, priorities, bus, faults=faults, routes=routes
        ),
        _MAX_KERNELS,
    )
    if cached:
        kernel.update(priorities, bus, routes=routes)
    return kernel
