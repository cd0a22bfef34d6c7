"""The compiled simulation kernel: hyperperiod-templated event replay.

:class:`SimContext` is to the DES simulator what
:class:`repro.analysis.kernel.AnalysisContext` is to the response-time
analysis: everything that does not depend on runtime state is compiled
**once** per ``(System, configuration, schedule)`` and then *replayed*
per period instead of being rebuilt per run and re-scheduled per event.

What gets compiled (see DESIGN.md, "The compiled simulation kernel"):

* **Interning** — every process, message, node and queue is mapped to a
  dense integer id; the replay loop never hashes a string.  Per-activity
  constants (WCETs, priorities, frame times, routes, sizes, successor
  lists, AND-join fan-ins) become flat id-indexed lists.
* **The static timeline** — one hyperperiod of the platform's
  time-triggered behaviour as flat, time-sorted event arrays: TT
  dispatches (and, in the WCET regime, their completions) from the
  schedule tables, gateway drain slots, the slot-end reception of
  TT->ET frames (their ``Out_CAN`` entry is then scheduled at runtime,
  ``+C_T``, so CAN tie-breaking matches the legacy chain), and ET
  source releases.  Period ``k`` replays the same arrays with moving
  indices — no heap traffic, no closures.  TT->TT deliveries compile
  away entirely: their arrival instants are period-templated constants.
* **The dynamic rest** — ET fixed-priority CPUs, CAN arbitration, the
  gateway ``Out_TTP`` FIFO and the transfer-process delays genuinely
  depend on runtime state; they run through one heap of integer tuples
  with flat per-job state arrays (preallocated per run:
  ``remaining``/``last_resume``/``version`` indexed by
  ``pid * periods + k``).

Trace parity with the pre-kernel event-by-event engine (kept as the
parity oracle under ``tests/oracles``) is bit-level, which constrains the
arithmetic: schedule-table events live on the period grid
(``k * hyper + offset``) while TDMA events live on the round grid
(``absolute_round * round_length + offset``), and the two only agree to
float epsilon when the round does not divide the period exactly.  Every
static entry therefore carries its grid and the replay recomputes
absolute instants with the legacy engine's exact association order.
The replay merges the static pointer against the dynamic heap under the
same ordering contract as the legacy engine's event queue (time,
then DELIVER < BUS < DISPATCH, then insertion order; the static
timeline — the seeded events of the legacy engine — wins ties against
dynamically scheduled events, exactly as the legacy engine's lower
seed-time counters did).  All shared timing semantics still come from
:mod:`repro.semantics`; parity is asserted by
``tests/test_sim_parity.py`` and the conformance campaign.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..exceptions import SimulationError
from ..model.architecture import MessageRoute
from ..model.configuration import SystemConfiguration
from ..obs import metrics as _obs_metrics
from ..obs import state as _obs_state
from ..obs import trace as _obs_trace
from ..schedule.schedule_table import StaticSchedule
from ..semantics import dispatch_respects_arrival, gateway_transfer_delay
from ..system import System, lru_lookup
from .trace import ScheduleViolation, SimulationTrace

__all__ = ["SimContext", "SimStats", "sim_template"]

#: Compiled templates kept per System.
_MAX_TEMPLATES = 64

#: Event ordering classes (the legacy engine's values).
_DELIVER = 0
_BUS = 1
_DISPATCH = 2

#: Event kinds.  Static timeline entries are
#: ``(t0, order, kind, a, r, off, add1, add2)`` — ``r`` is the TDMA
#: round within the period for round-grid events and ``-1`` for
#: period-grid events; the replay recomputes the absolute instant as
#: ``((k*rpp + r) * round_len + off) + add1 + add2`` resp.
#: ``((off + k*hyper) + add1) + add2`` (the legacy engine's exact
#: association order).  Dynamic heap entries are
#: ``(t, order, seq, kind, a, b)`` where ``b`` carries the period
#: instance (or, for ET completions, the job version).
_K_TT_DISPATCH = 0
_K_TT_COMPLETE = 1  # template completion (WCET regime; skipped else)
_K_ET_RELEASE = 2
_K_GW_SLOT = 3
_K_CAN_ENQ_GW = 4  # a TT->ET frame enters Out_CAN (heap event, +C_T)
_K_CAN_TRY = 5
_K_CAN_COMPLETE = 6
_K_FIFO_ENTRY = 7
_K_GW_DELIVER = 8
_K_ET_COMPLETE = 9
_K_TT_COMPLETE_DYN = 10  # completion under an execution-time model
_K_TTP_DELIVER_GW = 11  # a TT->ET frame fully received at slot end
_K_BABBLE = 12  # a babbling-idiot frame is queued on the CAN bus

#: Input-message check modes on a TT dispatch.
_CHK_STATIC = 0  # TT->TT frame with a compiled arrival instant
_CHK_DYNAMIC = 1  # ET->TT message: arrival known only at runtime
_CHK_NEVER = 2  # TT->TT message carried by no MEDL frame

_INF = float("inf")


@dataclass
class SimStats:
    """Cumulative instrumentation of one :class:`SimContext`.

    ``reuses`` counts the lookups its System's template cache answered
    with it (:func:`sim_template`).
    """

    compiles: int = 0
    reuses: int = 0
    replays: int = 0
    compile_s: float = 0.0
    replay_s: float = 0.0
    events: int = 0
    static_events: int = 0
    dynamic_events: int = 0


class SimContext:
    """A compiled simulation template (see module docstring).

    Parameters are those of :func:`repro.sim.engine.simulate` minus the
    per-run knobs: ``periods``, the execution-time model and the faults
    are :meth:`run` arguments, so one context serves many replays.
    """

    def __init__(
        self,
        system: System,
        config: SystemConfiguration,
        schedule: StaticSchedule,
    ) -> None:
        started = time.perf_counter()
        # Weak: the System caches its templates (sim_template), and a
        # dropped System must not wait for the cycle collector.
        self._system = weakref.ref(system)
        self.config = config
        self.schedule = schedule
        app = system.app

        periods_set = {g.period for g in app.graphs.values()}
        if len(periods_set) != 1:
            raise SimulationError(
                "the simulator requires a common graph period; combine "
                "graphs with repro.model.hypergraph.combine first"
            )
        self.hyper = periods_set.pop()
        bus = config.bus
        self.round_length = bus.round_length
        ratio = self.hyper / self.round_length
        if abs(ratio - round(ratio)) > 1e-6:
            raise SimulationError(
                f"graph period {self.hyper} is not a multiple of the TDMA "
                f"round {self.round_length}; the cyclic schedule would drift"
            )
        self.rounds_per_period = int(round(ratio))

        # -- interning: the System's image ---------------------------------
        image = system.image
        self.proc_names: List[str] = image.proc_names
        pid_of = image.pid
        self.msg_names: List[str] = image.msg_names
        mid_of = image.mid
        n_msgs = len(self.msg_names)

        priorities = config.priorities
        self.msg_size = image.msg_size
        self.msg_route = image.msg_route
        self.msg_route_name = [route.name for route in image.msg_route]
        self.msg_prio = [
            0 if frame is None else priorities.message_priority(name)
            for name, frame in zip(self.msg_names, image.msg_frame)
        ]
        self.msg_frame_time = [
            0.0 if frame is None else frame for frame in image.msg_frame
        ]
        self.msg_dst = image.msg_dst

        # Topology state: one CAN bus per ET cluster, one gateway
        # Out_CAN/Out_TTP pair per gateway, and per-message *leg
        # programs* compiled from the routing plan's leg ids.  The
        # canonical two-cluster system reduces to one bus, one gateway
        # and single-leg programs whose replay is event-for-event the
        # pre-routing kernel (only payload encodings differ, which
        # never affect ordering — seq does).
        plan = system.routing_for(getattr(config, "routes", None) or None)
        self.plan = plan
        legs_of = plan.image
        self.bus_of_cluster = {c: i for i, c in enumerate(image.et_clusters)}
        self.n_buses = len(image.et_clusters)
        gateways = image.gateways
        self.n_gw = len(gateways)

        # Queues (the image's): Out_CAN/Out_TTP per gateway, then
        # Out_<node> per ET node.
        self.queue_names = image.queue_names
        self.fifo_q = image.out_ttp_q
        self.n_cpus = len(image.et_nodes)

        self.proc_wcet = image.proc_wcet
        self.proc_is_tt = image.proc_tt
        self.proc_graph = image.proc_graph
        self.proc_is_sink = image.proc_sink
        self.graph_names = image.graph_names
        self.graph_sinks = [len(sinks) for sinks in image.graph_sinks]
        self.succs: List[Tuple[Tuple[int, int], ...]] = image.succs
        self.proc_prio = [
            0 if tt else priorities.process_priority(name)
            for name, tt in zip(self.proc_names, image.proc_tt)
        ]
        self.proc_cpu = image.proc_cpu  # dense ET-node index
        self.et_fanin = [
            0 if tt else len(preds)
            for tt, preds in zip(image.proc_tt, image.preds)
        ]

        self.transfer_delay = [
            gateway_transfer_delay(system, g) for g in gateways
        ]
        self.gw_capacity = [bus.slot_of(g).capacity for g in gateways]
        self.gw_duration = [bus.slot_of(g).duration for g in gateways]

        # -- leg programs ------------------------------------------------------
        # A CAN leg's *leg id* (lid) is its plan image id; the hot path
        # advances a frame from leg to leg through flat arrays.
        # ``lid_next`` encodes the continuation: ``-1`` = final
        # delivery, ``<= -2`` = enter gateway ``-2 - lid_next``'s
        # Out_TTP FIFO, else the next CAN leg's lid; the (unique) FIFO
        # leg's lives in ``fifo_next_lid``/``fifo_next_transfer``.
        is_fifo, via = legs_of.leg_fifo, legs_of.leg_via
        delay = self.transfer_delay
        self.lid_mid: List[int] = legs_of.leg_msg
        self.lid_bus: List[int] = legs_of.leg_bus
        self.lid_queue: List[int] = legs_of.leg_queue
        self.lid_next = [-1] * len(is_fifo)
        self.lid_next_transfer = [0.0] * len(is_fifo)
        self.msg_first_lid = [-1] * n_msgs
        self.msg_mbi_transfer = [0.0] * n_msgs  # C_T after a MEDL frame
        self.fifo_gw = [-1] * n_msgs  # gateway of the message's FIFO leg
        self.fifo_next_lid = [-1] * n_msgs
        self.fifo_next_transfer = [0.0] * n_msgs
        for mid, legs in enumerate(legs_of.msg_legs):
            if legs and not is_fifo[legs[0]]:
                self.msg_first_lid[mid] = legs[0]
                if via[legs[0]] >= 0:
                    # TT-sourced: the MEDL frame ends at the entry
                    # gateway, whose C_T precedes the first CAN leg.
                    self.msg_mbi_transfer[mid] = delay[via[legs[0]]]
            for leg, nxt in zip(legs, legs[1:] + (None,)):
                if is_fifo[leg]:
                    self.fifo_gw[mid] = via[leg]
                    if nxt is not None:
                        self.fifo_next_lid[mid] = nxt
                        self.fifo_next_transfer[mid] = delay[via[nxt]]
                elif nxt is not None:
                    self.lid_next[leg] = (
                        -2 - via[nxt] if is_fifo[nxt] else nxt
                    )
                    self.lid_next_transfer[leg] = delay[via[nxt]]

        # -- the static timeline ---------------------------------------------
        # TT->TT frames compile to per-period arrival templates;
        # everything else time-triggered becomes one sorted event array.
        # Enumeration order mirrors the legacy engine's seeding order so
        # the stable sort reproduces its same-instant tie-breaking.
        hyper = self.hyper
        #: Per TT->TT message: (round, slot_offset, slot_duration) of the
        #: carrying frame, or None when no MEDL frame carries it.
        self.tttt_spec: List[Optional[Tuple[int, float, float]]] = (
            [None] * n_msgs
        )
        events: List[Tuple[float, int, int, int, int, float, float, float]] = []

        def period_event(off, add1, add2, order, kind, a):
            t0 = (off + 0.0) + add1 + add2
            events.append((t0, order, kind, a, -1, off, add1, add2))

        def round_event(r, off, add1, add2, order, kind, a):
            t0 = ((r * self.round_length + off) + add1) + add2
            events.append((t0, order, kind, a, r, off, add1, add2))

        self.tt_entries: List[Tuple[int, float, Tuple]] = []
        for node, entries in schedule.tables.items():
            for entry in entries:
                pid = pid_of[entry.process]
                tidx = len(self.tt_entries)
                # Input checks are attached below, once the MEDL scan
                # has fixed the static arrival instants.
                self.tt_entries.append((pid, entry.start, ()))
                period_event(
                    entry.start, 0.0, 0.0, _DISPATCH, _K_TT_DISPATCH, tidx
                )
                period_event(
                    entry.start, self.proc_wcet[pid], 0.0,
                    _DELIVER, _K_TT_COMPLETE, tidx,
                )
        for pid in image.et_sources:
            period_event(
                image.proc_release[pid], 0.0, 0.0,
                _DISPATCH, _K_ET_RELEASE, pid,
            )
        slots = [
            (slot, bus.slot_offset(slot.node),
             image.gateway_index.get(slot.node))
            for slot in bus.slots
        ]
        for base_round in range(self.rounds_per_period):
            for slot, offset, gi in slots:
                if gi is not None:
                    round_event(
                        base_round, offset, 0.0, 0.0, _BUS, _K_GW_SLOT, gi
                    )
                    continue
                frame = schedule.medl.get((slot.node, base_round))
                if frame is None:
                    continue
                for msg_name in frame.messages:
                    mid = mid_of[msg_name]
                    route = self.msg_route[mid]
                    if route is MessageRoute.TT_TO_TT:
                        if self.tttt_spec[mid] is None:
                            self.tttt_spec[mid] = (
                                base_round, offset, slot.duration
                            )
                    elif route is MessageRoute.TT_TO_ET:
                        # The reception at slot end is templated; the
                        # Out_CAN entry (+C_T) is scheduled from it at
                        # runtime so its heap insertion order — and
                        # therefore CAN arbitration on exact-time ties —
                        # matches the legacy engine's chain exactly.
                        round_event(
                            base_round, offset, slot.duration, 0.0,
                            _DELIVER, _K_TTP_DELIVER_GW, mid,
                        )
                    else:  # pragma: no cover - MEDL carries TT-sent only
                        raise SimulationError(
                            f"unexpected route for MEDL message {msg_name}"
                        )

        # Input checks per TT dispatch, now that arrivals are known.
        # Check entries: (mid, pred_pid, mode, r, off, dur).
        for tidx, (pid, start, _) in enumerate(self.tt_entries):
            checks = []
            for pred, mid in image.preds[pid]:
                if mid < 0:
                    continue
                if self.msg_route[mid] is MessageRoute.TT_TO_TT:
                    spec = self.tttt_spec[mid]
                    if spec is None:
                        checks.append((mid, pred, _CHK_NEVER, 0, 0.0, 0.0))
                    else:
                        checks.append((mid, pred, _CHK_STATIC) + spec)
                else:
                    checks.append((mid, pred, _CHK_DYNAMIC, 0, 0.0, 0.0))
            self.tt_entries[tidx] = (pid, start, tuple(checks))

        events.sort(key=lambda e: (e[0], e[1]))  # stable: seeding order kept
        # The replay keeps the two time grids in separate arrays: within
        # one grid every entry shifts by the same amount per period
        # (float addition and integer-times-float multiplication are
        # monotone), so each array's order is valid for *every* period
        # even when the round does not divide the period exactly and the
        # grids drift apart by float epsilon; a single mixed array
        # sorted at period 0 could replay near-tied cross-grid pairs in
        # stale order at later periods.  At full (time, class) ties the
        # period grid wins — the legacy engine seeded all schedule-table
        # and release events before any TDMA event.
        self.static_period = [
            e for e in events if e[4] < 0 and e[0] <= hyper
        ]
        self.static_round = [
            e for e in events if e[4] >= 0 and e[0] <= hyper
        ]
        # Entries past the period boundary (e.g. a completion of a table
        # entry packed against the period end) would break the
        # moving-pointer merge; they replay through the heap instead,
        # where the legacy engine kept them anyway.
        self.spill_events = [e for e in events if e[0] > hyper]

        self.stats = SimStats()
        self.stats.compiles += 1
        self.stats.compile_s += time.perf_counter() - started
        self.last_replay: Dict[str, float] = {}

    @property
    def system(self) -> System:
        """The System the template was compiled for (held weakly)."""
        return self._system()

    # -- replay --------------------------------------------------------------

    def run(
        self, periods: int = 4, execution=None, faults=None
    ) -> SimulationTrace:
        """Replay the compiled template for ``periods`` period instances.

        Trace for trace equal to the legacy event-by-event engine
        (``tests/oracles``) on the same arguments.

        ``faults`` (a :class:`repro.faults.FaultSpec`) injects the
        spec's seeded fault processes through the dynamic path: CAN
        error/retransmission and bus derating stretch wire occupancy at
        the two transmission-start sites, slow-node factors multiply
        remaining execution demand at ET activation, exec jitter rides
        the composite execution model, and babbling-idiot frames enter
        arbitration as phantom queue entries (``mid < 0``) that occupy
        the bus but are never delivered.  ``faults=None`` leaves every
        fault-free code path untouched, instruction for instruction.
        """
        if _obs_state.enabled:
            obs_started = time.perf_counter()
            with _obs_trace.span("kernel.replay", periods=periods):
                trace = self._run_impl(periods, execution, faults)
            _obs_metrics.observe(
                "repro_sim_replay_seconds",
                time.perf_counter() - obs_started,
            )
            _obs_metrics.inc(
                "repro_sim_events_total",
                value=self.last_replay.get("events", 0),
            )
            return trace
        return self._run_impl(periods, execution, faults)

    def _run_impl(
        self, periods: int = 4, execution=None, faults=None
    ) -> SimulationTrace:
        started = time.perf_counter()
        hyper = self.hyper
        rl = self.round_length
        rpp = self.rounds_per_period
        horizon = (periods + 1) * hyper
        limit = horizon + 1e-9

        n_procs = len(self.proc_names)
        n_msgs = len(self.msg_names)
        n_graphs = len(self.graph_names)
        nq = len(self.queue_names)

        # Per-run state (flat, preallocated).
        proc_resp = [-1.0] * n_procs
        graph_resp = [-1.0] * n_graphs
        msg_latency = [-1.0] * n_msgs
        qlevel = [0.0] * nq
        qpeak = [0.0] * nq
        arrival: List[Optional[float]] = [None] * (n_msgs * periods)
        j_producer: List[Optional[float]] = [None] * (n_msgs * periods)
        j_can: List[Optional[float]] = [None] * (n_msgs * periods)
        j_fifo: List[Optional[float]] = [None] * (n_msgs * periods)
        j_gw_start: List[Optional[float]] = [None] * (n_msgs * periods)
        j_gw_end: List[Optional[float]] = [None] * (n_msgs * periods)
        missing = [0] * (n_procs * periods)
        for pid in range(n_procs):
            fanin = self.et_fanin[pid]
            if fanin:
                base = pid * periods
                for k in range(periods):
                    missing[base + k] = fanin
        sink_left = [0] * (n_graphs * periods)
        sink_latest = [0.0] * (n_graphs * periods)
        for g in range(n_graphs):
            count = self.graph_sinks[g]
            base = g * periods
            for k in range(periods):
                sink_left[base + k] = count
        job_remaining = [0.0] * (n_procs * periods)
        job_resume = [0.0] * (n_procs * periods)
        job_version = [0] * (n_procs * periods)
        cpu_running = [-1] * self.n_cpus
        cpu_ready: List[List[Tuple[int, int, int]]] = [
            [] for _ in range(self.n_cpus)
        ]
        cpu_seq = [0] * self.n_cpus
        can_pending: List[List[Tuple[int, int, int, int]]] = [
            [] for _ in range(self.n_buses)
        ]
        can_busy = [False] * self.n_buses
        can_seq = [0] * self.n_buses
        fifo: List[List[Tuple[int, int]]] = [[] for _ in range(self.n_gw)]
        fifo_head = [0] * self.n_gw
        tentative: List[Tuple[int, int, float, int, int, float]] = []
        completed_instances = 0

        # Local bindings for the hot loop.
        proc_wcet = self.proc_wcet
        proc_prio = self.proc_prio
        proc_cpu = self.proc_cpu
        proc_graph = self.proc_graph
        proc_is_tt = self.proc_is_tt
        proc_is_sink = self.proc_is_sink
        succs = self.succs
        msg_size = self.msg_size
        msg_route = self.msg_route
        msg_prio = self.msg_prio
        frame_time = self.msg_frame_time
        msg_dst = self.msg_dst
        tt_entries = self.tt_entries
        gw_capacity = self.gw_capacity
        gw_duration = self.gw_duration
        fifo_q = self.fifo_q
        lid_mid = self.lid_mid
        lid_bus = self.lid_bus
        lid_queue = self.lid_queue
        lid_next = self.lid_next
        lid_next_transfer = self.lid_next_transfer
        msg_first_lid = self.msg_first_lid
        mbi_transfer = self.msg_mbi_transfer
        fifo_gw = self.fifo_gw
        fifo_next_lid = self.fifo_next_lid
        fifo_next_transfer = self.fifo_next_transfer
        proc_names = self.proc_names
        s_period = self.static_period
        s_round = self.static_round
        n_period = len(s_period)
        n_round = len(s_round)

        heap: List[Tuple] = []
        seq = 0
        for k in range(periods):
            for (t0, order, kind, a, r, off, a1, a2) in self.spill_events:
                if r < 0:
                    t = ((off + k * hyper) + a1) + a2
                else:
                    t = (((k * rpp + r) * rl + off) + a1) + a2
                seq += 1
                heappush(heap, (t, order, seq, kind, a, k))

        # -- fault processes --------------------------------------------------
        # One FaultRuntime per run; its error-instant pointer advances
        # with the (serial) bus, so sharing the class with the legacy
        # engine yields bit-identical fault traces.  `runtime is None`
        # keeps the fault-free hot path byte-for-byte intact.
        runtime = None
        speed: Optional[List[float]] = None
        babble_prio = 0
        babble_bi = 0
        if faults is not None:
            from ..faults import FaultRuntime, faulty_execution

            runtime = FaultRuntime(faults, self.system)
            execution = faulty_execution(faults, self.system, execution)
            if runtime.node_factor:
                et_nodes = self.system.arch.et_node_names()
                speed = [
                    runtime.speed(et_nodes[self.proc_cpu[pid]])
                    if self.proc_cpu[pid] >= 0 else 1.0
                    for pid in range(n_procs)
                ]
            if faults.babble_period is not None:
                babble_prio = faults.babble_priority
                target = getattr(faults, "babble_bus", None)
                if target is not None:
                    if target not in self.bus_of_cluster:
                        raise SimulationError(
                            f"babble_bus names unknown ET cluster "
                            f"{target!r}; known: "
                            f"{sorted(self.bus_of_cluster)}"
                        )
                    babble_bi = self.bus_of_cluster[target]
                # Pre-seeded at _BUS order before any dynamic event is
                # scheduled: babble wins same-instant ties against
                # runtime CAN_TRY events (lower seq) but loses them to
                # the static timeline, matching the legacy engine's
                # post-static seeding position.
                for t in runtime.babble_times(horizon):
                    seq += 1
                    heappush(heap, (t, _BUS, seq, _K_BABBLE, 0, 0))

        exec_model = execution
        now = 0.0

        def faulted_start(bi: int) -> None:
            """Start the next pending frame on bus ``bi`` under faults.

            The faulted twin of the two inline transmission-start
            blocks: applies bus derating and the error process to real
            frames, and handles phantom babble entries (``lid < 0``,
            encoding the bus as ``-1 - bi``) that consume bus time
            without queue accounting or delivery.
            """
            nonlocal seq
            _prio, _cs, lid2, kk2 = heappop(can_pending[bi])
            can_busy[bi] = True
            if lid2 < 0:
                dur = runtime.can_span(now, runtime.babble_frame_time)
            else:
                mid2 = lid_mid[lid2]
                qlevel[lid_queue[lid2]] -= msg_size[mid2]
                dur = runtime.can_span(
                    now, frame_time[mid2] * runtime.bus_factor
                )
            seq += 1
            heappush(
                heap, (now + dur, _DELIVER, seq, _K_CAN_COMPLETE, lid2, kk2)
            )

        def exec_time(pid: int, k: int) -> float:
            wcet = proc_wcet[pid]
            value = exec_model(proc_names[pid], k)
            if value > wcet + 1e-9:
                raise SimulationError(
                    f"execution model exceeded WCET for {proc_names[pid]}: "
                    f"{value} > {wcet}"
                )
            return max(0.0, value)

        def activate(pid: int, k: int) -> None:
            """One ET activation: the legacy ``_EtCpu.activate``."""
            nonlocal seq
            jid = pid * periods + k
            base = (
                proc_wcet[pid] if exec_model is None else exec_time(pid, k)
            )
            # Slow node: demand scales by the same single multiply the
            # analysis derate applies to the WCET, so the WCET-regime
            # bound and the simulated demand stay bit-comparable.
            job_remaining[jid] = base if speed is None else base * speed[pid]
            cpu = proc_cpu[pid]
            running = cpu_running[cpu]
            prio = proc_prio[pid]
            ready = cpu_ready[cpu]
            if running < 0:
                # Through the ready queue even on an idle CPU: a job
                # activated by a completion must not jump ahead of
                # higher-priority jobs already waiting.
                cpu_seq[cpu] += 1
                heappush(ready, (prio, cpu_seq[cpu], jid))
                _p, _s, jid2 = heappop(ready)
                cpu_running[cpu] = jid2
                job_resume[jid2] = now
                seq += 1
                heappush(
                    heap,
                    (
                        now + job_remaining[jid2],
                        _DELIVER,
                        seq,
                        _K_ET_COMPLETE,
                        jid2,
                        job_version[jid2],
                    ),
                )
            elif prio < proc_prio[running // periods]:
                # Preempt: bank the running job's progress.
                job_remaining[running] -= now - job_resume[running]
                job_version[running] += 1
                cpu_seq[cpu] += 1
                heappush(
                    ready,
                    (proc_prio[running // periods], cpu_seq[cpu], running),
                )
                cpu_running[cpu] = jid
                job_resume[jid] = now
                seq += 1
                heappush(
                    heap,
                    (
                        now + job_remaining[jid],
                        _DELIVER,
                        seq,
                        _K_ET_COMPLETE,
                        jid,
                        job_version[jid],
                    ),
                )
            else:
                cpu_seq[cpu] += 1
                heappush(ready, (prio, cpu_seq[cpu], jid))

        static_count = 0
        dyn_count = 0
        # Two moving pointers, one per time grid (see the constructor's
        # partitioning comment): each recomputes its head's absolute
        # instant with the legacy engine's exact association order.
        pti = 0
        ptk = 0 if n_period and periods > 0 else periods
        if ptk < periods:
            pte = s_period[0]
            ptt = ((pte[5] + 0.0) + pte[6]) + pte[7]
            pto = pte[1]
        else:
            pte = None
            ptt = _INF
            pto = 3
        rdi = 0
        rdk = 0 if n_round and periods > 0 else periods
        if rdk < periods:
            rde = s_round[0]
            rdt = ((rde[4] * rl + rde[5]) + rde[6]) + rde[7]
            rdo = rde[1]
        else:
            rde = None
            rdt = _INF
            rdo = 3

        while True:
            if heap:
                h = heap[0]
                dt = h[0]
                do = h[1]
            else:
                h = None
                dt = _INF
                do = 3
            # The static candidate: the period grid wins full ties (the
            # legacy engine seeded it first).
            if ptt < rdt or (ptt == rdt and pto <= rdo):
                st = ptt
                so = pto
                from_period = True
            else:
                st = rdt
                so = rdo
                from_period = False
            if st < dt or (st == dt and so <= do):
                if st > limit:
                    break
                now = st
                if from_period:
                    kind = pte[2]
                    a = pte[3]
                    b = ptk
                    pti += 1
                    if pti == n_period:
                        pti = 0
                        ptk += 1
                    if ptk < periods:
                        pte = s_period[pti]
                        ptt = ((pte[5] + ptk * hyper) + pte[6]) + pte[7]
                        pto = pte[1]
                    else:
                        ptt = _INF
                        pto = 3
                else:
                    kind = rde[2]
                    a = rde[3]
                    b = rdk
                    rdi += 1
                    if rdi == n_round:
                        rdi = 0
                        rdk += 1
                    if rdk < periods:
                        rde = s_round[rdi]
                        rdt = (
                            ((rdk * rpp + rde[4]) * rl + rde[5]) + rde[6]
                        ) + rde[7]
                        rdo = rde[1]
                    else:
                        rdt = _INF
                        rdo = 3
                static_count += 1
            else:
                if dt > limit:
                    break
                heappop(heap)
                now = dt
                kind = h[3]
                a = h[4]
                b = h[5]
                dyn_count += 1

            if kind == _K_ET_COMPLETE:
                jid = a
                pid, k = divmod(jid, periods)
                cpu = proc_cpu[pid]
                if cpu_running[cpu] != jid or job_version[jid] != b:
                    continue  # stale completion (the job was preempted)
                cpu_running[cpu] = -1
                resp = now - k * hyper
                if resp > proc_resp[pid]:
                    proc_resp[pid] = resp
                if proc_is_sink[pid]:
                    g = proc_graph[pid] * periods + k
                    if now > sink_latest[g]:
                        sink_latest[g] = now
                    sink_left[g] -= 1
                    if sink_left[g] == 0:
                        gi = proc_graph[pid]
                        gresp = sink_latest[g] - k * hyper
                        if gresp > graph_resp[gi]:
                            graph_resp[gi] = gresp
                        completed_instances += 1
                for succ, mid in succs[pid]:
                    if mid < 0:
                        # Same-node dependency: one AND-join input down.
                        idx = succ * periods + k
                        left = missing[idx] - 1
                        missing[idx] = left
                        if left == 0:
                            activate(succ, k)
                    else:
                        idx = mid * periods + k
                        if j_producer[idx] is None:
                            j_producer[idx] = now
                        lid = msg_first_lid[mid]
                        bi = lid_bus[lid]
                        can_seq[bi] += 1
                        heappush(
                            can_pending[bi],
                            (msg_prio[mid], can_seq[bi], lid, k),
                        )
                        qi = lid_queue[lid]
                        level = qlevel[qi] + msg_size[mid]
                        qlevel[qi] = level
                        if level > qpeak[qi]:
                            qpeak[qi] = level
                        seq += 1
                        heappush(heap, (now, _BUS, seq, _K_CAN_TRY, bi, 0))
                ready = cpu_ready[cpu]
                if cpu_running[cpu] < 0 and ready:
                    _p, _s, jid2 = heappop(ready)
                    cpu_running[cpu] = jid2
                    job_resume[jid2] = now
                    seq += 1
                    heappush(
                        heap,
                        (
                            now + job_remaining[jid2],
                            _DELIVER,
                            seq,
                            _K_ET_COMPLETE,
                            jid2,
                            job_version[jid2],
                        ),
                    )

            elif kind == _K_TT_DISPATCH:
                k = b
                pid, _start, checks = tt_entries[a]
                duration = (
                    proc_wcet[pid] if exec_model is None
                    else exec_time(pid, k)
                )
                if checks:
                    for mid, pred, mode, r2, off2, dur2 in checks:
                        if mode == _CHK_STATIC:
                            arr = ((k * rpp + r2) * rl + off2) + dur2
                            if arr <= now:
                                continue  # delivered before this dispatch
                        elif mode == _CHK_DYNAMIC:
                            if arrival[mid * periods + k] is not None:
                                continue
                        tentative.append((pid, k, now, mid, pred, duration))
                if exec_model is not None:
                    seq += 1
                    heappush(
                        heap,
                        (
                            now + duration,
                            _DELIVER,
                            seq,
                            _K_TT_COMPLETE_DYN,
                            a,
                            k,
                        ),
                    )

            elif kind == _K_TT_COMPLETE or kind == _K_TT_COMPLETE_DYN:
                if kind == _K_TT_COMPLETE and exec_model is not None:
                    continue  # superseded by the model-driven completion
                k = b
                pid = tt_entries[a][0]
                resp = now - k * hyper
                if resp > proc_resp[pid]:
                    proc_resp[pid] = resp
                if proc_is_sink[pid]:
                    g = proc_graph[pid] * periods + k
                    if now > sink_latest[g]:
                        sink_latest[g] = now
                    sink_left[g] -= 1
                    if sink_left[g] == 0:
                        gi = proc_graph[pid]
                        gresp = sink_latest[g] - k * hyper
                        if gresp > graph_resp[gi]:
                            graph_resp[gi] = gresp
                        completed_instances += 1
                for succ, mid in succs[pid]:
                    if mid >= 0:
                        idx = mid * periods + k
                        if j_producer[idx] is None:
                            j_producer[idx] = now
                # Same-node TT dependencies need no trigger: the
                # schedule table already sequences them.

            elif kind == _K_GW_SLOT:
                g = a
                end = now + gw_duration[g]
                budget = gw_capacity[g]
                fl = fifo[g]
                head = fifo_head[g]
                fq = fifo_q[g]
                while head < len(fl):
                    mid, kk = fl[head]
                    size = msg_size[mid]
                    if size > budget:
                        break
                    budget -= size
                    head += 1
                    qlevel[fq] -= size
                    idx = mid * periods + kk
                    if j_gw_start[idx] is None:
                        j_gw_start[idx] = now
                        j_gw_end[idx] = end
                    seq += 1
                    heappush(
                        heap, (end, _DELIVER, seq, _K_GW_DELIVER, mid, kk)
                    )
                if head and head == len(fl):
                    del fl[:]
                    head = 0
                fifo_head[g] = head

            elif kind == _K_CAN_TRY:
                bi = a
                if not can_busy[bi] and can_pending[bi]:
                    if runtime is not None:
                        faulted_start(bi)
                        continue
                    _prio, _cs, lid, kk = heappop(can_pending[bi])
                    can_busy[bi] = True
                    mid = lid_mid[lid]
                    qlevel[lid_queue[lid]] -= msg_size[mid]
                    seq += 1
                    heappush(
                        heap,
                        (
                            now + frame_time[mid],
                            _DELIVER,
                            seq,
                            _K_CAN_COMPLETE,
                            lid,
                            kk,
                        ),
                    )

            elif kind == _K_CAN_COMPLETE:
                lid = a
                k = b
                if lid < 0:
                    # Phantom babble frame (bus encoded as -1 - bi):
                    # occupied the bus, delivers nothing.  Restart
                    # arbitration.
                    bi = -1 - lid
                    can_busy[bi] = False
                    if can_pending[bi]:
                        faulted_start(bi)
                    continue
                bi = lid_bus[lid]
                can_busy[bi] = False
                mid = lid_mid[lid]
                idx = mid * periods + k
                if j_can[idx] is None:
                    j_can[idx] = now
                nxt = lid_next[lid]
                if nxt <= -2:
                    # To gateway (-2 - nxt)'s CAN controller; T copies
                    # the frame into its Out_TTP after that gateway's
                    # transfer delay.
                    seq += 1
                    heappush(
                        heap,
                        (
                            now + lid_next_transfer[lid],
                            _DELIVER,
                            seq,
                            _K_FIFO_ENTRY,
                            mid,
                            k,
                        ),
                    )
                elif nxt >= 0:
                    # Relay onto the next CAN leg after the relaying
                    # gateway's transfer delay (ET->ET via an ET-ET
                    # gateway).
                    seq += 1
                    heappush(
                        heap,
                        (
                            now + lid_next_transfer[lid],
                            _DELIVER,
                            seq,
                            _K_CAN_ENQ_GW,
                            nxt,
                            k,
                        ),
                    )
                else:
                    if arrival[idx] is None:
                        arrival[idx] = now
                    lat = now - k * hyper
                    if lat > msg_latency[mid]:
                        msg_latency[mid] = lat
                    dst = msg_dst[mid]
                    if not proc_is_tt[dst]:
                        idx2 = dst * periods + k
                        left = missing[idx2] - 1
                        missing[idx2] = left
                        if left == 0:
                            activate(dst, k)
                # The freed bus starts the next pending frame at once.
                if not can_busy[bi] and can_pending[bi]:
                    if runtime is not None:
                        faulted_start(bi)
                        continue
                    _prio, _cs, lid2, kk2 = heappop(can_pending[bi])
                    can_busy[bi] = True
                    mid2 = lid_mid[lid2]
                    qlevel[lid_queue[lid2]] -= msg_size[mid2]
                    seq += 1
                    heappush(
                        heap,
                        (
                            now + frame_time[mid2],
                            _DELIVER,
                            seq,
                            _K_CAN_COMPLETE,
                            lid2,
                            kk2,
                        ),
                    )

            elif kind == _K_FIFO_ENTRY:
                mid = a
                idx = mid * periods + b
                if j_fifo[idx] is None:
                    j_fifo[idx] = now
                g = fifo_gw[mid]
                fifo[g].append((mid, b))
                fq = fifo_q[g]
                level = qlevel[fq] + msg_size[mid]
                qlevel[fq] = level
                if level > qpeak[fq]:
                    qpeak[fq] = level

            elif kind == _K_GW_DELIVER:
                mid = a
                k = b
                nlid = fifo_next_lid[mid]
                if nlid >= 0:
                    # ET->ET transit through the TT cluster: the exit
                    # gateway heard the broadcast at slot end and copies
                    # the frame onward after its transfer delay.
                    seq += 1
                    heappush(
                        heap,
                        (
                            now + fifo_next_transfer[mid],
                            _DELIVER,
                            seq,
                            _K_CAN_ENQ_GW,
                            nlid,
                            k,
                        ),
                    )
                else:
                    idx = mid * periods + k
                    if arrival[idx] is None:
                        arrival[idx] = now
                    lat = now - k * hyper
                    if lat > msg_latency[mid]:
                        msg_latency[mid] = lat

            elif kind == _K_TTP_DELIVER_GW:
                # Frame fully received at the entry gateway; the
                # transfer process T copies it into Out_CAN after that
                # gateway's C_T.  Scheduled through the heap so the
                # enqueue's insertion order on exact-time ties matches
                # the legacy engine's chain.
                seq += 1
                heappush(
                    heap,
                    (
                        now + mbi_transfer[a],
                        _DELIVER,
                        seq,
                        _K_CAN_ENQ_GW,
                        msg_first_lid[a],
                        b,
                    ),
                )

            elif kind == _K_CAN_ENQ_GW:
                lid = a
                mid = lid_mid[lid]
                bi = lid_bus[lid]
                can_seq[bi] += 1
                heappush(
                    can_pending[bi], (msg_prio[mid], can_seq[bi], lid, b)
                )
                qi = lid_queue[lid]
                level = qlevel[qi] + msg_size[mid]
                qlevel[qi] = level
                if level > qpeak[qi]:
                    qpeak[qi] = level
                seq += 1
                heappush(heap, (now, _BUS, seq, _K_CAN_TRY, bi, 0))

            elif kind == _K_ET_RELEASE:
                activate(a, b)

            elif kind == _K_BABBLE:
                # The idiot queues a phantom frame and arbitration runs
                # immediately (this event is already at _BUS order, the
                # instant a legacy enqueue would defer its try to).
                runtime.babble_frames += 1
                can_seq[babble_bi] += 1
                heappush(
                    can_pending[babble_bi],
                    (babble_prio, can_seq[babble_bi], -1 - babble_bi, 0),
                )
                if not can_busy[babble_bi]:
                    faulted_start(babble_bi)

        # -- assemble the trace ---------------------------------------------
        trace = SimulationTrace()
        for pid in range(n_procs):
            if proc_resp[pid] > -1.0:
                trace.process_response[proc_names[pid]] = proc_resp[pid]
        for g in range(n_graphs):
            if graph_resp[g] > -1.0:
                trace.graph_response[self.graph_names[g]] = graph_resp[g]
        # TT->TT latencies replay the per-period arrival template
        # (max over instances, with the legacy engine's arithmetic).
        for mid, spec in enumerate(self.tttt_spec):
            if spec is None:
                continue
            r2, off2, dur2 = spec
            best = msg_latency[mid]
            for k in range(periods):
                arr = ((k * rpp + r2) * rl + off2) + dur2
                lat = arr - k * hyper
                if lat > best:
                    best = lat
            msg_latency[mid] = best
        for mid in range(n_msgs):
            if msg_latency[mid] > -1.0:
                trace.message_latency[self.msg_names[mid]] = msg_latency[mid]
        for qi in range(nq):
            if qpeak[qi] > 0.0:
                trace.queue_peak[self.queue_names[qi]] = qpeak[qi]
        trace.completed_instances = completed_instances

        # Confirm tentative violations against the complete arrival
        # record, annotated with the message's causal journey — the same
        # two-phase check as the legacy engine's run().
        tttt_spec = self.tttt_spec
        msg_names = self.msg_names
        route_name = self.msg_route_name
        for pid, k, when, mid, pred, duration in tentative:
            idx = mid * periods + k
            if msg_route[mid] is MessageRoute.TT_TO_TT:
                spec = tttt_spec[mid]
                if spec is None:
                    arr: Optional[float] = None
                else:
                    r2, off2, dur2 = spec
                    arr = ((k * rpp + r2) * rl + off2) + dur2
            else:
                arr = arrival[idx]
            if dispatch_respects_arrival(when, arr):
                continue
            trace.violations.append(
                ScheduleViolation(
                    process=proc_names[pid],
                    instance=k,
                    dispatch_time=when,
                    missing_message=msg_names[mid],
                    producer=proc_names[pred],
                    producer_finish=j_producer[idx],
                    can_delivery=j_can[idx],
                    fifo_entry=j_fifo[idx],
                    gateway_slot_start=j_gw_start[idx],
                    gateway_slot_end=j_gw_end[idx],
                    message_arrival=arr,
                    consumer_slot_start=when,
                    consumer_slot_end=when + duration,
                    route=route_name[mid],
                )
            )

        elapsed = time.perf_counter() - started
        stats = self.stats
        stats.replays += 1
        stats.replay_s += elapsed
        stats.events += static_count + dyn_count
        stats.static_events += static_count
        stats.dynamic_events += dyn_count
        self.last_replay = {
            "replay_s": elapsed,
            "events": static_count + dyn_count,
            "static_events": static_count,
            "dynamic_events": dyn_count,
        }
        if runtime is not None:
            self.last_replay.update(runtime.summary())
        return trace

    def profile(self) -> Dict[str, float]:
        """Compile/replay instrumentation of the most recent run."""
        events = self.last_replay.get("events", 0)
        replay_s = self.last_replay.get("replay_s", 0.0)
        return {
            "engine": "kernel",
            "compile_s": self.stats.compile_s,
            "replay_s": replay_s,
            "events": events,
            "static_events": self.last_replay.get("static_events", 0),
            "dynamic_events": self.last_replay.get("dynamic_events", 0),
            "events_per_s": events / replay_s if replay_s > 0 else 0.0,
        }


def _compiled_from(config: SystemConfiguration) -> tuple:
    """What a template reads from its configuration: ``β``, ``π`` and
    the route overrides, as comparable copies."""
    priorities = config.priorities
    return (
        config.bus.slots,
        dict(priorities.process_priorities),
        dict(priorities.message_priorities),
        dict(config.routes),
    )


def sim_template(
    system: System, config: SystemConfiguration, schedule: StaticSchedule
) -> SimContext:
    """The System's compiled template for ``(config, schedule)``.

    Templates are cached on the System per ``StaticSchedule`` object (a
    template keeps its schedule alive, so the object's id cannot be
    reused while it is cached) and reused only while the configuration
    content they were compiled from is unchanged.  A compile that raises
    caches nothing.
    """
    compiled_from = _compiled_from(config)
    templates = system._sim_templates
    key = id(schedule)
    entry = templates.get(key)
    if entry is not None:
        if entry[0] == compiled_from:
            entry[1].stats.reuses += 1
        else:
            del templates[key]
    return lru_lookup(
        templates, key,
        lambda: (compiled_from, SimContext(system, config, schedule)),
        _MAX_TEMPLATES,
    )[1]
