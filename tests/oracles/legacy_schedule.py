"""The interpreted static list scheduler (parity oracle).

:func:`legacy_static_schedule` re-derives every structure it needs —
urgencies, predecessor routes, slot arithmetic, the ET offset
propagation — from the :class:`repro.system.System` on every call.  It
is the semantic reference the compiled scheduler of
:mod:`repro.schedule.list_scheduler` is parity-tested against
(``tests/test_schedule_parity.py``): same offsets (dict order
included), tables, MEDL frames, arrivals, makespan and errors.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.timing import ResponseTimes
from repro.buses.ttp import TTPBusConfig
from repro.exceptions import SchedulingError
from repro.model.architecture import MessageRoute
from repro.model.application import ProcessGraph
from repro.model.configuration import OffsetTable
from repro.schedule.schedule_table import FrameSlot, ScheduleEntry, StaticSchedule
from repro.semantics import et_to_tt_constraint
from repro.system import System

def downstream_urgency(graph: ProcessGraph) -> Dict[str, float]:
    """Longest WCET path from each process to a sink (inclusive), by
    name: the name-keyed walk the image's ``proc_urgency`` replaced.

    Used as the list-scheduling priority: processes with more work after
    them are scheduled first, the classic critical-path heuristic of [5].
    """
    urgency: Dict[str, float] = {}
    for proc_name in reversed(graph.topological_order()):
        best_tail = 0.0
        for succ, _msg in graph.successors(proc_name):
            best_tail = max(best_tail, urgency[succ])
        urgency[proc_name] = graph.processes[proc_name].wcet + best_tail
    return urgency


#: Safety horizon: how many TDMA rounds past the estimated makespan a frame
#: search may scan before the schedule is declared infeasible.
_ROUND_SEARCH_MARGIN = 10_000


class _NodeTimeline:
    """Busy intervals of one TT node, with first-fit gap search."""

    def __init__(self) -> None:
        self._busy: List[Tuple[float, float]] = []

    def earliest_start(self, est: float, duration: float) -> float:
        """First start >= est such that [start, start+duration) is free."""
        start = est
        for begin, end in self._busy:
            if start + duration <= begin + 1e-12:
                break
            if end > start:
                start = end
        return start

    def reserve(self, start: float, end: float) -> None:
        self._busy.append((start, end))
        self._busy.sort()


def _downstream_min_transit(
    system: System, bus: TTPBusConfig, msg_name: str, legs
) -> float:
    """Earliest extra transit of every leg after the first.

    Per additional leg the message pays the entry gateway's transfer
    (the simulator charges exactly ``C_T``) plus the leg's minimal wire
    time: a full CAN frame, or — for a FIFO leg — the carrying TDMA
    slot's duration (delivery is at the slot's *end*; zero queue wait
    is the earliest case).  Used as a sound earliest-arrival offset for
    downstream consumers; the per-leg jitter chain of the analysis
    covers everything later than this.
    """
    extra = 0.0
    for leg in legs[1:]:
        extra += system.arch.transfer_wcet_of(leg.via)
        if leg.is_fifo:
            extra += bus.slot_of(leg.sender).duration
        else:
            extra += system.can_frame_time(msg_name)
    return extra


def legacy_static_schedule(
    system: System,
    bus: TTPBusConfig,
    rho: Optional[ResponseTimes] = None,
    tt_delays: Optional[Mapping[str, float]] = None,
    arrival_floors: Optional[Mapping[str, float]] = None,
    routing=None,
) -> StaticSchedule:
    """Build schedule tables, the MEDL and the full offset table ``φ``.

    ``routing`` (a :class:`repro.semantics.routing.RoutingPlan`) supplies
    the leg list of every inter-cluster message on general topologies;
    canonical two-cluster systems ignore it (their single-hop
    conventions are hard-wired below, byte-identical to the paper
    calibration).
    """
    app = system.app
    arch = system.arch
    delays = dict(tt_delays or {})
    if routing is None and not system.arch.topology.is_canonical:
        routing = system.default_routing()

    urgency: Dict[str, float] = {}
    for graph in app.graphs.values():
        urgency.update(downstream_urgency(graph))

    timelines: Dict[str, _NodeTimeline] = {
        node: _NodeTimeline() for node in arch.tt_node_names()
    }
    tables: Dict[str, List[ScheduleEntry]] = {
        node: [] for node in arch.tt_node_names()
    }
    medl: Dict[Tuple[str, int], FrameSlot] = {}
    message_arrival: Dict[str, float] = {}
    proc_start: Dict[str, float] = {}
    proc_end: Dict[str, float] = {}

    def frame_for(node: str, msg_name: str, ready: float) -> FrameSlot:
        """Earliest frame of ``node`` with capacity, starting at/after ready."""
        size = app.message(msg_name).size
        slot = bus.slot_of(node)
        if size > slot.capacity:
            raise SchedulingError(
                f"message {msg_name} ({size} B) exceeds the capacity of "
                f"{node}'s slot ({slot.capacity} B)"
            )
        round_index, start = bus.next_slot_start(node, ready)
        for _ in range(_ROUND_SEARCH_MARGIN):
            frame = medl.get((node, round_index))
            if frame is None:
                frame = FrameSlot(
                    node=node,
                    round_index=round_index,
                    start=bus.slot_start(node, round_index),
                    end=bus.slot_end(node, round_index),
                    capacity=slot.capacity,
                )
                medl[(node, round_index)] = frame
            if frame.free_bytes >= size:
                return frame
            round_index += 1
        raise SchedulingError(
            f"no frame with {size} free bytes found for {msg_name} within "
            f"{_ROUND_SEARCH_MARGIN} rounds — TTP slot of {node} overloaded"
        )

    # -- schedule the TT processes, graph set jointly -----------------------
    tt_procs = set(system.tt_processes())
    remaining_preds: Dict[str, int] = {}
    for name in tt_procs:
        graph = app.graph_of_process(name)
        count = 0
        for pred, _msg in graph.predecessors(name):
            if pred in tt_procs:
                count += 1
        remaining_preds[name] = count
    ready = sorted(
        (p for p in tt_procs if remaining_preds[p] == 0),
        key=lambda p: (-urgency[p], p),
    )
    scheduled_count = 0
    while ready:
        current = ready.pop(0)
        graph = app.graph_of_process(current)
        proc = app.process(current)
        est = system.release_of(current) + delays.get(current, 0.0)
        for pred, msg_name in graph.predecessors(current):
            if msg_name is None:
                est = max(est, proc_end.get(pred, 0.0))
                continue
            route = system.route(msg_name)
            if route is MessageRoute.TT_TO_TT:
                est = max(est, message_arrival[msg_name])
            elif route is MessageRoute.ET_TO_TT:
                # Shared dispatch-eligibility contract: the consumer may
                # not start before the message's worst-case availability
                # (repro.semantics; the floors are the Fig. 5 ratchet).
                est = max(
                    est, et_to_tt_constraint(msg_name, rho, arrival_floors)
                )
        start = timelines[proc.node].earliest_start(est, proc.wcet)
        end = start + proc.wcet
        timelines[proc.node].reserve(start, end)
        tables[proc.node].append(ScheduleEntry(current, start, end))
        proc_start[current] = start
        proc_end[current] = end
        scheduled_count += 1

        # Pack this process's outgoing cross-node messages into frames.
        for succ, msg_name in sorted(graph.successors(current)):
            if msg_name is None:
                continue
            route = system.route(msg_name)
            if route not in (MessageRoute.TT_TO_TT, MessageRoute.TT_TO_ET):
                continue
            ready_time = end + delays.get(msg_name, 0.0)
            frame = frame_for(proc.node, msg_name, ready_time)
            frame.messages.append(msg_name)
            frame.used_bytes += app.message(msg_name).size
            message_arrival[msg_name] = frame.end

        for succ, _msg in graph.successors(current):
            if succ in tt_procs:
                remaining_preds[succ] -= 1
                if remaining_preds[succ] == 0:
                    ready.append(succ)
        ready.sort(key=lambda p: (-urgency[p], p))
    if scheduled_count != len(tt_procs):
        raise SchedulingError(
            "static scheduler could not order all TT processes (cycle "
            "through the ETC is not supported by list scheduling)"
        )

    for node_table in tables.values():
        node_table.sort(key=lambda entry: entry.start)

    # -- propagate ET-side offsets (earliest activations) -------------------
    # Conventions (calibrated against the paper's Fig. 4/ section 4.2
    # example; see DESIGN.md):
    #   * ET-sent message:   O_m = O_S + C_S  (earliest sender completion);
    #   * ET process fed by a TT->ET message: O_D = frame arrival at the
    #     gateway MBI (the jitter J_D = r_m covers transfer + CAN);
    #   * ET process fed by an ET->ET message: O_D = O_m + C_m (earliest
    #     possible arrival over CAN);
    #   * same-node dependency: O_D = earliest completion of the
    #     predecessor, O_S + C_S.
    process_offsets: Dict[str, float] = dict(proc_start)
    message_offsets: Dict[str, float] = {}
    for graph in app.graphs.values():
        for proc_name in graph.topological_order():
            if proc_name in tt_procs:
                continue
            earliest = system.release_of(proc_name)
            for pred, msg_name in graph.predecessors(proc_name):
                if msg_name is None:
                    pred_done = process_offsets.get(pred, 0.0) + app.process(pred).wcet
                    earliest = max(earliest, pred_done)
                    continue
                route = system.route(msg_name)
                if route is MessageRoute.TT_TO_ET:
                    arrival = message_arrival[msg_name]
                else:  # ET_TO_ET: earliest send + earliest wire time.
                    sent = process_offsets.get(pred, 0.0) + app.process(pred).wcet
                    arrival = sent + system.can_frame_time(msg_name)
                if routing is not None:
                    # Multi-hop routes: the canonical anchor above covers
                    # the first leg only; add the minimal transit of every
                    # further leg (still a lower bound on the true
                    # arrival — the analysis jitter covers the rest).
                    legs = routing.legs_of(msg_name)
                    if legs is not None and len(legs) > 1:
                        arrival += _downstream_min_transit(
                            system, bus, msg_name, legs
                        )
                earliest = max(earliest, arrival)
            process_offsets[proc_name] = earliest
    for msg in app.all_messages():
        route = system.route(msg.name)
        if route in (MessageRoute.TT_TO_TT, MessageRoute.TT_TO_ET):
            message_offsets[msg.name] = message_arrival[msg.name]
        else:
            message_offsets[msg.name] = (
                process_offsets[msg.src] + app.process(msg.src).wcet
            )

    makespan = max(proc_end.values(), default=0.0)
    offsets = OffsetTable(process_offsets, message_offsets)
    return StaticSchedule(
        offsets=offsets,
        tables=tables,
        medl=medl,
        message_arrival=message_arrival,
        makespan=makespan,
    )
