"""Static list scheduling of the time-triggered cluster.

Implements the ``StaticScheduling`` step of the multi-cluster loop
(Fig. 5), using the list-scheduling approach of the paper's reference [5]:

* TT processes are placed non-preemptively on their node's timeline, in
  order of a critical-path priority (longest remaining WCET path to a
  sink), as soon as their precedence constraints allow;
* outgoing cross-node messages of a TT process are packed into the
  earliest frame of the sender's TDMA slot that starts after the sender
  completes and still has capacity;
* a TT process that receives a message from the ETC may not start before
  the message's worst-case arrival — the constraint that closes the loop
  with the response-time analysis ("offsets on the TTC are set such that
  all the necessary messages are present at the process invocation").

The scheduler also derives the offsets of ET-side activities by forward
propagation (earliest activation), producing the complete offset table
``φ``.  Per-activity extra delays (``tt_delays`` in the system
configuration) implement the OptimizeResources move "move a TT process or
message inside its [ASAP, ALAP] interval".

The scheduler is compiled per ``(System, routing plan)`` and memoizes
schedules on ``(β slots, sorted tt_delays, ET->TT constraint vector)``,
every input a schedule reads (DESIGN.md, "The compiled scheduler").
"""

from __future__ import annotations

from bisect import insort
from collections import OrderedDict
from heapq import heappop, heappush
from operator import attrgetter
from typing import Mapping, Optional

from ..buses.ttp import TTPBusConfig
from ..exceptions import SchedulingError
from ..model.architecture import MessageRoute
from ..model.configuration import OffsetTable
from ..semantics import et_to_tt_constraint
from ..system import System, lru_lookup
from ..analysis.timing import ResponseTimes
from .schedule_table import FrameSlot, ScheduleEntry, StaticSchedule

__all__ = ["static_schedule"]

#: Safety horizon: how many TDMA rounds past the estimated makespan a frame
#: search may scan before the schedule is declared infeasible.
_ROUND_SEARCH_MARGIN = 10_000
#: LRU bounds: compiled contexts per System (one per routing plan), and
#: memoized schedules per context.
_MAX_PLANS = 8
_MEMO_SIZE = 64


def _frame_for(medl, bus, node: str, msg_name: str, size, ready):
    """Earliest frame of ``node`` with capacity, starting at/after ready
    (``TTPBusConfig.next_slot_start``/``slot_start``/``slot_end`` inlined
    over the bus's per-β slot table: same operations, same order)."""
    slot = bus.slot_of(node)  # raises when the node owns no TDMA slot
    capacity, duration = slot.capacity, slot.duration
    offset, round_length = bus.slot_offset(node), bus.round_length
    if size > capacity:
        raise SchedulingError(f"message {msg_name} ({size} B) exceeds the "
                              f"capacity of {node}'s slot ({capacity} B)")
    if ready < 0:
        ready = 0.0
    rounds_before = (ready - offset) / round_length
    round_index = int(rounds_before)
    if round_index < rounds_before:
        round_index += 1
    if round_index < 0:
        round_index = 0
    while round_index * round_length + offset < ready - 1e-9:
        round_index += 1
    for _ in range(_ROUND_SEARCH_MARGIN):
        frame = medl.get((node, round_index))
        if frame is None:
            start = round_index * round_length + offset
            frame = medl[(node, round_index)] = FrameSlot(
                node, round_index, start, start + duration, capacity
            )
        if frame.capacity - frame.used_bytes >= size:
            return frame
        round_index += 1
    raise SchedulingError(
        f"no frame with {size} free bytes found for {msg_name} within "
        f"{_ROUND_SEARCH_MARGIN} rounds — TTP slot of {node} overloaded"
    )


def _transit(image, legs_of, m: int) -> tuple:
    """Terms of the earliest extra transit of message ``m``'s legs after
    the first: per leg the entry gateway's ``C_T``, then a CAN frame time
    or the gateway whose TDMA slot carries the leg (delivery at the
    slot's end)."""
    return tuple(term for leg in legs_of.msg_legs[m][1:] for term in (
        image.transfer[legs_of.leg_via[leg]],
        legs_of.leg_sender[leg] if legs_of.leg_fifo[leg]
        else image.msg_frame[m],
    ))


class _ScheduleContext:
    """The list scheduler compiled for one ``(System, plan)`` from the
    System's image.

    A TT process starts no earlier than the maximum of its slots in the
    per-call ``values`` list: TT process ends (by urgency rank), ET->TT
    constraints, TTP-borne arrivals, and 0.0 (a non-TT dependency).
    """

    def __init__(self, system: System, routing) -> None:
        image = system.image
        names, msgs = image.proc_names, image.msg_names
        wcet, succs = image.proc_wcet, image.succs
        urgency = image.proc_urgency
        order = sorted(image.tt_procs, key=lambda p: (-urgency[p], names[p]))
        rank = [-1] * len(names)
        for r, p in enumerate(order):
            rank[p] = r
        self.ettt = [msgs[m] for m in image.ettt]
        on_ttp = [route in (MessageRoute.TT_TO_TT, MessageRoute.TT_TO_ET)
                  for route in image.msg_route]
        ttp = [m for m, flag in enumerate(on_ttp) if flag]
        slot_of = [-1] * len(msgs)
        for i, m in enumerate([*image.ettt, *ttp]):
            slot_of[m] = len(order) + i
        zero = len(order) + len(image.ettt) + len(ttp)  # the 0.0 slot
        self.tail = [0.0] * (len(ttp) + 1)  # arrival slots, then the 0.0
        self.indeg, self.procs = [], []
        for p in order:
            preds = image.preds[p]
            sends = [(names[q], msgs[m], m) for q, m in succs[p]
                     if m >= 0 and on_ttp[m]]
            sends.sort()
            self.indeg.append(sum(rank[q] >= 0 for q, _m in preds))
            self.procs.append((
                names[p], image.proc_node[p], wcet[p], image.proc_release[p],
                # Every message into a TT process is TT->TT or ET->TT.
                tuple((rank[q] if rank[q] >= 0 else zero) if m < 0
                      else slot_of[m] for q, m in preds),
                tuple((name, image.msg_size[m], slot_of[m])
                      for _n, name, m in sends),
                tuple(rank[q] for q, _m in succs[p] if rank[q] >= 0),
            ))
        self.nodes = system.arch.tt_node_names()
        # ET offsets (earliest activations, calibrated on the paper's Fig. 4
        # example): a same-node predecessor's earliest completion O_S + C_S;
        # a TT->ET frame's arrival at the gateway MBI (its jitter covers
        # transfer and CAN); O_S + C_S + C_m after an ET->ET message; plus
        # the earliest transit of every further leg.  Preds are (pred, C_S,
        # message or None, C_m or None for a TT->ET frame, transit terms).
        legs_of = routing.image
        self.et_plan = [
            (names[p], image.proc_release[p], [
                (names[q], wcet[q], None, None, ()) if m < 0 else
                (names[q], wcet[q], msgs[m],
                 None if image.msg_route[m] is MessageRoute.TT_TO_ET
                 else image.msg_frame[m], _transit(image, legs_of, m))
                for q, m in image.preds[p]
            ])
            for procs in image.graph_procs for p in procs if rank[p] < 0
        ]
        src = image.msg_src
        self.msg_plan = [
            (name, None, 0.0) if on_ttp[m]
            else (name, names[src[m]], wcet[src[m]])
            for m, name in enumerate(msgs)
        ]
        self.memo: OrderedDict = OrderedDict()

    def schedule(self, bus, rho, delays, floors) -> StaticSchedule:
        constraints = tuple(et_to_tt_constraint(m, rho, floors) for m in self.ettt)
        offsets, messages, tables, medl, arrival, makespan = lru_lookup(
            self.memo, (bus.slots, tuple(sorted(delays.items())), constraints),
            lambda: self._run(bus, delays, constraints), _MEMO_SIZE
        )
        return StaticSchedule(OffsetTable(offsets, messages), tables, medl,
                              arrival, makespan)

    def _run(self, bus, delays, constraints):
        count = len(self.procs)
        values = [0.0] * count + list(constraints) + self.tail
        indeg = list(self.indeg)
        ready = [r for r, waiting in enumerate(indeg) if not waiting]
        busy = {node: [] for node in self.nodes}
        tables = {node: [] for node in self.nodes}
        medl, arrival, offsets, finish = {}, {}, {}, []
        while ready:
            r = heappop(ready)
            name, node, wcet, release, preds, out, succs = self.procs[r]
            start = release + delays.get(name, 0.0)
            for i in preds:
                if values[i] > start:
                    start = values[i]
            timeline = busy[node]  # first fit on sorted busy intervals
            for begin, stop in timeline:
                if start + wcet <= begin + 1e-12:
                    break
                if stop > start:
                    start = stop
            end = start + wcet
            insort(timeline, (start, end))
            tables[node].append(ScheduleEntry(name, start, end))
            offsets[name] = start
            values[r] = end
            finish.append(end)
            for msg, size, slot in out:
                frame = _frame_for(medl, bus, node, msg, size,
                                   end + delays.get(msg, 0.0))
                frame.messages.append(msg)
                frame.used_bytes += size
                values[slot] = arrival[msg] = frame.end
            for succ in succs:
                indeg[succ] -= 1
                if not indeg[succ]:
                    heappush(ready, succ)
        if len(finish) != count:
            raise SchedulingError(
                "static scheduler could not order all TT processes (cycle "
                "through the ETC is not supported by list scheduling)"
            )
        for node_table in tables.values():
            node_table.sort(key=attrgetter("start"))
        for name, earliest, preds in self.et_plan:
            for pred, wcet, msg, wire, transit in preds:
                if msg is None:
                    value = offsets.get(pred, 0.0) + wcet
                elif wire is None:
                    value = arrival[msg]
                else:
                    value = offsets.get(pred, 0.0) + wcet + wire
                if transit:
                    extra = 0.0
                    for term in transit:  # a gateway name: its slot length
                        extra += (bus.slot_of(term).duration
                                  if isinstance(term, str) else term)
                    value += extra
                if value > earliest:
                    earliest = value
            offsets[name] = earliest
        messages = {
            name: arrival[name] if src is None else offsets[src] + wcet
            for name, src, wcet in self.msg_plan
        }
        return (offsets, messages, tables, medl, arrival,
                max(finish, default=0.0))


def static_schedule(
    system: System,
    bus: TTPBusConfig,
    rho: Optional[ResponseTimes] = None,
    tt_delays: Optional[Mapping[str, float]] = None,
    arrival_floors: Optional[Mapping[str, float]] = None,
    routing=None,
) -> StaticSchedule:
    """Build schedule tables, the MEDL and the full offset table ``φ``.

    ``routing`` (a :class:`repro.semantics.routing.RoutingPlan`, the
    system's default plan when ``None``) supplies the legs of every
    inter-cluster message; each leg after the first delays the ET
    consumer's earliest activation.
    """
    if routing is None:
        routing = system.default_routing()
    context = lru_lookup(system._schedulers, routing.key(),
                         lambda: _ScheduleContext(system, routing),
                         _MAX_PLANS)
    return context.schedule(bus, rho, tt_delays or {}, arrival_floors)
