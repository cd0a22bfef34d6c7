"""The interpreted multi-hop holistic analysis (parity oracle).

:func:`legacy_multihop_response_time_analysis` rebuilds its per-leg
interference structure from name-keyed dicts on every call.  It is the
semantic reference the per-leg rows of
:class:`repro.analysis.kernel.AnalysisContext` are parity-tested against
(``tests/test_multihop_parity.py``).

The canonical engines implement the paper's fixed shape — one ETC, one
TTC, one gateway — where every CAN-borne message has exactly one bus leg
and every ET->TT message exactly one FIFO leg.  This module is the same
holistic fixed point *per leg*: each message contributes one
analysed activity per :class:`repro.semantics.routing.Leg` of its route,
and the jitter chain threads the legs together:

* source ``can`` leg of an ET-sent message: ``J = r_S - C_S`` (sender
  response minus WCET), exactly the classic rule;
* first ``can`` leg of a TT-sent message (entered through gateway
  ``g``): ``J = C_T(g)`` — the MEDL fixes the MBI arrival (the
  message's offset), the transfer process adds its response;
* ``fifo`` leg entered through ``g`` after a ``can`` leg: ``J = r_can +
  C_T(g)`` (the classic ET->TT rule, now per gateway);
* ``can`` leg entered through ``g`` after another ``can`` leg (an
  ET->ET gateway): ``J = r_prev + C_T(g)``;
* ``can`` leg entered through ``g`` after a ``fifo`` leg (transit
  through the TT cluster): ``J = J_fifo + w_fifo + slot(g') + C_T(g)``
  — TTP is a broadcast bus, so the next gateway hears the frame at the
  carrying slot's end and relays it on.

Interference is *per bus*: a leg's busy window is disturbed only by
other legs on the same cluster's CAN bus (every message has at most one
leg per bus — routes are simple paths).  FIFO competition is *per
gateway*: all messages routed through the same ``Out_TTP`` compete
byte-wise, priority-blind, including ET->ET messages transiting the TT
cluster (:func:`repro.semantics.fifo_competitors` with a plan).

On the canonical two-cluster topology every rule above degenerates to
the classic one; the kernel compiles it from the one-gateway plan like
any other topology, and packages the classic records (no ``hops``, no
``T@<gateway>``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.analysis.can_analysis import TIE_EPSILON, can_error_term
from repro.analysis.timing import ActivityTiming, ResponseTimes
from repro.buses.ttp import TTPBusConfig
from repro.exceptions import AnalysisError
from repro.model.architecture import GATEWAY_TRANSFER_PROCESS, MessageRoute
from repro.model.configuration import OffsetTable, PriorityAssignment
from repro.semantics import fifo_drain_rounds
from repro.semantics.routing import RoutingPlan
from repro.system import System

from .busy_window import (
    _MAX_INNER_ITERATIONS,
    _MAX_OUTER_ITERATIONS,
    _rel_offset,
    _solve_window,
    phase_locked_hits,
)

__all__ = ["legacy_multihop_response_time_analysis"]


def legacy_multihop_response_time_analysis(
    system: System,
    offsets: OffsetTable,
    priorities: PriorityAssignment,
    bus: TTPBusConfig,
    plan: RoutingPlan,
    faults=None,
) -> ResponseTimes:
    """Route-aware holistic analysis; see module docstring.

    ``plan`` carries the resolved route (and leg list) of every
    message.  The result's ``can``/``ttp`` records keep their classic
    meaning — ``can[m]`` is the *delivering* (final) CAN leg, ``ttp[m]``
    the unique FIFO leg — and ``hops[m]`` lists every leg's timing in
    traversal order for multi-leg messages.
    """
    app = system.app
    arch = system.arch
    can_msgs = system.can_messages()
    et_procs = system.et_processes()
    proc_offsets = offsets.process_offsets
    msg_offsets = offsets.message_offsets

    # -- leg inventory ------------------------------------------------------
    # One activity per CAN leg, keyed (message, position); deterministic
    # order: message-sorted, then position.  FIFO legs are keyed by
    # message (a simple path crosses one TT cluster at most once).
    can_legs: List[Tuple[str, int]] = []
    leg_of: Dict[Tuple[str, int], object] = {}
    fifo_of: Dict[str, object] = {}
    fifo_pos: Dict[str, int] = {}
    for m in can_msgs:
        for pos, leg in enumerate(plan.legs_of(m)):
            if leg.is_fifo:
                fifo_of[m] = leg
                fifo_pos[m] = pos
            else:
                can_legs.append((m, pos))
                leg_of[(m, pos)] = leg
    ettt_msgs = sorted(fifo_of)
    # Bus partition: (cluster -> legs on that bus).
    legs_on_bus: Dict[str, List[Tuple[str, int]]] = {}
    for key in can_legs:
        legs_on_bus.setdefault(leg_of[key].cluster, []).append(key)
    # Final delivering CAN leg per ET-destined message.
    final_can: Dict[str, Tuple[str, int]] = {}
    for m in can_msgs:
        legs = plan.legs_of(m)
        if legs and not legs[-1].is_fifo:
            final_can[m] = (m, len(legs) - 1)

    wcet = {p.name: p.wcet for p in app.all_processes()}
    proc_period = {p.name: app.period_of_process(p.name) for p in app.all_processes()}
    msg_period = {m: app.period_of_message(m) for m in can_msgs}
    msg_size = {m: float(app.message(m).size) for m in can_msgs}
    frame_time = {m: system.can_frame_time(m) for m in can_msgs}
    transfer = {g: arch.transfer_wcet_of(g) for g in arch.gateways()}
    tt_gateways = set(bus.nodes()) & set(transfer)
    gw_slot = {g: bus.slot_of(g) for g in tt_gateways}

    horizon = 4.0 * max(
        [g.period for g in app.graphs.values()] + [bus.round_length]
    ) + 1.0e4

    # -- compile per-leg interference rows ----------------------------------
    error_term = can_error_term(system, faults)
    can_int: Dict[Tuple[str, int], tuple] = {}
    for key in can_legs:
        m, pos = key
        own_prio = priorities.message_priority(m)
        cluster = leg_of[key].cluster
        names: List[object] = []
        rels: List[float] = []
        periods: List[float] = []
        costs: List[float] = []
        locked_flags: List[bool] = []
        anc_flags: List[bool] = []
        for other_key in legs_on_bus[cluster]:
            j = other_key[0]
            if j == m or priorities.message_priority(j) > own_prio:
                continue
            names.append(other_key)
            locked = msg_period[j] == msg_period[m]
            rels.append(
                _rel_offset(
                    msg_offsets.get(j, 0.0),
                    msg_offsets.get(m, 0.0),
                    msg_period[j],
                    locked,
                )
            )
            periods.append(msg_period[j])
            costs.append(frame_time[j])
            locked_flags.append(locked)
            anc_flags.append(system.message_is_ancestor(j, m))
        if error_term is not None:
            names.append("__can_error__")
            rels.append(0.0)
            periods.append(error_term.period)
            costs.append(error_term.cost)
            locked_flags.append(False)
            anc_flags.append(False)
        can_int[key] = (names, rels, periods, costs, locked_flags, anc_flags)

    ttp_int: Dict[str, tuple] = {}
    for m in ettt_msgs:
        gateway = fifo_of[m].sender
        names = []
        rels = []
        periods = []
        costs = []
        locked_flags = []
        anc_flags = []
        for j in plan.fifo_users.get(gateway, []):
            if j == m:
                continue
            names.append(j)
            locked = msg_period[j] == msg_period[m]
            rels.append(
                _rel_offset(
                    msg_offsets.get(j, 0.0),
                    msg_offsets.get(m, 0.0),
                    msg_period[j],
                    locked,
                )
            )
            periods.append(msg_period[j])
            costs.append(msg_size[j])
            locked_flags.append(locked)
            anc_flags.append(system.message_is_ancestor(j, m))
        ttp_int[m] = (names, rels, periods, costs, locked_flags, anc_flags)

    proc_int: Dict[str, tuple] = {}
    for p in et_procs:
        own_prio = priorities.process_priority(p)
        node = app.process(p).node
        names = []
        rels = []
        periods = []
        costs = []
        locked_flags = []
        anc_flags = []
        for other in system.et_processes_on(node):
            if other == p or priorities.process_priority(other) >= own_prio:
                continue
            names.append(other)
            locked = proc_period[other] == proc_period[p]
            rels.append(
                _rel_offset(
                    proc_offsets.get(other, 0.0),
                    proc_offsets.get(p, 0.0),
                    proc_period[other],
                    locked,
                )
            )
            periods.append(proc_period[other])
            costs.append(wcet[other])
            locked_flags.append(locked)
            anc_flags.append(system.process_is_ancestor(other, p))
        proc_int[p] = (names, rels, periods, costs, locked_flags, anc_flags)

    proc_arcs: Dict[str, List[Tuple[Optional[str], str]]] = {}
    for p in et_procs:
        graph = app.graph_of_process(p)
        proc_arcs[p] = [
            (msg_name, pred) for pred, msg_name in graph.predecessors(p)
        ]

    # -- iterate the global monotone fixed point ----------------------------
    proc_jitter: Dict[str, float] = {p: 0.0 for p in et_procs}
    proc_window: Dict[str, float] = {p: wcet[p] for p in et_procs}
    proc_resp: Dict[str, float] = {p: wcet[p] for p in et_procs}
    leg_jitter: Dict[object, float] = {key: 0.0 for key in can_legs}
    if error_term is not None:
        leg_jitter["__can_error__"] = error_term.jitter
    leg_queue: Dict[object, float] = {key: 0.0 for key in can_legs}
    leg_resp: Dict[Tuple[str, int], float] = {
        key: frame_time[key[0]] for key in can_legs
    }
    ttp_jitter: Dict[str, float] = {m: 0.0 for m in ettt_msgs}
    ttp_queue: Dict[str, float] = {m: 0.0 for m in ettt_msgs}
    ttp_ahead: Dict[str, float] = {m: 0.0 for m in ettt_msgs}

    msg_src = {m: app.message(m).src for m in can_msgs}

    def leg_entry_jitter(key: Tuple[str, int]) -> float:
        """Queueing jitter of a CAN leg from its upstream stage."""
        m, pos = key
        leg = leg_of[key]
        if pos == 0:
            if leg.via is None:
                src = msg_src[m]
                return max(0.0, proc_resp.get(src, wcet[src]) - wcet[src])
            # TT-sourced: the offset is the MBI arrival; pay C_T once.
            return transfer[leg.via]
        prev_pos = pos - 1
        if fifo_pos.get(m) == prev_pos:
            # Transit: heard at the carrying slot's end, relayed on.
            g_prev = fifo_of[m].sender
            return (
                ttp_jitter[m]
                + ttp_queue[m]
                + gw_slot[g_prev].duration
                + transfer[leg.via]
            )
        return leg_resp[(m, prev_pos)] + transfer[leg.via]

    for _ in range(_MAX_OUTER_ITERATIONS):
        changed = False

        # 1. CAN leg queueing jitters from upstream responses.
        for key in can_legs:
            j = leg_entry_jitter(key)
            if j != leg_jitter[key]:
                leg_jitter[key] = j
                changed = True

        # 2. Per-bus CAN queueing delays.
        can_residency = {
            key: (leg_queue[key] if math.isfinite(leg_queue[key]) else horizon)
            + frame_time[key[0]]
            for key in can_legs
        }
        for key in can_legs:
            m, pos = key
            base = _leg_blocking(
                system, priorities, plan, leg_of, legs_on_bus,
                key, msg_offsets, leg_jitter, frame_time, msg_period,
            )
            names, rels, periods, costs, locked, anc = can_int[key]
            w = _solve_window(
                base, leg_jitter[key], names, rels, periods, costs, locked,
                anc, leg_jitter, can_residency, TIE_EPSILON, horizon,
            )
            if w != leg_queue[key]:
                leg_queue[key] = w
                changed = True
            leg_resp[key] = leg_jitter[key] + w + frame_time[m]

        # 3. Per-gateway Out_TTP FIFOs.
        for m in ettt_msgs:
            gateway = fifo_of[m].sender
            pos = fifo_pos[m]
            prev = leg_resp[(m, pos - 1)]
            j = prev + transfer[gateway]
            if j != ttp_jitter[m]:
                ttp_jitter[m] = j
                changed = True
        for m in ettt_msgs:
            gateway = fifo_of[m].sender
            slot = gw_slot[gateway]
            instant = msg_offsets.get(m, 0.0) + ttp_jitter[m]
            if math.isinf(instant):
                if not math.isinf(ttp_queue[m]):
                    changed = True
                ttp_queue[m] = math.inf
                ttp_ahead[m] = math.inf
                continue
            blocking = bus.waiting_time(gateway, instant)
            names, rels, periods, costs, locked, anc = ttp_int[m]
            if any(math.isinf(ttp_jitter[n]) for n in names):
                if not math.isinf(ttp_queue[m]):
                    changed = True
                ttp_queue[m] = math.inf
                ttp_ahead[m] = math.inf
                continue
            ttp_residency = {
                j: (ttp_queue[j] if math.isfinite(ttp_queue[j]) else horizon)
                for j in names
            }
            own_j = ttp_jitter[m]
            max_size = max([msg_size[m]] + costs) if costs else msg_size[m]
            w = blocking
            ahead = 0.0
            for _inner in range(_MAX_INNER_ITERATIONS):
                ahead = 0.0
                count = 0
                for i in range(len(names)):
                    jn = names[i]
                    if locked[i]:
                        n = phase_locked_hits(
                            w, own_j, rels[i], periods[i],
                            ttp_jitter[jn], ttp_residency.get(jn, 0.0),
                            anc[i],
                        )
                    else:
                        x = w + ttp_jitter[jn]
                        n = math.ceil(x / periods[i] - 1e-12) if x > 0 else 0
                    ahead += n * costs[i]
                    count += n
                rounds = fifo_drain_rounds(
                    msg_size[m], ahead, count, slot.capacity, max_size,
                )
                w_next = blocking + (rounds - 1) * bus.round_length
                if w_next == w:
                    break
                if w_next > horizon:
                    w = math.inf
                    break
                w = w_next
            else:
                w = math.inf
            if w != ttp_queue[m]:
                ttp_queue[m] = w
                ttp_ahead[m] = ahead
                changed = True

        # 4. Release jitters of ET processes from incoming arcs.
        for p in et_procs:
            own_offset = proc_offsets.get(p, 0.0)
            jitter = 0.0
            for msg_name, pred in proc_arcs[p]:
                if msg_name is not None:
                    key = final_can.get(msg_name)
                    resp = leg_resp[key] if key is not None else 0.0
                    arrival = msg_offsets.get(msg_name, 0.0) + resp
                else:
                    arrival = proc_offsets.get(pred, 0.0) + proc_resp.get(
                        pred, wcet[pred]
                    )
                if arrival - own_offset > jitter:
                    jitter = arrival - own_offset
            if jitter != proc_jitter[p]:
                proc_jitter[p] = jitter
                changed = True

        # 5. Busy windows of ET processes (per-node preemptive analysis).
        proc_residency = {
            q: (proc_window[q] if math.isfinite(proc_window[q]) else horizon)
            for q in et_procs
        }
        for p in et_procs:
            names, rels, periods, costs, locked, anc = proc_int[p]
            window = _solve_window(
                wcet[p], proc_jitter[p], names, rels, periods, costs,
                locked, anc, proc_jitter, proc_residency, 0.0, horizon,
            )
            if window != proc_window[p]:
                proc_window[p] = window
                changed = True
            proc_resp[p] = proc_jitter[p] + window

        if not changed:
            break
    else:
        raise AnalysisError(
            "multi-hop holistic analysis did not stabilize within "
            f"{_MAX_OUTER_ITERATIONS} iterations"
        )

    # -- package results ----------------------------------------------------
    result = ResponseTimes()
    for proc in app.all_processes():
        name = proc.name
        if arch.is_tt_node(proc.node):
            result.processes[name] = ActivityTiming(
                offset=proc_offsets.get(name, 0.0),
                jitter=0.0,
                queuing=0.0,
                duration=proc.wcet,
            )
        else:
            window = proc_window[name]
            converged = math.isfinite(window) and math.isfinite(proc_jitter[name])
            result.processes[name] = ActivityTiming(
                offset=proc_offsets.get(name, 0.0),
                jitter=proc_jitter[name] if converged else math.inf,
                queuing=window - proc.wcet if converged else math.inf,
                duration=proc.wcet,
                converged=converged,
            )
    result.processes[GATEWAY_TRANSFER_PROCESS] = ActivityTiming(
        offset=0.0, jitter=0.0, queuing=0.0,
        duration=arch.gateway_transfer_wcet,
    )
    for g in arch.gateways():
        result.processes[f"{GATEWAY_TRANSFER_PROCESS}@{g}"] = ActivityTiming(
            offset=0.0, jitter=0.0, queuing=0.0, duration=transfer[g]
        )

    def can_record(key: Tuple[str, int]) -> ActivityTiming:
        m = key[0]
        converged = math.isfinite(leg_queue[key]) and math.isfinite(
            leg_jitter[key]
        )
        return ActivityTiming(
            offset=msg_offsets.get(m, 0.0),
            jitter=leg_jitter[key] if converged else math.inf,
            queuing=leg_queue[key] if converged else math.inf,
            duration=frame_time[m],
            converged=converged,
        )

    def fifo_record(m: str) -> ActivityTiming:
        converged = math.isfinite(ttp_queue[m]) and math.isfinite(
            ttp_jitter[m]
        )
        return ActivityTiming(
            offset=msg_offsets.get(m, 0.0),
            jitter=ttp_jitter[m] if converged else math.inf,
            queuing=ttp_queue[m] if converged else math.inf,
            duration=gw_slot[fifo_of[m].sender].duration,
            converged=converged,
        )

    for m in can_msgs:
        key = final_can.get(m)
        if key is not None:
            result.can[m] = can_record(key)
        else:
            # ET->TT: the classic convention reports the (source) CAN
            # leg; the FIFO leg is the ttp record below.
            result.can[m] = can_record((m, 0))
    for m in ettt_msgs:
        result.ttp[m] = fifo_record(m)
    for m in can_msgs:
        legs = plan.legs_of(m)
        if len(legs) > 1:
            records = []
            for pos, leg in enumerate(legs):
                if leg.is_fifo:
                    records.append(fifo_record(m))
                else:
                    records.append(can_record((m, pos)))
            result.hops[m] = tuple(records)
    for msg in app.all_messages():
        if system.route(msg.name) is MessageRoute.TT_TO_TT:
            result.tt_arrival[msg.name] = msg_offsets.get(msg.name, 0.0)
    return result


def _leg_blocking(
    system: System,
    priorities: PriorityAssignment,
    plan: RoutingPlan,
    leg_of: Dict,
    legs_on_bus: Dict,
    key: Tuple[str, int],
    message_offsets,
    leg_jitter,
    frame_time,
    msg_period,
) -> float:
    """Per-bus blocking ``B`` of one CAN leg (cf. ``legacy_rta.can_blocking``).

    Same offset-aware exclusions as the canonical rule, generalized:
    two frames relayed out of the *same* gateway from the TT side with
    equal phase-locked offsets are enqueued atomically by that
    gateway's transfer process and never block each other.
    """
    m, pos = key
    leg = leg_of[key]
    own = priorities.message_priority(m)
    own_period = msg_period[m]
    own_offset = message_offsets.get(m, 0.0)
    own_jitter = leg_jitter.get(key, 0.0)
    from_tt = leg.via is not None and (
        pos == 0 or plan.legs_of(m)[pos - 1].is_fifo
    )
    worst = 0.0
    for other_key in legs_on_bus[leg.cluster]:
        j, j_pos = other_key
        if j == m:
            continue
        if priorities.message_priority(j) <= own:
            continue
        if msg_period[j] == own_period:
            other_offset = message_offsets.get(j, 0.0)
            j_leg = leg_of[other_key]
            j_from_tt = j_leg.via is not None and (
                j_pos == 0 or plan.legs_of(j)[j_pos - 1].is_fifo
            )
            atomic_frame = (
                from_tt
                and j_from_tt
                and leg.via == j_leg.via
                and other_offset == own_offset
            )
            if atomic_frame or other_offset >= own_offset + own_jitter:
                continue
        worst = max(worst, frame_time[j])
    return worst
