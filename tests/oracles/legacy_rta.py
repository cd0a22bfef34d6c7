"""The pre-kernel holistic response-time analysis (parity oracle).

:func:`legacy_response_time_analysis` recompiles the whole interference
structure on every call.  It is the semantic reference the compiled
:class:`repro.analysis.kernel.AnalysisContext` is parity-tested against
(``tests/test_kernel_parity.py``); the jitter propagation rules it
implements are listed in :mod:`repro.analysis.holistic`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.can_analysis import TIE_EPSILON, can_error_term
from repro.analysis.timing import ActivityTiming, ResponseTimes
from repro.buses.ttp import TTPBusConfig
from repro.exceptions import AnalysisError
from repro.model.architecture import GATEWAY_TRANSFER_PROCESS, MessageRoute
from repro.model.configuration import OffsetTable, PriorityAssignment
from repro.semantics import (
    ettt_queue_instant,
    fifo_competitors,
    fifo_drain_rounds,
)
from repro.system import System

from .busy_window import (
    _MAX_INNER_ITERATIONS,
    _MAX_OUTER_ITERATIONS,
    _rel_offset,
    _solve_window,
    phase_locked_hits,
)

__all__ = ["legacy_response_time_analysis"]


def can_blocking(
    system: System,
    priorities: PriorityAssignment,
    msg: str,
    message_offsets: Mapping[str, float],
    message_jitters: Optional[Mapping[str, float]] = None,
) -> float:
    """Blocking ``B_m``: largest frame among lower-priority messages that
    can already be on the wire when ``m`` is queued.

    Offset-aware exclusions (calibrated on the paper's worked example,
    which computes ``w_m1 = 0`` although m2 and m3 have lower priority):

    * a phase-locked (equal-period) lower-priority TT->ET message with the
      *same offset* arrives in the same gateway frame: the transfer
      process enqueues the whole frame atomically into the
      priority-ordered ``Out_CAN``, so it can never start ahead of ``m``;
    * a phase-locked lower-priority message whose earliest queueing
      ``O_k`` lies at or after ``m``'s *latest* queueing ``O_m + J_m``
      cannot have started transmitting before ``m`` was queued.

    Everything else (different periods, or earliest start inside ``m``'s
    queueing window) can be mid-frame when ``m`` arrives and blocks.
    """
    own = priorities.message_priority(msg)
    own_period = system.app.period_of_message(msg)
    own_offset = message_offsets.get(msg, 0.0)
    own_jitter = (message_jitters or {}).get(msg, 0.0)
    own_route = system.route(msg)
    worst = 0.0
    for other in system.can_messages():
        if other == msg:
            continue
        if priorities.message_priority(other) <= own:
            continue
        if system.app.period_of_message(other) == own_period:
            other_offset = message_offsets.get(other, 0.0)
            atomic_frame = (
                own_route is MessageRoute.TT_TO_ET
                and system.route(other) is MessageRoute.TT_TO_ET
                and other_offset == own_offset
            )
            if atomic_frame or other_offset >= own_offset + own_jitter:
                continue
        worst = max(worst, system.can_frame_time(other))
    return worst


def legacy_response_time_analysis(
    system: System,
    offsets: OffsetTable,
    priorities: PriorityAssignment,
    bus: TTPBusConfig,
    faults=None,
) -> ResponseTimes:
    """The pre-kernel reference implementation of the holistic analysis.

    Recompiles the whole interference structure on every call; kept as
    the semantic reference the compiled kernel is parity-tested against
    (``tests/test_kernel_parity.py``) and as the baseline the kernel
    benchmark measures speedups over.

    Activities whose equations diverge (overload) are reported with
    ``converged=False`` and infinite response times; the caller decides
    how to penalize them (see :mod:`repro.analysis.degree`).

    ``faults`` (modeled CAN error process) appends the retransmission
    term to every CAN window as the sentinel interferer
    ``__can_error__`` — same position (end of row) and constant jitter
    as the kernel's virtual slot, so results stay bit-identical.
    """
    app = system.app
    arch = system.arch
    transfer_wcet = arch.gateway_transfer_wcet
    transfer_response = transfer_wcet  # T runs highest-priority on NG.

    et_procs = system.et_processes()
    can_msgs = system.can_messages()
    ettt_msgs = system.et_to_tt_messages()
    proc_offsets = offsets.process_offsets
    msg_offsets = offsets.message_offsets
    gateway_slot = bus.slot_of(arch.gateway)
    gateway_slot_time = gateway_slot.duration

    wcet = {p.name: p.wcet for p in app.all_processes()}
    proc_graph = {p.name: app.graph_of_process(p.name).name for p in app.all_processes()}
    proc_period = {p.name: app.period_of_process(p.name) for p in app.all_processes()}
    msg_graph = {m: app.graph_of_message(m).name for m in can_msgs}
    msg_period = {m: app.period_of_message(m) for m in can_msgs}
    msg_size = {m: float(app.message(m).size) for m in can_msgs}
    frame_time = {m: system.can_frame_time(m) for m in can_msgs}

    # A generous divergence bound: several hyper-periods of demand.
    horizon = 4.0 * max(
        [g.period for g in app.graphs.values()] + [bus.round_length]
    ) + 1.0e4

    # -- compile the constant interference structure -------------------------
    # CAN bus: hp interferer arrays per message (the blocking term depends
    # on the evolving jitters and is recomputed inside the loop).
    error_term = can_error_term(system, faults)
    can_int: Dict[str, tuple] = {}
    for m in can_msgs:
        own_prio = priorities.message_priority(m)
        names: List[str] = []
        rels: List[float] = []
        periods: List[float] = []
        costs: List[float] = []
        locked_flags: List[bool] = []
        anc_flags: List[bool] = []
        for j in can_msgs:
            if j == m or priorities.message_priority(j) > own_prio:
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
        can_int[m] = (names, rels, periods, costs, locked_flags, anc_flags)

    # Gateway Out_TTP FIFO: byte-cost interferers per ET->TT message.
    # The FIFO drains in arrival order, so the competitor set is every
    # other ET->TT message regardless of CAN priority (the shared
    # contract of repro.semantics; a hp-only set was the seed=1654
    # dominance violation).
    ttp_int: Dict[str, tuple] = {}
    for m in ettt_msgs:
        names = []
        rels = []
        periods = []
        costs = []
        locked_flags = []
        anc_flags = []
        for j in fifo_competitors(system, m):
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

    # ET processes: same-node higher-priority interferers.
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

    # Incoming arcs of each ET process (for release jitter propagation).
    proc_arcs: Dict[str, List[Tuple[Optional[str], str]]] = {}
    for p in et_procs:
        graph = app.graph_of_process(p)
        proc_arcs[p] = [
            (msg_name, pred) for pred, msg_name in graph.predecessors(p)
        ]

    # -- iterate the global monotone fixed point -----------------------------
    proc_jitter: Dict[str, float] = {p: 0.0 for p in et_procs}
    proc_window: Dict[str, float] = {p: wcet[p] for p in et_procs}
    proc_resp: Dict[str, float] = {p: wcet[p] for p in et_procs}
    msg_jitter: Dict[str, float] = {m: 0.0 for m in can_msgs}
    if error_term is not None:
        # Constant jitter of the virtual error interferer; the step-1
        # sweep only writes real message names, so it never changes.
        msg_jitter["__can_error__"] = error_term.jitter
    msg_queue: Dict[str, float] = {m: 0.0 for m in can_msgs}
    msg_resp: Dict[str, float] = {m: frame_time[m] for m in can_msgs}
    ttp_jitter: Dict[str, float] = {m: 0.0 for m in ettt_msgs}
    ttp_queue: Dict[str, float] = {m: 0.0 for m in ettt_msgs}
    ttp_ahead: Dict[str, float] = {m: 0.0 for m in ettt_msgs}

    route = system.route
    msg_src = {m: app.message(m).src for m in can_msgs}

    for _ in range(_MAX_OUTER_ITERATIONS):
        changed = False

        # 1. Message queueing jitters from current process responses.
        for m in can_msgs:
            if route(m) is MessageRoute.TT_TO_ET:
                j = transfer_response
            else:
                src = msg_src[m]
                j = max(0.0, proc_resp.get(src, wcet[src]) - wcet[src])
            if j != msg_jitter[m]:
                msg_jitter[m] = j
                changed = True

        # 2. CAN bus queueing delays (all CAN messages arbitrate together).
        # Residency of an interferer on the wire: its own queueing delay
        # plus its frame time (it can still be transmitting that long
        # after its release).
        can_residency = {
            j: (msg_queue[j] if math.isfinite(msg_queue[j]) else horizon)
            + frame_time[j]
            for j in can_msgs
        }
        for m in can_msgs:
            base = can_blocking(
                system, priorities, m, msg_offsets, message_jitters=msg_jitter
            )
            names, rels, periods, costs, locked, anc = can_int[m]
            w = _solve_window(
                base, msg_jitter[m], names, rels, periods, costs, locked,
                anc, msg_jitter, can_residency, TIE_EPSILON, horizon,
            )
            if w != msg_queue[m]:
                msg_queue[m] = w
                changed = True
            msg_resp[m] = msg_jitter[m] + w + frame_time[m]

        # 3. Gateway Out_TTP FIFO for ET->TT messages.
        for m in ettt_msgs:
            j = msg_resp[m] + transfer_response
            if j != ttp_jitter[m]:
                ttp_jitter[m] = j
                changed = True
        for m in ettt_msgs:
            instant = ettt_queue_instant(
                msg_offsets.get(m, 0.0), ttp_jitter[m]
            )
            if math.isinf(instant):
                if not math.isinf(ttp_queue[m]):
                    changed = True
                ttp_queue[m] = math.inf
                ttp_ahead[m] = math.inf
                continue
            blocking = bus.waiting_time(arch.gateway, instant)
            names, rels, periods, costs, locked, anc = ttp_int[m]
            if any(math.isinf(ttp_jitter[n]) for n in names):
                if not math.isinf(ttp_queue[m]):
                    changed = True
                ttp_queue[m] = math.inf
                ttp_ahead[m] = math.inf
                continue
            # Residency in the FIFO: the interferer's own queueing delay.
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
                # Whole-frame drain bound (repro.semantics): the paper's
                # byte-granular ceil((S+I)/cap) under-counts head-of-line
                # fragmentation of the gateway slot.
                rounds = fifo_drain_rounds(
                    msg_size[m], ahead, count,
                    gateway_slot.capacity, max_size,
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
                    arrival = msg_offsets.get(msg_name, 0.0) + msg_resp[msg_name]
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
        # Residency of an interfering process: its whole busy window.
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
            "holistic analysis did not stabilize within "
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
        offset=0.0, jitter=0.0, queuing=0.0, duration=transfer_wcet
    )
    for m in can_msgs:
        converged = math.isfinite(msg_queue[m]) and math.isfinite(msg_jitter[m])
        result.can[m] = ActivityTiming(
            offset=msg_offsets.get(m, 0.0),
            jitter=msg_jitter[m] if converged else math.inf,
            queuing=msg_queue[m] if converged else math.inf,
            duration=frame_time[m],
            converged=converged,
        )
    for m in ettt_msgs:
        converged = math.isfinite(ttp_queue[m]) and math.isfinite(ttp_jitter[m])
        result.ttp[m] = ActivityTiming(
            offset=msg_offsets.get(m, 0.0),
            jitter=ttp_jitter[m] if converged else math.inf,
            queuing=ttp_queue[m] if converged else math.inf,
            duration=gateway_slot_time,
            converged=converged,
        )
    for msg in app.all_messages():
        if route(msg.name) is MessageRoute.TT_TO_TT:
            result.tt_arrival[msg.name] = msg_offsets.get(msg.name, 0.0)
    return result
