"""The sweep-everything holistic fixed point (parity oracle).

:func:`full_sweep_solve` runs the compiled kernel's fixed point the way
it ran before the active set: every sweep re-solves every CAN, FIFO and
process row and recomputes every jitter, and the loop stops after a
sweep that changed nothing.  It reads the kernel's compiled rows but
none of its dirty-tracking structures or its cache of earlier solves,
so it is the reference the active-set solve is compared against
(``tests/test_active_set_parity.py``): the same packaged ``ρ`` and the
same :class:`~repro.analysis.kernel.SolveState`, bit for bit.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.analysis import kernel as _kernel
from repro.analysis.can_analysis import TIE_EPSILON
from repro.analysis.kernel import AnalysisContext, SolveState
from repro.analysis.timing import ResponseTimes
from repro.exceptions import AnalysisError
from repro.model.configuration import OffsetTable
from repro.semantics import ettt_queue_instant, fifo_drain_rounds

_INF = math.inf


def full_sweep_solve(
    kernel: AnalysisContext,
    offsets: OffsetTable,
) -> Tuple[ResponseTimes, SolveState]:
    """Solve ``kernel`` at ``offsets`` by full sweeps; returns the full
    packaged ``ρ`` and the state.  Re-points the kernel at ``offsets``
    (as a solve does) and leaves its statistics alone."""
    kernel._set_offsets(offsets)
    kernel._refresh_offsets()
    _solve_row = _kernel._solve_row

    n_proc = len(kernel.et_procs)
    n_msg = len(kernel._slot_msg)
    n_ttp = len(kernel._fifo_msg)
    wcet = kernel._wcet
    frame_time = kernel._slot_frame
    horizon = kernel._horizon
    bus = kernel._bus
    round_length = kernel._round_length
    fifo_off = kernel._fifo_off
    fifo_prev = kernel._fifo_prev
    fifo_transfer = kernel._fifo_transfer
    fifo_gateway = kernel._fifo_gateway
    fifo_capacity = kernel._fifo_capacity
    fifo_slot_time = kernel._fifo_slot_time
    fifo_size = kernel._fifo_size
    slot_off = kernel._slot_off
    proc_off = kernel._proc_off
    entries = kernel._slot_entry

    pj = [0.0] * n_proc
    pw = list(wcet)
    pr = list(wcet)
    mj = [0.0] * n_msg
    mq = [0.0] * n_msg
    mr = list(frame_time)
    tj = [0.0] * n_ttp
    tq = [0.0] * n_ttp

    if kernel._can_error is not None:
        mj = mj[:n_msg] + [kernel._can_error[2]]

    can_rows = kernel._can_rows_z
    ttp_rows = kernel._ttp_rows_z
    proc_rows = kernel._proc_rows_z
    floor = math.floor
    ceil = math.ceil

    for _ in range(_kernel._MAX_OUTER_ITERATIONS):
        changed = False

        # 1. CAN queueing jitters.
        for i in range(n_msg):
            kind, k, transfer = entries[i]
            if kind == _kernel._SOURCE:
                j = pr[k] - wcet[k]
                if j < 0.0:
                    j = 0.0
            elif kind == _kernel._ENTRY:
                j = transfer
            elif kind == _kernel._TRANSIT:
                j = tj[k] + tq[k] + fifo_slot_time[k] + transfer
            else:
                j = mr[k] + transfer
            if j != mj[i]:
                mj[i] = j
                changed = True

        # 2. CAN queueing delays.
        res_can = [
            (mq[i] if mq[i] != _INF else horizon) + frame_time[i]
            for i in range(n_msg)
        ]
        for i in range(n_msg):
            base = kernel._blocking(i, mj[i])
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

        # 3. Gateway Out_TTP FIFOs.
        for i in range(n_ttp):
            j = mr[fifo_prev[i]] + fifo_transfer[i]
            if j != tj[i]:
                tj[i] = j
                changed = True
        for i in range(n_ttp):
            instant = ettt_queue_instant(fifo_off[i], tj[i])
            if instant == _INF:
                if tq[i] != _INF:
                    changed = True
                tq[i] = _INF
                continue
            blocking = bus.waiting_time(fifo_gateway[i], instant)
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
                continue
            own_j = tj[i]
            max_size = kernel._fifo_max_size[i]
            w = blocking
            for _inner in range(_kernel._MAX_INNER_ITERATIONS):
                ahead = 0.0
                count = 0
                for k, rel, period, cost, lck, anc in row:
                    if lck:
                        k_max = floor((own_j + w - rel) / period + 1e-9)
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
                        hits = ceil(x / period - 1e-12) if x > 0 else 0
                    ahead += hits * cost
                    count += hits
                rounds = fifo_drain_rounds(
                    fifo_size[i], ahead, count,
                    fifo_capacity[i], max_size,
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
                changed = True

        # 4. Release jitters of ET processes.
        for i in range(n_proc):
            own_offset = proc_off[i]
            jitter = 0.0
            for slot, pred_idx, pred_name in kernel._proc_arcs[i]:
                if slot >= 0:
                    arrival = slot_off[slot] + mr[slot]
                elif pred_idx >= 0:
                    arrival = proc_off[pred_idx] + pr[pred_idx]
                else:
                    arrival = kernel._proc_off_map.get(
                        pred_name, 0.0
                    ) + kernel._tt_pred_wcet[pred_name]
                if arrival - own_offset > jitter:
                    jitter = arrival - own_offset
            if jitter != pj[i]:
                pj[i] = jitter
                changed = True

        # 5. Busy windows of ET processes.
        res_proc = [
            pw[i] if pw[i] != _INF else horizon for i in range(n_proc)
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
            f"{_kernel._MAX_OUTER_ITERATIONS} iterations"
        )

    state = SolveState(
        proc_jitter=pj, proc_window=pw, proc_resp=pr,
        msg_jitter=mj, msg_queue=mq, msg_resp=mr,
        ttp_jitter=tj, ttp_queue=tq,
    )
    return kernel.package(state), state
