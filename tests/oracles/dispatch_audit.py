"""The static dispatch audit of a built schedule (conformance oracle).

The list scheduler constrains every TT dispatch with the shared
:mod:`repro.semantics` predicates; this audit re-checks a finished
:class:`repro.schedule.StaticSchedule` against them from the outside,
so the conformance suite can assert the analytic half of the dominance
invariant (the simulation half is :mod:`repro.conformance`).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.model.architecture import MessageRoute
from repro.semantics import dispatch_respects_arrival, et_to_tt_constraint

__all__ = ["audit_dispatch_eligibility"]


def audit_dispatch_eligibility(
    schedule, system, rho
) -> List[Tuple[str, str, float, float]]:
    """Cross-check ``schedule``'s tables against the dispatch contract.

    For every TT schedule entry and every message it consumes, verifies
    that the dispatch instant respects the message's worst-case
    availability — the statically fixed arrival for TT->TT frames, the
    analytic bound of ``rho`` (a
    :class:`repro.analysis.timing.ResponseTimes`) for ET->TT messages —
    using the same predicate the simulator applies at runtime.  Returns
    ``(process, message, dispatch_time, required_arrival)`` tuples for
    every entry that fires too early; an empty list means the schedule
    honours the contract.
    """
    offenders: List[Tuple[str, str, float, float]] = []
    app = system.app
    for entries in schedule.tables.values():
        for entry in entries:
            graph = app.graph_of_process(entry.process)
            for _pred, msg_name in graph.predecessors(entry.process):
                if msg_name is None:
                    continue
                route = system.route(msg_name)
                if route is MessageRoute.TT_TO_TT:
                    arrival = schedule.message_arrival.get(msg_name, 0.0)
                elif route is MessageRoute.ET_TO_TT:
                    arrival = et_to_tt_constraint(msg_name, rho, None)
                else:
                    continue
                if not dispatch_respects_arrival(entry.start, arrival):
                    offenders.append(
                        (entry.process, msg_name, entry.start, arrival)
                    )
    return offenders
