"""Holistic response-time analysis over arbitrary routes (multi-hop).

The paper's fixed shape — one ETC, one TTC, one gateway — gives every
CAN-borne message exactly one bus leg and every ET->TT message exactly
one FIFO leg.  General topologies run the same holistic fixed point
*per leg*: each message contributes one analysed activity per
:class:`repro.semantics.routing.Leg` of its route, and the jitter chain
threads the legs together:

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

On the canonical topology (one TTC, one ETC, one gateway) every rule
above reduces to the classic single-hop rule of
:mod:`repro.analysis.holistic`; the paper's shape is simply the
one-gateway plan.  The compiled kernel
(:class:`repro.analysis.kernel.AnalysisContext`) implements these rules
on per-leg index rows for every system; this module keeps the public
one-shot entry point over an explicit plan, which shares its
implementation with :func:`repro.analysis.holistic.response_time_analysis`.
The interpreted implementation it replaced is kept as a parity oracle
(``tests/oracles``).
"""

from __future__ import annotations

from ..buses.ttp import TTPBusConfig
from ..model.configuration import OffsetTable, PriorityAssignment
from ..semantics.routing import RoutingPlan
from ..system import System
from .kernel import kernel_for
from .timing import ResponseTimes

__all__ = ["multihop_response_time_analysis"]


def multihop_response_time_analysis(
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
    traversal order for multi-leg messages (multi-gateway plans only:
    a one-gateway plan keeps the classic records, without ``hops`` or
    ``T@<gateway>``).  Re-targets the System's kernel at the plan and
    solves once.
    """
    kernel = kernel_for(system, priorities, bus, faults, plan.routes)
    rho, _ = kernel.solve(offsets)
    return rho
