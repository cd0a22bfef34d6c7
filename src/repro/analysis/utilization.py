"""Processor and bus utilization checks.

Section 4 ties the termination of both fixed-point layers (the inner
response-time equations and the outer multi-cluster loop) to processor and
bus loads below 100% and deadlines no larger than periods.  This module
computes those loads so callers can detect doomed systems early and so the
workload generator can target a utilization level.
"""

from __future__ import annotations

from typing import Dict

from ..model.architecture import MessageRoute
from ..system import System

__all__ = [
    "node_utilization",
    "can_bus_utilization",
    "ttp_bus_demand",
    "system_overloaded",
]


def node_utilization(system: System) -> Dict[str, float]:
    """CPU utilization ``sum C_i / T_i`` per node.

    The gateway transfer process ``T`` is charged to the gateway node once
    per TDMA-round-equivalent; since the round length is a synthesis
    variable the charge uses the configured transfer period when given and
    is otherwise omitted (``T`` is tiny in all paper examples).
    """
    load: Dict[str, float] = {name: 0.0 for name in system.arch.nodes}
    for proc in system.app.all_processes():
        period = system.app.period_of_process(proc.name)
        load[proc.node] += proc.wcet / period
    arch = system.arch
    if arch.gateway_transfer_period:
        for gateway in arch.gateways():
            load[gateway] += (
                arch.transfer_wcet_of(gateway) / arch.gateway_transfer_period
            )
    return load


def can_bus_utilization(system: System) -> float:
    """Utilization of the CAN bus: ``sum C_m / T_m`` over CAN messages."""
    total = 0.0
    for name in system.can_messages():
        total += system.can_frame_time(name) / system.app.period_of_message(name)
    return total


def ttp_bus_demand(system: System) -> Dict[str, float]:
    """Bytes per time unit each TTP transmitter must move, per node.

    For node ``N`` this is ``sum s_m / T_m`` over the TT->TT and TT->ET
    messages sent from ``N`` plus, for a gateway, the messages whose
    ``Out_TTP`` leg it holds on their default routes.  Comparing against ``slot_capacity / round_length`` bounds
    the TTP load.
    """
    demand: Dict[str, float] = {n: 0.0 for n in system.arch.ttp_slot_owners()}
    plan = system.default_routing()
    for msg in system.app.all_messages():
        route = system.route(msg.name)
        period = system.app.period_of_message(msg.name)
        if route in (MessageRoute.TT_TO_TT, MessageRoute.TT_TO_ET):
            demand[system.app.process(msg.src).node] += msg.size / period
        else:
            # The TDMA transmitter of a relayed message is the gateway
            # holding its FIFO leg (if any; pure ET->ET routes never
            # touch the TT bus).
            leg = plan.fifo_leg(msg.name)
            if leg is not None:
                demand[leg.via] += msg.size / period
    return demand


def system_overloaded(system: System) -> bool:
    """True when any CPU or the CAN bus is at or above 100% load.

    Such systems are unschedulable regardless of configuration and the
    response-time fixed points would diverge (section 4.2).
    """
    if can_bus_utilization(system) >= 1.0:
        return True
    return any(u >= 1.0 for u in node_utilization(system).values())
