"""Routing synthesis: the fourth configuration dimension (PR 8).

On the canonical two-cluster topology every inter-cluster message has
exactly one route, so routing is not a decision.  The moment a cluster
pair is bridged by parallel gateways — or a third cluster opens a
detour — the route becomes a synthesis knob with real timing
consequences: it selects which gateway's ``Out_CAN``/``Out_TTP`` queues
the message competes in, which TDMA slot drains it, and which CAN bus
it arbitrates on.

Two entry points:

* :func:`greedy_routes` — the seed: every message takes its shortest
  *feasible* route (slot capacities can carry it), with ties broken by
  greedily balancing accumulated byte load across gateways (largest
  messages placed first) and then lexicographically.  On canonical
  topologies the result is always empty — the default routes stand.
* :func:`route_moves` / :class:`RerouteMessage` — the neighborhood: one
  move per alternative route of each inter-cluster message, consumed by
  the hill climber and the annealers next to the classic slot, priority
  and delay families (:mod:`repro.optim.moves`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..buses.ttp import TTPBusConfig
from ..exceptions import ConfigurationError
from ..model.configuration import SystemConfiguration
from ..system import System
from .moves import Move

__all__ = [
    "RerouteMessage",
    "route_candidates",
    "greedy_routes",
    "route_moves",
    "fit_bus_to_routes",
]


def fit_bus_to_routes(
    system: System,
    bus: TTPBusConfig,
    routes: Optional[Dict[str, Tuple[str, ...]]],
) -> TTPBusConfig:
    """Grow TDMA slot capacities until every routed message fits.

    Canonical slot sizing assumes default routing; a route override can
    relay a message through a gateway whose minimal slot cannot carry
    it.  This returns ``bus`` unchanged when every relaying slot is
    already large enough (the default-routing case in particular), else
    a copy with the affected capacities raised to the largest relayed
    payload — durations are never touched, so the TDMA tiling and the
    round length stay as configured.
    """
    plan = system.routing_for(routes or None)
    need: Dict[str, int] = {}
    for name in plan.routes:
        leg = plan.fifo_leg(name)
        if leg is not None:
            size = system.app.message(name).size
            need[leg.via] = max(need.get(leg.via, 0), size)
    slots = []
    changed = False
    for slot in bus.slots:
        required = need.get(slot.node, 0)
        if required > slot.capacity:
            slots.append(
                type(slot)(
                    node=slot.node,
                    capacity=required,
                    duration=slot.duration,
                )
            )
            changed = True
        else:
            slots.append(slot)
    return type(bus)(slots) if changed else bus


@dataclass(frozen=True)
class RerouteMessage(Move):
    """Set one message's gateway route (the routing move family).

    ``is_default`` marks the topology's own shortest route: applying it
    *removes* the override so the configuration stays canonical (an
    empty ``routes`` dict hashes like a pre-routing config).
    """

    message: str
    route: Tuple[str, ...]
    is_default: bool = False

    def apply(self, config: SystemConfiguration) -> SystemConfiguration:
        new = config.copy()
        if self.is_default:
            new.routes.pop(self.message, None)
        else:
            new.routes[self.message] = tuple(self.route)
        return new

    def describe(self) -> str:
        path = "->".join(self.route) if self.route else "direct"
        tag = " (default)" if self.is_default else ""
        return f"reroute {self.message} via {path}{tag}"


def _slot_feasible(
    system: System,
    bus: Optional[TTPBusConfig],
    msg_name: str,
    route: Tuple[str, ...],
) -> bool:
    """Every TT-entering hop's TDMA slot can carry the message."""
    if bus is None:
        return True
    topo = system.arch.topology
    size = system.app.message(msg_name).size
    src, _dst = system.clusters_of_message(msg_name)
    current = src
    for hop in route:
        current = topo.gateways[hop].other(current)
        if topo.clusters[current].kind != "TT":
            continue
        try:
            slot = bus.slot_of(hop)
        except ConfigurationError:
            return False  # the relaying gateway owns no TTP slot
        if slot.capacity < size:
            return False
    return True


def route_candidates(
    system: System,
    msg_name: str,
    bus: Optional[TTPBusConfig] = None,
    max_hops: int = 4,
) -> List[Tuple[str, ...]]:
    """Feasible routes of one message, shortest first.

    Empty for intra-cluster messages.  When slot capacities rule out
    *every* route, the unfiltered candidate list is returned — an
    infeasible route the evaluator rejects loudly beats silently
    dropping the message.
    """
    src, dst = system.clusters_of_message(msg_name)
    if src == dst:
        return []
    routes = system.routes_between(src, dst, max_hops)
    feasible = [
        r for r in routes if _slot_feasible(system, bus, msg_name, r)
    ]
    return feasible or list(routes)


def greedy_routes(
    system: System,
    bus: Optional[TTPBusConfig] = None,
    max_hops: int = 4,
) -> Dict[str, Tuple[str, ...]]:
    """The greedy shortest-feasible-route seed (see module docstring).

    Returns only the non-default decisions, so the canonical topology —
    and any topology without routing freedom — yields ``{}`` and the
    seeded configuration hashes unchanged.
    """
    topo = system.arch.topology
    load: Dict[str, float] = {g: 0.0 for g in topo.gateway_names()}
    overrides: Dict[str, Tuple[str, ...]] = {}
    crossing = []
    for msg in system.app.all_messages():
        src, dst = system.clusters_of_message(msg.name)
        if src != dst:
            crossing.append((msg.name, msg.size))
    # Largest first: the hardest messages get first pick of the
    # emptiest gateways; name breaks ties deterministically.
    crossing.sort(key=lambda item: (-item[1], item[0]))
    for name, size in crossing:
        candidates = route_candidates(system, name, bus, max_hops)
        best = min(
            candidates,
            key=lambda r: (len(r), sum(load[g] for g in r), r),
        )
        for hop in best:
            load[hop] += size
        if best != system.default_route(name):
            overrides[name] = best
    return overrides


def route_moves(
    system: System,
    config: SystemConfiguration,
    max_hops: int = 4,
) -> List[Move]:
    """One :class:`RerouteMessage` per alternative route per message.

    Empty on canonical topologies (every message has exactly one
    route), which keeps the classic optimizers' move sequences — and
    therefore their seeded RNG draws — byte-identical.
    """
    moves: List[Move] = []
    for msg in system.app.all_messages():
        candidates = route_candidates(system, msg.name, config.bus, max_hops)
        if len(candidates) < 2:
            continue
        default = system.default_route(msg.name)
        current = tuple(config.routes.get(msg.name, default))
        for route in candidates:
            if route == current:
                continue
            moves.append(
                RerouteMessage(
                    message=msg.name,
                    route=route,
                    is_default=route == default,
                )
            )
    return moves
