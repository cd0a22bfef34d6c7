"""Cross-validation of an application against an architecture and config.

These checks catch modelling mistakes early, before they surface as
confusing analysis results: unmapped processes, messages between processes
on the same node (which the model folds into WCETs), bus configurations
missing a slot for a transmitting node, and incomplete priority tables.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..exceptions import ConfigurationError, MappingError
from .application import Application
from .architecture import Architecture, MessageRoute
from .configuration import PriorityAssignment, SystemConfiguration

__all__ = [
    "ConfigurationRules", "minimum_slot_capacity", "validate_configuration",
    "validate_system",
]

#: Routes whose messages arbitrate on the CAN bus.
_CAN_ROUTES = (
    MessageRoute.ET_TO_ET, MessageRoute.TT_TO_ET, MessageRoute.ET_TO_TT,
)


def validate_system(app: Application, arch: Architecture) -> None:
    """Check the application/architecture pair is well formed.

    * every process is mapped to an existing, non-gateway node;
    * no message connects two processes on the same node (same-node
      communication must be modelled as a :class:`Dependency`);
    * messages between clusters are possible (a gateway exists — by
      construction of :class:`Architecture` it always does).
    """
    arch.validate_mapping(app)
    for msg in app.all_messages():
        route = arch.route_of(app, msg)
        if route is MessageRoute.LOCAL:
            raise MappingError(
                f"message {msg.name} connects two processes on node "
                f"{app.process(msg.src).node}; model same-node communication "
                "as a Dependency (its cost is part of the sender WCET)"
            )


class ConfigurationRules:
    """The per-System constants of :func:`validate_configuration`; a
    :class:`repro.system.System` builds its own once, from its cached
    ``routes`` (message -> :class:`MessageRoute`)."""

    def __init__(
        self,
        app: Application,
        arch: Architecture,
        routes: Optional[Mapping[str, MessageRoute]] = None,
    ) -> None:
        if routes is None:
            routes = {m.name: arch.route_of(app, m) for m in app.all_messages()}
        self.app = app
        self.arch = arch
        self.slot_owners = set(arch.ttp_slot_owners())
        # In model order, which fixes the first error reported.
        self.et_processes: List[Tuple[str, str]] = [
            (p.name, p.node) for p in app.all_processes()
            if arch.is_et_node(p.node)
        ]
        self.can_messages: List[str] = [
            m.name for m in app.all_messages() if routes[m.name] in _CAN_ROUTES
        ]
        #: Largest message each TTP-transmitting node must fit in its slot.
        self.largest_payload: Dict[str, int] = {}
        for msg in app.all_messages():
            route = routes[msg.name]
            if route in (MessageRoute.TT_TO_TT, MessageRoute.TT_TO_ET):
                # Sent over the TTP bus in the sender node's slot (for
                # TT->ET the first leg ends at the gateway MBI).
                senders = [app.process(msg.src).node]
            elif route is MessageRoute.LOCAL:
                continue
            else:
                # ET-sourced: relayed over the TTP bus by every gateway
                # whose crossing enters the TT cluster (the canonical
                # ET->TT case is exactly the single gateway; ET->ET
                # transit also qualifies).
                senders = _relaying_gateways(
                    arch, app.process(msg.src).node, app.process(msg.dst).node
                )
            for sender_node in senders:
                self.largest_payload[sender_node] = max(
                    self.largest_payload.get(sender_node, 0), msg.size
                )

    def check(self, config: SystemConfiguration) -> None:
        """Validate ``config``; see :func:`validate_configuration`."""
        actual = set(config.bus.nodes())
        if self.slot_owners != actual:
            missing = sorted(self.slot_owners - actual)
            extra = sorted(actual - self.slot_owners)
            raise ConfigurationError(
                f"TDMA round must have one slot per TTP controller; "
                f"missing={missing}, unexpected={extra}"
            )
        self.check_priorities(config.priorities)
        for node, needed in self.largest_payload.items():
            slot = config.bus.slot_of(node)
            if slot.capacity < needed:
                raise ConfigurationError(
                    f"slot of {node} has capacity {slot.capacity} bytes but "
                    f"must carry a {needed}-byte message"
                )
        _check_route_slot_capacities(self.app, self.arch, config)

    def check_priorities(self, priorities: PriorityAssignment) -> None:
        """See :meth:`PriorityAssignment.validate`."""
        per_node: Dict[str, Dict[int, str]] = {}
        for name, node in self.et_processes:
            prio = priorities.process_priority(name)
            seen = per_node.setdefault(node, {})
            if prio in seen:
                raise ConfigurationError(
                    f"processes {seen[prio]} and {name} share priority "
                    f"{prio} on node {node}"
                )
            seen[prio] = name
        seen_msgs: Dict[int, str] = {}
        for name in self.can_messages:
            prio = priorities.message_priority(name)
            if prio in seen_msgs:
                raise ConfigurationError(
                    f"messages {seen_msgs[prio]} and {name} share "
                    f"CAN priority {prio}"
                )
            seen_msgs[prio] = name


def validate_configuration(
    app: Application, arch: Architecture, config: SystemConfiguration
) -> None:
    """Check a configuration ``ψ`` is complete for the given system.

    * the TDMA round has exactly one slot per TTP controller (every TTC
      node plus the gateway), and no slot for unknown nodes;
    * priorities are complete and unique (see
      :meth:`PriorityAssignment.validate`);
    * slot capacities can carry the largest TT->TT / ET->TT message sent by
      their owner.
    """
    ConfigurationRules(app, arch).check(config)


def _check_route_slot_capacities(
    app: Application, arch: Architecture, config: SystemConfiguration
) -> None:
    """Route overrides may relay through a different gateway than the
    default route — that gateway's slot must fit the message too (the
    FIFO drain bound assumes every queued frame fits an empty slot)."""
    if not config.routes:
        return
    topo = arch.topology
    known = {m.name for m in app.all_messages()}
    for msg_name, hops in sorted(config.routes.items()):
        if msg_name not in known:
            continue  # resolve_routes reports unknown messages properly.
        msg = app.message(msg_name)
        current = topo.cluster_of_node(app.process(msg.src).node)
        for hop in hops:
            gateway = topo.gateways.get(hop)
            if gateway is None or not gateway.touches(current):
                break  # resolve_routes reports invalid paths properly.
            current = gateway.other(current)
            if topo.clusters[current].kind != "TT":
                continue
            slot = config.bus.slot_of(hop)
            if slot.capacity < msg.size:
                raise ConfigurationError(
                    f"route of {msg_name} relays through {hop}, whose "
                    f"TTP slot ({slot.capacity} B) cannot carry the "
                    f"{msg.size}-byte message"
                )


def _relaying_gateways(arch: Architecture, src_node: str, dst_node: str):
    """Gateways whose TTP slot relays a message on its *default* route.

    A gateway relays when its crossing enters a TT cluster (the frame is
    forwarded in that gateway's TDMA slot).  Canonical topologies reduce
    to the single gateway for ET->TT and to nothing otherwise; general
    routes can also transit the TT cluster on an ET->ET path.
    """
    topo = arch.topology
    src_cluster = topo.cluster_of_node(src_node)
    dst_cluster = topo.cluster_of_node(dst_node)
    if src_cluster == dst_cluster:
        return []
    relays = []
    current = src_cluster
    for hop in topo.default_route(src_cluster, dst_cluster):
        current = topo.gateways[hop].other(current)
        if topo.clusters[current].kind == "TT":
            relays.append(hop)
    return relays


def minimum_slot_capacity(system, node: str) -> int:
    """Smallest legal slot capacity for ``node`` (``size_smallest`` of Fig. 8).

    Equal to the size of the largest message the node transmits on the TTP
    bus, or 1 byte if it transmits nothing (read from the
    :class:`ConfigurationRules` of ``system``, a
    :class:`repro.system.System`).
    """
    return max(1, system.configuration_rules().largest_payload.get(node, 1))
