"""Cross-validation of an application against an architecture and config.

These checks catch modelling mistakes early, before they surface as
confusing analysis results: unmapped processes, messages between processes
on the same node (which the model folds into WCETs), bus configurations
missing a slot for a transmitting node, and incomplete priority tables.
"""

from __future__ import annotations

from ..exceptions import ConfigurationError, MappingError
from .application import Application
from .architecture import Architecture, MessageRoute
from .configuration import SystemConfiguration

__all__ = ["validate_system", "validate_configuration"]


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
    expected = set(arch.ttp_slot_owners())
    actual = set(config.bus.nodes())
    if expected != actual:
        missing = sorted(expected - actual)
        extra = sorted(actual - expected)
        raise ConfigurationError(
            f"TDMA round must have one slot per TTP controller; "
            f"missing={missing}, unexpected={extra}"
        )
    config.priorities.validate(app, arch)
    _check_slot_capacities(app, arch, config)
    _check_route_slot_capacities(app, arch, config)


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


def _largest_payload_per_sender(app: Application, arch: Architecture):
    """Largest message each TTP-transmitting node must fit in its slot."""
    largest = {}
    for msg in app.all_messages():
        route = arch.route_of(app, msg)
        if route in (MessageRoute.TT_TO_TT, MessageRoute.TT_TO_ET):
            # Sent over the TTP bus in the sender node's slot (for TT->ET
            # the first leg ends at the gateway MBI).
            senders = [app.process(msg.src).node]
        elif route is MessageRoute.LOCAL:
            continue
        else:
            # ET-sourced: relayed over the TTP bus by every gateway whose
            # crossing enters the TT cluster (the canonical ET->TT case is
            # exactly the single gateway; ET->ET transit also qualifies).
            senders = _relaying_gateways(
                arch, app.process(msg.src).node, app.process(msg.dst).node
            )
        for sender_node in senders:
            largest[sender_node] = max(
                largest.get(sender_node, 0), msg.size
            )
    return largest


def _check_slot_capacities(
    app: Application, arch: Architecture, config: SystemConfiguration
) -> None:
    for node, needed in _largest_payload_per_sender(app, arch).items():
        slot = config.bus.slot_of(node)
        if slot.capacity < needed:
            raise ConfigurationError(
                f"slot of {node} has capacity {slot.capacity} bytes but must "
                f"carry a {needed}-byte message"
            )


def minimum_slot_capacity(app: Application, arch: Architecture, node: str) -> int:
    """Smallest legal slot capacity for ``node`` (``size_smallest`` of Fig. 8).

    Equal to the size of the largest message the node transmits on the TTP
    bus, or 1 byte if it transmits nothing.
    """
    return max(1, _largest_payload_per_sender(app, arch).get(node, 1))
