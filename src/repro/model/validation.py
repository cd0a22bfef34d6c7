"""Cross-validation of an application against an architecture and config.

These checks catch modelling mistakes early, before they surface as
confusing analysis results: unmapped processes, messages between processes
on the same node (which the model folds into WCETs), bus configurations
missing a slot for a transmitting node, and incomplete priority tables.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..exceptions import ConfigurationError, MappingError
from ..image import CAN_ROUTES
from .application import Application
from .architecture import Architecture, MessageRoute
from .configuration import PriorityAssignment, SystemConfiguration

__all__ = [
    "ConfigurationRules", "minimum_slot_capacity", "validate_configuration",
    "validate_system",
]

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
    """The per-System constants of :func:`validate_configuration`, read
    from a :class:`repro.system.System`'s image and default routes (the
    System builds its own once)."""

    def __init__(self, system) -> None:
        self.image = image = system.image
        self.topology = system.arch.topology
        self.slot_owners = set(system.arch.ttp_slot_owners())
        names, nodes = image.proc_names, image.proc_node
        # In model order, which fixes the first error reported.
        self.et_processes: List[Tuple[str, str]] = [
            (names[p], nodes[p]) for p, tt in enumerate(image.proc_tt)
            if not tt
        ]
        self.can_messages: List[str] = [
            name for name, route in zip(image.msg_names, image.msg_route)
            if route in CAN_ROUTES
        ]
        #: Largest message each TTP-transmitting node must fit in its slot.
        self.largest_payload: Dict[str, int] = {}
        for m, route in enumerate(image.msg_route):
            if route in (MessageRoute.TT_TO_TT, MessageRoute.TT_TO_ET):
                # Sent over the TTP bus in the sender node's slot (for
                # TT->ET the first leg ends at the gateway MBI).
                senders = [nodes[image.msg_src[m]]]
            else:
                # ET-sourced: relayed over the TTP bus by every gateway
                # whose crossing on the default route enters the TT
                # cluster (the canonical ET->TT case is exactly the
                # single gateway; ET->ET transit also qualifies).
                senders, here = [], image.msg_clusters[m][0]
                for hop in system.default_route(image.msg_names[m]):
                    here = self.topology.gateways[hop].other(here)
                    if self.topology.clusters[here].is_tt:
                        senders.append(hop)
            for sender_node in senders:
                self.largest_payload[sender_node] = max(
                    self.largest_payload.get(sender_node, 0),
                    image.msg_size[m],
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
        _check_route_slot_capacities(self.image, self.topology, config)

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
    from ..system import System

    System(app, arch).configuration_rules().check(config)


def _check_route_slot_capacities(
    image, topo, config: SystemConfiguration
) -> None:
    """Route overrides may relay through a different gateway than the
    default route — that gateway's slot must fit the message too (the
    FIFO drain bound assumes every queued frame fits an empty slot)."""
    if not config.routes:
        return
    for msg_name, hops in sorted(config.routes.items()):
        m = image.mid.get(msg_name)
        if m is None:
            continue  # resolve_routes reports unknown messages properly.
        size = image.msg_size[m]
        current = image.msg_clusters[m][0]
        for hop in hops:
            gateway = topo.gateways.get(hop)
            if gateway is None or not gateway.touches(current):
                break  # resolve_routes reports invalid paths properly.
            current = gateway.other(current)
            if topo.clusters[current].kind != "TT":
                continue
            slot = config.bus.slot_of(hop)
            if slot.capacity < size:
                raise ConfigurationError(
                    f"route of {msg_name} relays through {hop}, whose "
                    f"TTP slot ({slot.capacity} B) cannot carry the "
                    f"{size}-byte message"
                )


def minimum_slot_capacity(system, node: str) -> int:
    """Smallest legal slot capacity for ``node`` (``size_smallest`` of Fig. 8).

    Equal to the size of the largest message the node transmits on the TTP
    bus, or 1 byte if it transmits nothing (read from the
    :class:`ConfigurationRules` of ``system``, a
    :class:`repro.system.System`).
    """
    return max(1, system.configuration_rules().largest_payload.get(node, 1))
