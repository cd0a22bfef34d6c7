"""Hardware architecture model: nodes, clusters and the gateway.

Implements section 2.2 of the paper.  An :class:`Architecture` is a
two-cluster system: a time-triggered cluster (TTC) whose nodes share a TTP
bus, an event-triggered cluster (ETC) whose nodes share a CAN bus, and a
*gateway* node that is a member of both clusters and owns a communication
controller on each bus.

The paper notes the approach extends to several ETCs/TTCs; this model keeps
the two-cluster shape of the evaluation, but nothing in the analysis layer
assumes a specific node count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..exceptions import MappingError, ModelError
from .application import Application, Message
from .topology import Topology

__all__ = [
    "ClusterKind",
    "Node",
    "Architecture",
    "MessageRoute",
    "GATEWAY_TRANSFER_PROCESS",
]

#: Name used for the gateway transfer process ``T`` in analyses and
#: configurations.  ``T`` is not part of the application model (it is part
#: of the platform software, section 2.3) but competes for the gateway CPU
#: with highest priority, so the analysis must know about it.
GATEWAY_TRANSFER_PROCESS = "__gateway_T__"


class ClusterKind(enum.Enum):
    """Scheduling discipline of a cluster."""

    TIME_TRIGGERED = "TT"
    EVENT_TRIGGERED = "ET"


class MessageRoute(enum.Enum):
    """Classification of a message by the clusters of its endpoints.

    The analysis of section 4.1 distinguishes three queue types; intra-TTC
    messages are handled entirely by the static schedule.
    """

    TT_TO_TT = "tt->tt"  #: both ends on the TTC; scheduled in the MEDL
    ET_TO_ET = "et->et"  #: both ends on the ETC; waits in Out_Ni
    TT_TO_ET = "tt->et"  #: crosses the gateway; waits in Out_CAN
    ET_TO_TT = "et->tt"  #: crosses the gateway; waits in Out_TTP
    LOCAL = "local"      #: same node; no bus traffic (cost folded in WCET)


@dataclass
class Node:
    """A processing node with a CPU and one (gateway: two) bus controller.

    Parameters
    ----------
    name:
        Unique node identifier.
    cluster:
        Which cluster the node's CPU belongs to for *process scheduling*
        purposes.  The gateway's CPU runs the event-triggered kernel of the
        paper's model (the transfer process ``T`` is priority-scheduled),
        and is marked ``EVENT_TRIGGERED``.
    is_gateway:
        True for the gateway node ``NG``.
    """

    name: str
    cluster: ClusterKind
    is_gateway: bool = False
    #: Owning cluster in the :class:`Topology` graph (``None`` for
    #: gateways, which belong to two clusters at once).
    cluster_name: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("node name must be non-empty")

    def __hash__(self) -> int:
        return hash(self.name)


class Architecture:
    """A two-cluster architecture interconnected by a gateway.

    Parameters
    ----------
    tt_nodes:
        Names of the nodes on the time-triggered cluster (excluding the
        gateway).
    et_nodes:
        Names of the nodes on the event-triggered cluster (excluding the
        gateway).
    gateway:
        Name of the gateway node ``NG``.  The gateway has a TTP controller
        (so it occupies a TDMA slot on the TTC bus) and a CAN controller.
    gateway_transfer_wcet:
        WCET ``C_T`` of the gateway transfer process ``T`` that moves
        messages between the MBI and the outgoing queues (section 2.3).
    gateway_transfer_period:
        Period with which ``T`` is invoked to poll the MBI for TTC->ETC
        messages.  Must be small enough that no TDMA round's worth of
        messages is lost; defaults to ``None`` meaning "derived by the
        analysis from the TDMA round length".
    """

    def __init__(
        self,
        tt_nodes: Iterable[str],
        et_nodes: Iterable[str],
        gateway: str = "NG",
        gateway_transfer_wcet: float = 0.0,
        gateway_transfer_period: Optional[float] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        if topology is None:
            topology = Topology.canonical(tt_nodes, et_nodes, gateway)
        self.topology = topology
        self.nodes: Dict[str, Node] = {}
        tt_cluster_names = topology.tt_clusters()
        for cname in tt_cluster_names:
            for name in topology.clusters[cname].nodes:
                self._add(
                    Node(name, ClusterKind.TIME_TRIGGERED, cluster_name=cname)
                )
        for cname in topology.et_clusters():
            for name in topology.clusters[cname].nodes:
                self._add(
                    Node(name, ClusterKind.EVENT_TRIGGERED, cluster_name=cname)
                )
        # Gateway CPUs run the priority-based kernel: the transfer
        # process T is an event-triggered activity (section 2.3).
        for name in topology.gateway_names():
            self._add(
                Node(name, ClusterKind.EVENT_TRIGGERED, is_gateway=True)
            )
        if gateway_transfer_wcet < 0:
            raise ModelError("gateway transfer WCET must be non-negative")
        self.gateway_transfer_wcet = gateway_transfer_wcet
        self.gateway_transfer_period = gateway_transfer_period
        # The sorted name lists the queries below return copies of.
        self._tt_names, self._et_names = (sorted(
            n.name for n in self.nodes.values()
            if n.cluster is kind and not n.is_gateway
        ) for kind in (ClusterKind.TIME_TRIGGERED, ClusterKind.EVENT_TRIGGERED))
        if not self._tt_names:
            raise ModelError("architecture needs at least one TTC node")
        if not self._et_names:
            raise ModelError("architecture needs at least one ETC node")
        tt_clusters = topology.tt_clusters()
        self._slot_owners = self._tt_names + (
            topology.gateways_on(tt_clusters[0]) if tt_clusters else []
        )

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        gateway_transfer_wcet: float = 0.0,
        gateway_transfer_period: Optional[float] = None,
    ) -> "Architecture":
        """Build an architecture over an arbitrary cluster graph.

        The engines currently support exactly one TT cluster (one
        static schedule / MEDL); :meth:`Topology.check_engine_supported`
        enforces that here rather than deep inside a fixed point.
        """
        topology.check_engine_supported()
        return cls(
            tt_nodes=(),
            et_nodes=(),
            gateway_transfer_wcet=gateway_transfer_wcet,
            gateway_transfer_period=gateway_transfer_period,
            topology=topology,
        )

    @property
    def gateway(self) -> str:
        """The single gateway's name (single-gateway topologies only).

        Multi-gateway code must iterate :meth:`gateways` instead; this
        accessor keeps every existing two-cluster call site working and
        turns a latent single-gateway assumption into a loud error.
        """
        names = self.topology.gateway_names()
        if len(names) != 1:
            raise ModelError(
                f"architecture has {len(names)} gateways {names}; use "
                "Architecture.gateways() / Topology accessors instead of "
                "the single-gateway 'gateway' attribute"
            )
        return names[0]

    def gateways(self) -> List[str]:
        """All gateway node names, sorted."""
        return self.topology.gateway_names()

    def transfer_wcet_of(self, gateway: str) -> float:
        """``C_T`` of one gateway's transfer process.

        Per-gateway overrides from the topology win; otherwise the
        architecture-wide default applies (the canonical topology never
        overrides, so single-gateway timing is unchanged).
        """
        gw = self.topology.gateways.get(gateway)
        if gw is None:
            raise MappingError(f"unknown gateway {gateway}")
        if gw.transfer_wcet is not None:
            return gw.transfer_wcet
        return self.gateway_transfer_wcet

    def cluster_of_node(self, node_name: str) -> str:
        """Owning cluster of an application node (see Topology)."""
        node = self._node(node_name)
        if node.is_gateway:
            raise ModelError(
                f"{node_name} is a gateway; it belongs to clusters "
                f"{self.topology.gateways[node_name].clusters}"
            )
        return self.topology.cluster_of_node(node_name)

    def _add(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ModelError(f"duplicate node {node.name}")
        self.nodes[node.name] = node

    # -- queries ----------------------------------------------------------

    def tt_node_names(self) -> List[str]:
        """Nodes on the TTC (excluding the gateway), sorted."""
        return list(self._tt_names)

    def et_node_names(self) -> List[str]:
        """Nodes on the ETC (excluding the gateway), sorted."""
        return list(self._et_names)

    def ttp_slot_owners(self) -> List[str]:
        """Every node with a TTP controller: the TTC nodes plus each
        gateway attached to the TT cluster.

        Each of these owns exactly one TDMA slot per round (section 2.2).
        """
        return list(self._slot_owners)

    def is_tt_node(self, node_name: str) -> bool:
        """True if processes on ``node_name`` are statically scheduled."""
        node = self._node(node_name)
        return node.cluster is ClusterKind.TIME_TRIGGERED and not node.is_gateway

    def is_et_node(self, node_name: str) -> bool:
        """True if processes on ``node_name`` are priority-scheduled.

        Includes the gateway, whose CPU hosts the priority-scheduled
        transfer process ``T``.
        """
        return not self.is_tt_node(node_name)

    def _node(self, node_name: str) -> Node:
        try:
            return self.nodes[node_name]
        except KeyError:
            raise MappingError(f"unknown node {node_name}") from None

    # -- message routing ---------------------------------------------------

    def route_of(self, app: Application, msg: Message) -> MessageRoute:
        """Classify a message by the clusters of its endpoints (section 4.1)."""
        src_node = app.process(msg.src).node
        dst_node = app.process(msg.dst).node
        self._node(src_node)
        self._node(dst_node)
        if src_node == dst_node:
            return MessageRoute.LOCAL
        src_tt = self.is_tt_node(src_node)
        dst_tt = self.is_tt_node(dst_node)
        if src_tt and dst_tt:
            return MessageRoute.TT_TO_TT
        if src_tt and not dst_tt:
            return MessageRoute.TT_TO_ET
        if not src_tt and dst_tt:
            return MessageRoute.ET_TO_TT
        return MessageRoute.ET_TO_ET

    def validate_mapping(self, app: Application) -> None:
        """Check every process is mapped to a known node.

        Raises :class:`MappingError` otherwise.  Application processes may
        not be mapped onto the gateway: the paper reserves the gateway CPU
        for the transfer process ``T``.
        """
        for proc in app.all_processes():
            node = self._node(proc.node)
            if node.is_gateway:
                raise MappingError(
                    f"process {proc.name} mapped on gateway {node.name}; the "
                    "gateway CPU is reserved for the transfer process T"
                )

    def processes_on(self, app: Application, node_name: str) -> List[str]:
        """Names of application processes mapped on ``node_name``, sorted."""
        self._node(node_name)
        return sorted(
            p.name for p in app.all_processes() if p.node == node_name
        )

    def gateway_messages(self, app: Application) -> List[Message]:
        """Messages that cross the gateway, in deterministic order."""
        result = []
        for msg in app.all_messages():
            route = self.route_of(app, msg)
            if route in (MessageRoute.TT_TO_ET, MessageRoute.ET_TO_TT):
                result.append(msg)
        return result

    def __repr__(self) -> str:
        gateways = self.gateways()
        label = repr(gateways[0]) if len(gateways) == 1 else repr(gateways)
        return (
            f"Architecture(TTC={self.tt_node_names()}, "
            f"ETC={self.et_node_names()}, gateway={label})"
        )
