"""Route resolution and the hop ("leg") iterator.

PR 3 centralized the *per-hop* timing rules (readiness, transfer delay,
FIFO competition) in :mod:`repro.semantics.contract`; this module owns
the *path* those rules are applied along.  A message's **route** is the
tuple of gateway names it crosses (see
:meth:`repro.model.topology.Topology.routes_between`); its **legs** are
the queue-and-bus stages the route induces:

* a ``can`` leg — the message waits in a priority-ordered queue
  (``Out_<node>`` at its source, ``Out_CAN`` at a gateway) and then
  arbitrates on one ET cluster's CAN bus;
* a ``fifo`` leg — the message waits in a gateway's arrival-ordered
  ``Out_TTP`` queue and departs in that gateway's TDMA slot, becoming
  available to every TT node *and every other gateway on the TT bus* at
  the slot's end (TTP is a broadcast bus).

Every gateway crossing pays that gateway's transfer WCET ``C_T`` once,
*before* entering the next leg's queue (``Leg.via`` names the gateway
charged).  A TT-sourced message has no leg for its first hop — the MEDL
frame is placed by the static schedule — so its leg list starts at the
first gateway's ``Out_CAN``.

With one TT cluster (the engine scope) a route contains at most one
``fifo`` leg, which is why the classic ``rho.ttp[m]`` record stays
single-valued under the generalization.

Queue naming: single-gateway topologies keep the paper's bare
``Out_CAN`` / ``Out_TTP`` names (every existing trace, report and store
artefact depends on them); multi-gateway topologies qualify the queue
with its owner, ``Out_CAN@NG1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..exceptions import ConfigurationError, ModelError
from ..image import PlanImage
from ..system import System

__all__ = [
    "Leg",
    "RoutingPlan",
    "out_can_queue",
    "out_ttp_queue",
    "resolve_routes",
]


@dataclass(frozen=True)
class Leg:
    """One queue-and-bus stage of a message's route (see module doc).

    ``kind`` is ``"can"`` or ``"fifo"``; ``cluster`` names the cluster
    whose bus carries the leg; ``sender`` is the node transmitting on
    that bus (the application's source node for a first ``can`` leg, a
    gateway otherwise); ``via`` is the gateway whose transfer process
    ``C_T`` is paid immediately before this leg's queue (``None`` for a
    source leg — the sender enqueues directly); ``queue`` is the output
    queue drained for the leg.
    """

    kind: str
    cluster: str
    sender: str
    via: Optional[str]
    queue: str

    @property
    def is_fifo(self) -> bool:
        return self.kind == "fifo"


def out_can_queue(system: System, gateway: str) -> str:
    """Name of a gateway's priority-ordered CAN-bound queue (the
    image's queue names: bare on single-gateway topologies)."""
    image = system.image
    return image.queue_names[image.out_can_q[image.gateway_index[gateway]]]


def out_ttp_queue(system: System, gateway: str) -> str:
    """Name of a gateway's arrival-ordered TTP-bound FIFO."""
    image = system.image
    return image.queue_names[image.out_ttp_q[image.gateway_index[gateway]]]


def resolve_routes(
    system: System,
    overrides: Optional[Mapping[str, Tuple[str, ...]]] = None,
) -> Dict[str, Tuple[str, ...]]:
    """Effective route of every inter-cluster message.

    Merges per-message overrides (the ``routes`` component of a
    :class:`repro.model.configuration.SystemConfiguration`) over the
    topology's default shortest routes, validating each override
    against the cluster graph.  Intra-cluster messages never appear.
    """
    topo = system.arch.topology
    image = system.image
    routes: Dict[str, Tuple[str, ...]] = {}
    overrides = overrides or {}
    for name in sorted(overrides):
        if name not in image.mid:
            raise ConfigurationError(
                f"route override names unknown message {name}"
            )
    for name, (src, dst) in zip(image.msg_names, image.msg_clusters):
        if src == dst:
            if name in overrides and tuple(overrides[name]):
                raise ConfigurationError(
                    f"message {name} is intra-cluster; it cannot "
                    "carry a gateway route"
                )
            continue
        if name in overrides:
            route = tuple(overrides[name])
            try:
                topo.validate_route(src, dst, route)
            except ModelError as exc:
                raise ConfigurationError(
                    f"invalid route for message {name}: {exc}"
                ) from None
        else:
            route = system.default_route(name)
        routes[name] = route
    return routes


class RoutingPlan:
    """Resolved routes plus every per-leg index the engines consume.

    Construction is cheap (linear in messages × hops) and deterministic;
    a :class:`repro.system.System` builds one per distinct route
    overrides and caches it (:meth:`repro.system.System.routing_for`),
    so a plan holds no reference back to its System.
    """

    def __init__(
        self,
        system: System,
        overrides: Optional[Mapping[str, Tuple[str, ...]]] = None,
    ) -> None:
        self.routes = resolve_routes(system, overrides)
        self._default = all(
            route == system.default_route(name)
            for name, route in self.routes.items()
        )
        image = system.image
        self.legs: Dict[str, Tuple[Leg, ...]] = {}
        for name, route in self.routes.items():
            self.legs[name] = self._build_legs(system, name, route)
        # Intra-cluster ET->ET messages have a single source CAN leg.
        for m in image.can:
            name = image.msg_names[m]
            if name not in self.legs:
                src_node = image.proc_node[image.msg_src[m]]
                self.legs[name] = (Leg(
                    "can", image.msg_clusters[m][0], src_node, None,
                    f"Out_{src_node}",
                ),)
        self.image = PlanImage(image, self.legs)  #: the leg ids
        #: messages resident in each gateway's Out_TTP FIFO, sorted.
        self.fifo_users: Dict[str, List[str]] = {
            gw: [image.msg_names[self.image.leg_msg[leg]] for leg in legs]
            for gw, legs in zip(image.gateways, self.image.fifo_users)
        }

    @staticmethod
    def _build_legs(
        system: System, name: str, route: Tuple[str, ...]
    ) -> Tuple[Leg, ...]:
        topo = system.arch.topology
        image = system.image
        m = image.mid[name]
        src_node = image.proc_node[image.msg_src[m]]
        here, dst_cluster = image.msg_clusters[m]
        legs: List[Leg] = []
        if not topo.clusters[here].is_tt:
            legs.append(Leg("can", here, src_node, None, f"Out_{src_node}"))
        for gateway in route:
            here = topo.gateways[gateway].other(here)
            if topo.clusters[here].is_tt:
                queue, kind = out_ttp_queue(system, gateway), "fifo"
            else:
                queue, kind = out_can_queue(system, gateway), "can"
            legs.append(Leg(kind, here, gateway, gateway, queue))
        if here != dst_cluster:
            raise ConfigurationError(
                f"route of message {name} ends at cluster {here}, "
                f"expected {dst_cluster}"
            )
        return tuple(legs)

    # -- queries ----------------------------------------------------------

    def route_of(self, name: str) -> Tuple[str, ...]:
        """Gateways crossed by a message (empty for intra-cluster)."""
        return self.routes.get(name, ())

    def legs_of(self, name: str) -> Tuple[Leg, ...]:
        """The message's legs in traversal order (empty for TT->TT/local)."""
        return self.legs.get(name, ())

    def fifo_leg(self, name: str) -> Optional[Leg]:
        """The unique FIFO leg of a message, if its route has one."""
        for leg in self.legs.get(name, ()):
            if leg.is_fifo:
                return leg
        return None

    def is_default(self) -> bool:
        """True when every message takes its topology-default route."""
        return self._default

    def key(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """Canonical hashable form (for kernel/cache invalidation)."""
        return tuple(sorted(self.routes.items()))

    def __repr__(self) -> str:
        multi = sum(1 for legs in self.legs.values() if len(legs) > 1)
        return (
            f"RoutingPlan({len(self.routes)} routed messages, "
            f"{multi} multi-leg)"
        )
