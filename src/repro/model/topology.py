"""Cluster-graph topology: clusters, gateways, and inter-cluster routes.

The paper evaluates one fixed shape — a TTC and an ETC bridged by a
single gateway — but its holistic analysis is defined over *hops*, not
over that shape.  This module is the graph the generalized stack runs
on: a :class:`Topology` is a set of :class:`Cluster`\\ s (each with its
own bus and scheduling discipline) connected by :class:`Gateway` nodes,
each bridging exactly one pair of clusters.  A *route* for an
inter-cluster message is a simple path through that graph, written as
the tuple of gateway names it crosses; routes live next to priorities
and slots in :class:`repro.model.configuration.SystemConfiguration` and
are a first-class synthesis dimension (see :mod:`repro.optim.routing`).

The canonical two-cluster topology (:meth:`Topology.canonical`) is the
default every :class:`repro.model.architecture.Architecture` builds, so
existing models, config hashes and store keys are untouched by the
generalization.

Engine scope: the model validates arbitrary cluster graphs, but the
analysis/simulation engines currently support exactly **one** TT
cluster (there is one static schedule and one MEDL) with any number of
ET clusters and gateways; :meth:`Topology.check_engine_supported`
states the limit explicitly instead of letting an engine fail deep in a
fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..exceptions import ModelError

__all__ = ["Cluster", "Gateway", "Topology"]


@dataclass(frozen=True)
class Cluster:
    """One bus-sharing cluster of the architecture.

    ``kind`` is ``"TT"`` (static schedule + TDMA bus) or ``"ET"``
    (priority-scheduled CPUs + CAN bus); ``nodes`` are the application
    processing nodes on the cluster, *excluding* gateways.
    """

    name: str
    kind: str
    nodes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("cluster name must be non-empty")
        if self.kind not in ("TT", "ET"):
            raise ModelError(
                f"cluster {self.name}: kind must be 'TT' or 'ET', "
                f"got {self.kind!r}"
            )

    @property
    def is_tt(self) -> bool:
        return self.kind == "TT"


@dataclass(frozen=True)
class Gateway:
    """A gateway node bridging exactly two clusters.

    The gateway owns one bus controller per bridged cluster (a TDMA
    slot on a TT bus, a CAN controller on an ET bus) and runs the
    transfer process ``T`` on its own priority-scheduled CPU.
    ``transfer_wcet`` overrides the architecture-wide ``C_T`` for this
    gateway; ``None`` inherits the architecture default, which is what
    the canonical topology does so single-gateway timing is unchanged.
    """

    node: str
    clusters: Tuple[str, str]
    transfer_wcet: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.node:
            raise ModelError("gateway node name must be non-empty")
        if len(set(self.clusters)) != 2:
            raise ModelError(
                f"gateway {self.node} must bridge two distinct clusters, "
                f"got {self.clusters!r}"
            )
        if self.transfer_wcet is not None and self.transfer_wcet < 0:
            raise ModelError(
                f"gateway {self.node}: transfer WCET must be non-negative"
            )

    def other(self, cluster: str) -> str:
        """The cluster on the far side of this gateway from ``cluster``."""
        a, b = self.clusters
        if cluster == a:
            return b
        if cluster == b:
            return a
        raise ModelError(
            f"gateway {self.node} does not touch cluster {cluster}"
        )

    def touches(self, cluster: str) -> bool:
        return cluster in self.clusters


class Topology:
    """A validated cluster/gateway graph.

    Clusters are vertices, gateways are edges (a pair of clusters may
    be bridged by several *parallel* gateways — that is precisely what
    makes routing a non-trivial decision on two-cluster systems).
    """

    def __init__(
        self,
        clusters: Iterable[Cluster],
        gateways: Iterable[Gateway],
    ) -> None:
        self.clusters: Dict[str, Cluster] = {}
        for cluster in clusters:
            if cluster.name in self.clusters:
                raise ModelError(f"duplicate cluster {cluster.name}")
            self.clusters[cluster.name] = cluster
        if not self.clusters:
            raise ModelError("topology needs at least one cluster")
        self.gateways: Dict[str, Gateway] = {}
        node_owner: Dict[str, str] = {}
        for cluster in self.clusters.values():
            for node in cluster.nodes:
                if node in node_owner:
                    raise ModelError(
                        f"node {node} appears in clusters "
                        f"{node_owner[node]} and {cluster.name}"
                    )
                node_owner[node] = cluster.name
        for gw in gateways:
            if gw.node in self.gateways:
                raise ModelError(f"duplicate gateway {gw.node}")
            if gw.node in node_owner:
                raise ModelError(
                    f"gateway {gw.node} duplicates a cluster node"
                )
            for cluster in gw.clusters:
                if cluster not in self.clusters:
                    raise ModelError(
                        f"gateway {gw.node} bridges unknown cluster "
                        f"{cluster}"
                    )
            self.gateways[gw.node] = gw
        self._node_cluster = node_owner
        if len(self.clusters) > 1:
            self._check_connected()

    # -- construction -----------------------------------------------------

    @classmethod
    def canonical(
        cls,
        tt_nodes: Iterable[str],
        et_nodes: Iterable[str],
        gateway: str = "NG",
        tt_cluster: str = "TTC",
        et_cluster: str = "ETC",
    ) -> "Topology":
        """The paper's two-cluster shape: one TTC, one ETC, one gateway."""
        return cls(
            clusters=[
                Cluster(tt_cluster, "TT", tuple(tt_nodes)),
                Cluster(et_cluster, "ET", tuple(et_nodes)),
            ],
            gateways=[Gateway(gateway, (tt_cluster, et_cluster))],
        )

    # -- validation -------------------------------------------------------

    def _check_connected(self) -> None:
        seen = set()
        frontier = [next(iter(self.clusters))]
        while frontier:
            cluster = frontier.pop()
            if cluster in seen:
                continue
            seen.add(cluster)
            for gw in self.gateways.values():
                if gw.touches(cluster):
                    frontier.append(gw.other(cluster))
        missing = sorted(set(self.clusters) - seen)
        if missing:
            raise ModelError(
                f"topology is not connected: no gateway path reaches "
                f"cluster(s) {missing}"
            )

    def check_engine_supported(self) -> None:
        """Raise :class:`ModelError` if the engines cannot run this shape.

        The analysis and simulation engines support exactly one TT
        cluster (one static schedule, one MEDL, one TDMA round config)
        and at least one ET cluster; the model itself is more general.
        """
        tt = self.tt_clusters()
        if len(tt) != 1:
            raise ModelError(
                f"engines support exactly one TT cluster, topology has "
                f"{len(tt)} ({tt}); the model validates the shape but "
                "analysis/simulation cannot run it"
            )
        if not self.et_clusters():
            raise ModelError("engines need at least one ET cluster")

    # -- queries ----------------------------------------------------------

    @property
    def is_canonical(self) -> bool:
        """One TT + one ET cluster bridged by a single gateway.

        The engines run a canonical topology as the one-gateway routing
        plan; the flag picks the legacy artefact format and display
        (and the plan keeps the bare queue names ``Out_CAN``/``Out_TTP``)
        so every existing two-cluster artefact is byte-identical.
        """
        return (
            len(self.clusters) == 2
            and len(self.gateways) == 1
            and len(self.tt_clusters()) == 1
        )

    def tt_clusters(self) -> List[str]:
        return sorted(c.name for c in self.clusters.values() if c.is_tt)

    def et_clusters(self) -> List[str]:
        return sorted(c.name for c in self.clusters.values() if not c.is_tt)

    def gateway_names(self) -> List[str]:
        return sorted(self.gateways)

    def cluster_of_node(self, node: str) -> str:
        """Cluster owning an application node (gateways have no home)."""
        try:
            return self._node_cluster[node]
        except KeyError:
            raise ModelError(f"node {node} is not on any cluster") from None

    def gateways_on(self, cluster: str) -> List[str]:
        """Gateways with a controller on ``cluster``'s bus, sorted."""
        return sorted(
            gw.node for gw in self.gateways.values() if gw.touches(cluster)
        )

    # -- routing ----------------------------------------------------------

    def routes_between(
        self, src: str, dst: str, max_hops: int = 4
    ) -> List[Tuple[str, ...]]:
        """All simple gateway paths from cluster ``src`` to ``dst``.

        A route is the tuple of gateway names crossed, in order; a
        simple path visits each cluster at most once.  Deterministic
        order: shortest first, ties broken lexicographically — index 0
        is therefore the *default* route of every inter-cluster
        message.
        """
        if src not in self.clusters or dst not in self.clusters:
            unknown = src if src not in self.clusters else dst
            raise ModelError(f"unknown cluster {unknown}")
        if src == dst:
            return [()]
        found: List[Tuple[str, ...]] = []
        stack: List[Tuple[str, Tuple[str, ...], frozenset]] = [
            (src, (), frozenset([src]))
        ]
        while stack:
            here, path, visited = stack.pop()
            if len(path) >= max_hops:
                continue
            for name in sorted(self.gateways, reverse=True):
                gw = self.gateways[name]
                if not gw.touches(here):
                    continue
                nxt = gw.other(here)
                if nxt in visited:
                    continue
                route = path + (name,)
                if nxt == dst:
                    found.append(route)
                else:
                    stack.append((nxt, route, visited | {nxt}))
        found.sort(key=lambda r: (len(r), r))
        return found

    def default_route(self, src: str, dst: str) -> Tuple[str, ...]:
        """The shortest (then lexicographically first) route src -> dst."""
        routes = self.routes_between(src, dst)
        if not routes:
            raise ModelError(
                f"no gateway path from cluster {src} to {dst}"
            )
        return routes[0]

    def validate_route(
        self, src: str, dst: str, route: Tuple[str, ...]
    ) -> None:
        """Check ``route`` is a simple gateway path from ``src`` to ``dst``."""
        here = src
        visited = {src}
        for name in route:
            gw = self.gateways.get(name)
            if gw is None:
                raise ModelError(f"route names unknown gateway {name}")
            if not gw.touches(here):
                raise ModelError(
                    f"route hop {name} does not touch cluster {here}"
                )
            here = gw.other(here)
            if here in visited:
                raise ModelError(
                    f"route revisits cluster {here} (not a simple path)"
                )
            visited.add(here)
        if here != dst:
            raise ModelError(
                f"route ends at cluster {here}, expected {dst}"
            )

    def __repr__(self) -> str:
        return (
            f"Topology({len(self.clusters)} clusters, "
            f"{len(self.gateways)} gateways)"
        )
