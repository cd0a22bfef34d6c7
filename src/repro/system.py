"""The :class:`System` context: application + architecture + bus physics.

Bundles everything that is *given* to the synthesis problem (section 3):
the application ``Γ``, the two-cluster architecture, and the physical bus
parameters.  The synthesis variables ``ψ = <φ, β, π>`` are **not** part of
the system — they are passed around separately so optimizers can mutate
them freely.

The derived facts every analysis needs live in the System's
:class:`~repro.image.SystemImage`, built on first use and read by the
query methods below.  The System is also the one owner of the compiled
engine state built from that image: routing plans, static schedulers,
analysis kernels and simulation templates, each cached by its engine's
module through :func:`lru_lookup`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Tuple

from .buses.can import CanBusSpec
from .buses.ttp import TTPBusSpec
from .exceptions import ModelError
from .image import SystemImage
from .model.application import Application
from .model.architecture import Architecture, MessageRoute
from .model.validation import ConfigurationRules, validate_system

__all__ = ["System"]

#: LRU bound of the routing plans a System keeps (one per distinct
#: route overrides).
_MAX_PLANS = 16

#: The attributes holding compiled engine state, left out of copies.
_COMPILED_STATE = (
    "_image", "_plans", "_buffer_layouts", "_schedulers", "_kernels",
    "_sim_templates", "_rules", "_derated",
)


def lru_lookup(cache: OrderedDict, key, build, bound: int):
    """LRU lookup; a miss stores ``build()`` and evicts beyond ``bound``."""
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    value = cache[key] = build()
    if len(cache) > bound:
        cache.popitem(last=False)
    return value


class System:
    """An analysis/synthesis problem instance.

    Parameters
    ----------
    app:
        The application ``Γ``.  If graphs have different periods, combine
        them first (:func:`repro.model.hypergraph.combine`) — the static
        cyclic schedule of the TTC is built over one common period.
    arch:
        The two-cluster architecture.
    can_spec:
        Physical CAN bus parameters (frame time model).
    ttp_spec:
        Physical TTP parameters used when deriving slot durations from
        capacities (optimizers use it when resizing slots).
    releases:
        Optional earliest-release table for process instances (produced by
        the hyper-graph transform); missing entries mean release at 0.
    """

    def __init__(
        self,
        app: Application,
        arch: Architecture,
        can_spec: Optional[CanBusSpec] = None,
        ttp_spec: Optional[TTPBusSpec] = None,
        releases: Optional[Mapping[str, float]] = None,
    ) -> None:
        validate_system(app, arch)
        self.app = app
        self.arch = arch
        self.can_spec = can_spec if can_spec is not None else CanBusSpec()
        self.ttp_spec = ttp_spec if ttp_spec is not None else TTPBusSpec()
        self.releases: Dict[str, float] = dict(releases or {})

        # Compiled engine state: the image, routing plans per route
        # overrides, buffer-queue layouts (repro.analysis.buffers) and
        # schedulers (repro.schedule.list_scheduler) per routing plan,
        # analysis kernels per modeled fault spec (repro.analysis.kernel),
        # simulation templates per schedule (repro.sim.kernel), the
        # validation constants (configuration_rules) and derated
        # Systems per modeled fault spec (repro.faults).
        for name in _COMPILED_STATE:
            setattr(self, name, OrderedDict())
        # Gateway routes per (source cluster, destination cluster,
        # max_hops), enumerated once (see routes_between).
        self._routes: Dict[Tuple[str, str, int], Tuple[Tuple[str, ...], ...]] = {}

    def __getstate__(self):
        # Compiled state: copies and pickles rebuild it rather than
        # carry it, so a copy is also a fresh compile.
        return {**self.__dict__, **{
            name: OrderedDict() for name in _COMPILED_STATE
        }}

    @property
    def image(self) -> SystemImage:
        """The System's :class:`~repro.image.SystemImage` (built once)."""
        image = self._image.get(None)
        if image is None:
            image = self._image[None] = SystemImage(
                self.app, self.arch, self.can_spec, self.releases
            )
        return image

    # -- topology -----------------------------------------------------------

    @property
    def topology(self):
        """The architecture's cluster/gateway graph."""
        return self.arch.topology

    def clusters_of_message(self, msg_name: str) -> Tuple[str, str]:
        """(source cluster, destination cluster) of a message."""
        image = self.image
        try:
            return image.msg_clusters[image.mid[msg_name]]
        except KeyError:
            raise ModelError(f"unknown message {msg_name}") from None

    def is_intercluster(self, msg_name: str) -> bool:
        """True when the message's endpoints live on different clusters."""
        src, dst = self.clusters_of_message(msg_name)
        return src != dst

    def routes_between(
        self, src: str, dst: str, max_hops: int = 4
    ) -> Tuple[Tuple[str, ...], ...]:
        """:meth:`Topology.routes_between
        <repro.model.topology.Topology.routes_between>`, enumerated once
        per System and cluster pair; shortest first."""
        key = (src, dst, max_hops)
        routes = self._routes.get(key)
        if routes is None:
            routes = self._routes[key] = tuple(
                self.arch.topology.routes_between(src, dst, max_hops)
            )
        return routes

    def default_route(self, msg_name: str) -> Tuple[str, ...]:
        """Topology-default (shortest) gateway route of a message."""
        src, dst = self.clusters_of_message(msg_name)
        if src == dst:
            return ()
        routes = self.routes_between(src, dst)
        if not routes:
            raise ModelError(f"no gateway path from cluster {src} to {dst}")
        return routes[0]

    def default_routing(self):
        """The all-defaults :class:`~repro.semantics.routing.RoutingPlan`."""
        return self.routing_for()

    def routing_for(self, overrides=None):
        """The routing plan of a configuration's ``routes`` overrides.

        Built once per distinct route set (with its
        :class:`~repro.image.PlanImage`) and kept in a bounded LRU, so
        every engine evaluating a configuration shares one plan object
        (the analysis kernel re-targets when that object changes).  An
        override spelling out a message's default route is the same
        route set as no override.
        """
        def build():
            from .semantics.routing import RoutingPlan

            return RoutingPlan(self, dict(key))

        known = self.image.mid if overrides else ()
        key = tuple(sorted(
            (name, tuple(route)) for name, route in overrides.items()
            if name not in known or tuple(route) != self.default_route(name)
        )) if overrides else ()
        return lru_lookup(self._plans, key, build, _MAX_PLANS)

    def configuration_rules(self):
        """The System's :class:`~repro.model.validation.ConfigurationRules`
        (built once, from the image and the default routes)."""
        return lru_lookup(
            self._rules, None,
            lambda: ConfigurationRules(self), 1,
        )

    # -- routing ------------------------------------------------------------

    def route(self, msg_name: str) -> MessageRoute:
        """Cached route classification of a message."""
        image = self.image
        try:
            return image.msg_route[image.mid[msg_name]]
        except KeyError:
            raise ModelError(f"unknown message {msg_name}") from None

    @staticmethod
    def _pick(names: List[str], ids: List[int]) -> List[str]:
        return [names[i] for i in ids]

    def can_messages(self) -> List[str]:
        """Names of all messages that travel on the CAN bus, sorted.

        This is the arbitration domain of the CAN analysis: ET->ET and
        ET->TT messages (sent by ETC nodes) plus TT->ET messages (relayed
        by the gateway from the Out_CAN queue) all compete on the same bus.
        """
        return self._pick(self.image.msg_names, self.image.can)

    def et_to_tt_messages(self) -> List[str]:
        """Messages that traverse the gateway's Out_TTP FIFO, sorted."""
        return self._pick(self.image.msg_names, self.image.ettt)

    def tt_to_et_messages(self) -> List[str]:
        """Messages that traverse the gateway's Out_CAN queue, sorted."""
        return self._pick(self.image.msg_names, self.image.ttet)

    def et_to_et_messages_from(self, node: str) -> List[str]:
        """ET->ET and ET->TT messages enqueued in ``Out_node``, sorted.

        Both kinds leave the node through its CAN controller queue.
        """
        image = self.image
        return self._pick(
            image.msg_names, image.outgoing_by_node.get(node, [])
        )

    def can_frame_time(self, msg_name: str) -> float:
        """Worst-case CAN transmission time ``C_m`` of a message."""
        image = self.image
        m = image.mid.get(msg_name)
        frame = None if m is None else image.msg_frame[m]
        if frame is None:
            raise ModelError(
                f"message {msg_name} does not travel on the CAN bus"
            )
        return frame

    # -- processes ----------------------------------------------------------

    def et_processes_on(self, node: str) -> List[str]:
        """Priority-scheduled application processes on an ET node."""
        image = self.image
        return self._pick(image.proc_names, image.et_by_node.get(node, []))

    def et_nodes_with_processes(self) -> List[str]:
        """ET nodes that host at least one application process."""
        return sorted(self.image.et_by_node)

    def tt_processes(self) -> List[str]:
        """Statically scheduled processes (on TTC nodes), sorted."""
        return self._pick(self.image.proc_names, self.image.tt_procs)

    def et_processes(self) -> List[str]:
        """Priority-scheduled processes (on ETC nodes), sorted."""
        return self._pick(self.image.proc_names, self.image.et_procs)

    def release_of(self, proc_name: str) -> float:
        """Earliest release of a process instance (0 unless hyper-graph)."""
        return self.releases.get(proc_name, 0.0)

    def process_is_ancestor(self, ancestor: str, of: str) -> bool:
        """True when ``ancestor`` transitively precedes ``of`` (same graph)."""
        pid, anc = self.image.pid, self.image.proc_anc
        return of in pid and ancestor in pid and anc[pid[of]] >> pid[ancestor] & 1 == 1

    def message_is_ancestor(self, ancestor: str, of: str) -> bool:
        """True when message ``ancestor`` is upstream of message ``of``.

        Upstream means the ancestor delivers into the (transitive) past of
        ``of``'s sender, so its same-instance transmission always precedes
        ``of``'s queueing.
        """
        mid, anc = self.image.mid, self.image.msg_anc
        return of in mid and ancestor in mid and anc[mid[of]] >> mid[ancestor] & 1 == 1

    def __repr__(self) -> str:
        return f"System({self.app!r}, {self.arch!r})"
