"""Full experimental workloads (the generated applications of section 6).

The paper's setup: two-cluster architectures with 2, 4, 6, 8 or 10 nodes
(half TTC, half ETC, plus the gateway), 40 processes per node — giving
applications of 80..400 processes — message sizes 8..32 bytes, WCETs from
uniform and exponential distributions, 30 random applications per design
point.  For Fig. 9c, 160-process applications with a controlled number of
inter-cluster (gateway) messages.

:func:`generate_workload` reproduces that recipe in three steps:

1. **Skeletons** — the application is split into random layered DAGs
   (:func:`repro.synth.graphgen.random_graph_structure`).
2. **Mapping** — every graph is homed in the currently lighter cluster
   and its processes spread over that cluster's nodes; individual
   processes are then flipped across the gateway until the number of
   inter-cluster arcs reaches the target (real automotive functions sit
   mostly in one domain with a few cross-domain signals — and Fig. 9c
   needs the count controlled exactly).
3. **Realization** — graphs are materialized (cross-node arcs become
   messages, same-node arcs dependencies) and WCETs are rescaled so every
   node lands on the target utilization.  The paper does not state its
   load levels; ~35% keeps most systems schedulable-but-tight, which is
   where the heuristics differentiate, and is overridable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..buses.can import CanBusSpec
from ..buses.ttp import TTPBusSpec
from ..exceptions import ConfigurationError
from ..model.application import Application, ProcessGraph
from ..model.architecture import Architecture
from ..model.configuration import SystemConfiguration
from ..model.topology import Cluster, Gateway, Topology
from ..system import System
from .graphgen import GraphShape, random_graph_structure, realize_graph

__all__ = [
    "WorkloadSpec", "apply_seeded_routes", "generate_workload",
    "seeded_routes",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one generated application (paper defaults).

    ``gateway_messages`` is the number of inter-cluster arcs routed
    through the gateway.  The paper's Fig. 9c varies it between 10 and 50
    for 160-process applications; the default scales with the node count.
    """

    nodes: int = 4
    processes_per_node: int = 40
    period: float = 200.0
    deadline_factor: float = 1.0
    target_utilization: float = 0.25
    wcet_distribution: str = "uniform"
    message_size_range: Tuple[int, int] = (8, 32)
    graph_size_range: Tuple[int, int] = (8, 24)
    gateway_messages: Optional[int] = None
    gateway_transfer_wcet: float = 0.1
    seed: int = 0
    #: Cluster count: one TT cluster plus ``clusters - 1`` ET clusters
    #: (ET nodes dealt round-robin).  2 is the paper's canonical shape.
    clusters: int = 2
    #: Gateway count.  The first ``clusters - 1`` bridge the TT cluster
    #: to each ET cluster (connectivity); extras add parallel bridges
    #: round-robin, which is what makes routing a real decision.
    gateways: int = 1
    #: Route assignment for the generated system's evaluations:
    #: ``default`` (topology-shortest), ``greedy``
    #: (:func:`repro.optim.routing.greedy_routes`) or ``random``
    #: (seeded per-message pick via ``stable_unit``).
    route_strategy: str = "default"

    def total_processes(self) -> int:
        """Application size, e.g. 4 nodes * 40 = 160 processes."""
        return self.nodes * self.processes_per_node

    def gateway_message_target(self) -> int:
        """Resolved inter-cluster message count."""
        if self.gateway_messages is not None:
            return self.gateway_messages
        return 5 * self.nodes


def _make_architecture(spec: WorkloadSpec) -> Architecture:
    if spec.clusters < 2:
        raise ConfigurationError("clusters must be >= 2 (one TT + ET)")
    if spec.route_strategy not in ("default", "greedy", "random"):
        raise ConfigurationError(
            f"unknown route_strategy {spec.route_strategy!r} "
            "(known: default, greedy, random)"
        )
    n_tt = max(1, spec.nodes // 2)
    n_et = max(1, spec.nodes - n_tt)
    if spec.clusters == 2 and spec.gateways == 1:
        # The canonical construction, untouched: same node names, same
        # default topology, same architecture object graph — generated
        # systems (and everything keyed off them) are bit-identical to
        # the pre-topology generator.
        return Architecture(
            tt_nodes=[f"TT{i}" for i in range(1, n_tt + 1)],
            et_nodes=[f"ET{i}" for i in range(1, n_et + 1)],
            gateway="NG",
            gateway_transfer_wcet=spec.gateway_transfer_wcet,
        )
    et_clusters = spec.clusters - 1
    if spec.gateways < et_clusters:
        raise ConfigurationError(
            f"{spec.clusters} clusters need at least {et_clusters} "
            f"gateways to stay connected (got {spec.gateways})"
        )
    if n_et < et_clusters:
        raise ConfigurationError(
            f"{et_clusters} ET clusters need at least {et_clusters} ET "
            f"nodes; {spec.nodes} nodes yield only {n_et}"
        )
    tt_nodes = [f"TT{i}" for i in range(1, n_tt + 1)]
    et_nodes = [f"ET{i}" for i in range(1, n_et + 1)]
    buckets: List[List[str]] = [[] for _ in range(et_clusters)]
    for i, node in enumerate(et_nodes):
        buckets[i % et_clusters].append(node)
    clusters = [Cluster("TTC", "TT", tuple(tt_nodes))] + [
        Cluster(f"ETC{j + 1}", "ET", tuple(bucket))
        for j, bucket in enumerate(buckets)
    ]
    gws = [
        Gateway(f"NG{i + 1}", ("TTC", f"ETC{(i % et_clusters) + 1}"))
        for i in range(spec.gateways)
    ]
    return Architecture.from_topology(
        Topology(clusters, gws),
        gateway_transfer_wcet=spec.gateway_transfer_wcet,
    )


class _Skeleton:
    """One graph's structure plus its evolving process mapping."""

    def __init__(self, name, shape, structure, mapping):
        self.name = name
        self.shape, self.size = shape, shape.processes
        self.structure = structure
        self.mapping: Dict[int, str] = mapping


def _steer_gateway_traffic(
    skeletons: List[_Skeleton],
    arch: Architecture,
    target: int,
    rng: random.Random,
    max_flips: int = 2000,
) -> None:
    """Flip single processes across clusters until the inter-cluster arc
    count reaches ``target`` (exactly when possible, else as close as the
    arc granularity allows — one flip moves every arc of the process).

    Incremental accounting: flipping one process toggles the crossing
    state of exactly its incident arcs, so the new total is
    ``current + degree - 2 * crossing_incident`` — no rescan of any arc
    list.  The decision sequence (and therefore the generated workload)
    is bit-identical to the original full-scan implementation, which
    survives as a test oracle (``tests/oracles``) for the equivalence
    test.
    """
    tt_nodes = arch.tt_node_names()
    is_tt = set(tt_nodes).__contains__
    et_nodes = arch.et_node_names()

    # Per-skeleton incident lists and cluster bits, plus the global
    # cross-arc total — all maintained incrementally per kept flip.
    incident: List[List[List[int]]] = []
    bits: List[List[bool]] = []
    current = 0
    for skeleton in skeletons:
        neighbors: List[List[int]] = [[] for _ in range(skeleton.size)]
        for src, dst in skeleton.structure[1]:
            neighbors[src].append(dst)
            neighbors[dst].append(src)
        incident.append(neighbors)
        skeleton_bits = [
            is_tt(skeleton.mapping[i]) for i in range(skeleton.size)
        ]
        bits.append(skeleton_bits)
        current += sum(
            1
            for src, dst in skeleton.structure[1]
            if skeleton_bits[src] != skeleton_bits[dst]
        )

    # rng.randrange(n) and rng.choice(seq) both reduce to one
    # _randbelow(n) draw; binding it directly keeps the stream
    # bit-identical to the original randrange/choice calls while
    # skipping their per-call argument handling (this loop draws three
    # times per flip and runs hundreds of flips per workload).
    randbelow = rng._randbelow
    n_skeletons = len(skeletons)
    n_tt, n_et = len(tt_nodes), len(et_nodes)

    for _ in range(max_flips):
        if current == target:
            return
        which = randbelow(n_skeletons)
        skeleton = skeletons[which]
        index = randbelow(skeleton.size)
        skeleton_bits = bits[which]
        bit = skeleton_bits[index]  # the maintained is_tt(mapping[index])
        if bit:
            other = et_nodes[randbelow(n_et)]
        else:
            other = tt_nodes[randbelow(n_tt)]
        crossing = 0
        for n in incident[which][index]:
            if skeleton_bits[n] != bit:
                crossing += 1
        new_total = current + len(incident[which][index]) - 2 * crossing
        # Keep the flip only if it moves the count toward the target
        # without overshooting further than the old distance.
        if abs(new_total - target) < abs(current - target):
            skeleton.mapping[index] = other
            skeleton_bits[index] = not bit
            current = new_total


def _scale_to_utilization(
    graphs: List[ProcessGraph], spec: WorkloadSpec
) -> None:
    """Rescale WCETs in place so each node hits the target utilization."""
    load: Dict[str, float] = {}
    for graph in graphs:
        for proc in graph.processes.values():
            load[proc.node] = load.get(proc.node, 0.0) + proc.wcet / graph.period
    factor = {node: spec.target_utilization / utilization
              for node, utilization in load.items() if utilization > 0}
    for graph in graphs:
        for proc in graph.processes.values():
            if proc.node in factor:
                proc.wcet = round(proc.wcet * factor[proc.node], 4)


def generate_workload(spec: WorkloadSpec) -> System:
    """Generate one random application + architecture (see module docstring)."""
    rng = random.Random(spec.seed)
    arch = _make_architecture(spec)
    tt_nodes = arch.tt_node_names()
    et_nodes = arch.et_node_names()
    nodes = tt_nodes + et_nodes
    node_load: Dict[str, int] = {n: 0 for n in nodes}

    # Step 1+2: skeletons with cluster-homed mappings.
    skeletons: List[_Skeleton] = []
    remaining = spec.total_processes()
    graph_no = 0
    lo, hi = spec.graph_size_range
    while remaining > 0:
        size = min(remaining, rng.randint(lo, hi))
        if remaining - size < lo:
            size = remaining
        shape = GraphShape(processes=size)
        structure = random_graph_structure(shape, rng)
        # Home the whole graph on the least-loaded node of the lighter
        # cluster: functions colocate, so intra-graph arcs are mostly
        # same-node dependencies and bus traffic stays dominated by the
        # controlled inter-cluster messages (the paper's regime).
        tt_load = sum(node_load[n] for n in tt_nodes) / len(tt_nodes)
        et_load = sum(node_load[n] for n in et_nodes) / len(et_nodes)
        cluster = tt_nodes if tt_load <= et_load else et_nodes
        lightest = min(node_load[n] for n in cluster)
        home_node = rng.choice(
            [n for n in cluster if node_load[n] == lightest]
        )
        node_load[home_node] += size
        skeletons.append(_Skeleton(
            f"G{graph_no}", shape, structure, dict.fromkeys(range(size), home_node)
        ))
        remaining -= size
        graph_no += 1
    _steer_gateway_traffic(skeletons, arch, spec.gateway_message_target(), rng)

    # Step 3: realize the graphs and normalize the load.
    graphs: List[ProcessGraph] = []
    for skeleton in skeletons:
        graphs.append(
            realize_graph(
                name=skeleton.name,
                shape=skeleton.shape,
                rng=rng,
                nodes=nodes,
                period=spec.period,
                deadline=spec.period * spec.deadline_factor,
                wcet_distribution=spec.wcet_distribution,
                message_size_range=spec.message_size_range,
                mapping=skeleton.mapping,
                structure=skeleton.structure,
            )
        )
    _scale_to_utilization(graphs, spec)
    app = Application(graphs)
    can_spec = CanBusSpec(bit_time=0.002)  # 500 kbit/s in ms
    ttp_spec = TTPBusSpec(byte_time=0.02, slot_overhead=0.1)
    return System(app, arch, can_spec=can_spec, ttp_spec=ttp_spec)


def seeded_routes(system: System, spec: WorkloadSpec):
    """Route overrides for a generated system per ``route_strategy``.

    ``default`` returns ``{}`` (canonical configs stay canonical);
    ``greedy`` delegates to :func:`repro.optim.routing.greedy_routes`;
    ``random`` picks per message among its candidate routes with a
    :func:`repro.faults.stable_unit` draw keyed by the workload seed —
    process-stable, so every engine, every worker and every replay see
    the same assignment.  Only non-default decisions are returned.
    """
    if spec.route_strategy == "default":
        return {}
    from ..optim.routing import greedy_routes, route_candidates

    if spec.route_strategy == "greedy":
        return greedy_routes(system)
    if spec.route_strategy != "random":
        raise ConfigurationError(
            f"unknown route_strategy {spec.route_strategy!r}"
        )
    from ..faults.spec import stable_unit

    overrides: Dict[str, Tuple[str, ...]] = {}
    image = system.image  # all_messages order, with each one's clusters
    for name, (src, dst) in zip(image.msg_names, image.msg_clusters):
        if src == dst:
            continue
        candidates = route_candidates(system, name)
        pick = candidates[
            int(stable_unit(spec.seed, "route", name) * len(candidates))
        ]
        if pick != system.default_route(name):
            overrides[name] = pick
    return overrides


def apply_seeded_routes(
    system: System, spec: WorkloadSpec, config: SystemConfiguration
) -> None:
    """Give ``config`` the :func:`seeded_routes` of ``spec``, with its
    TDMA slots grown to carry the relayed payloads
    (:func:`repro.optim.routing.fit_bus_to_routes`).

    A no-op for the ``default`` strategy, so canonical configurations
    stay canonical.
    """
    if spec.route_strategy == "default":
        return
    from ..optim.routing import fit_bus_to_routes

    config.routes.update(seeded_routes(system, spec))
    config.bus = fit_bus_to_routes(system, config.bus, config.routes)
