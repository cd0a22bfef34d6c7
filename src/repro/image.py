"""The compiled system image: one interning of a System for every engine.

A :class:`SystemImage` gives every process and message of a System a
dense id in model order (:meth:`Application.all_processes` /
:meth:`Application.all_messages`) and holds the id-indexed facts the
engines read; a :class:`PlanImage` adds the leg ids of one
:class:`repro.semantics.routing.RoutingPlan`.  The System builds its
image once, on first use, and keeps it with its other compiled state
(never copied or pickled); each plan builds its part when
:meth:`repro.system.System.routing_for` creates it.  The analysis
kernel, the static scheduler, the simulation kernel, the buffer bounds
and the configuration rules all compile from these arrays (DESIGN.md,
"The compiled system image").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .buses.can import CanBusSpec
from .model.architecture import MessageRoute

__all__ = ["PlanImage", "SystemImage"]

#: Routes whose messages arbitrate on a CAN bus.
CAN_ROUTES = (
    MessageRoute.ET_TO_ET, MessageRoute.TT_TO_ET, MessageRoute.ET_TO_TT,
)


class SystemImage:
    """The id-space facts of one ``(app, arch, can_spec, releases)``.

    Per process: ``proc_names``, ``proc_node``, ``proc_tt`` (node kind),
    ``proc_wcet``, ``proc_period``, ``proc_graph``, ``proc_release``,
    ``preds``/``succs`` (``(process id, message id or -1)`` arcs in the
    graph's order), ``proc_sink``, ``proc_anc`` (ancestor ids as a
    bitmask), ``proc_urgency`` (longest WCET path to a sink) and
    ``proc_cpu`` (ET-node index, -1 on TT); ``et_sources`` in declaration
    order.  Per message: ``msg_src``/``msg_dst``, ``msg_size``,
    ``msg_period``, ``msg_route``, ``msg_frame`` (``C_m``, ``None`` off
    the CAN bus), ``msg_clusters`` and ``msg_anc`` (a bitmask).  Per
    graph (application order):
    ``graph_procs``, ``graph_msgs`` and ``graph_sinks`` (sorted by
    name).  The sorted views ``can``, ``ettt``, ``ttet``, ``et_procs``,
    ``tt_procs``, ``et_by_node`` and ``outgoing_by_node`` are id lists
    in name order.  Output queues: ``queue_names`` with the ids
    ``out_can_q``/``out_ttp_q`` per gateway and ``node_q`` per ET node.
    """

    def __init__(self, app, arch, can_spec=None, releases=None) -> None:
        can_spec = can_spec if can_spec is not None else CanBusSpec()
        releases = releases or {}
        topo = arch.topology
        self.graph_names: List[str] = list(app.graphs)
        self.graph_id = gid = {g: i for i, g in enumerate(self.graph_names)}
        procs = list(app.all_processes())
        msgs = list(app.all_messages())
        self.proc_names = [proc.name for proc in procs]
        self.msg_names = [msg.name for msg in msgs]
        proc_graphs = [app.graph_of_process(p) for p in self.proc_names]
        self.proc_node = node = [proc.node for proc in procs]
        self.proc_tt = tt = [arch.is_tt_node(n) for n in node]
        self.proc_wcet = wcet = [proc.wcet for proc in procs]
        self.proc_period = [graph.period for graph in proc_graphs]
        self.proc_graph = [gid[graph.name] for graph in proc_graphs]
        self.proc_release = [releases.get(p, 0.0) for p in self.proc_names]
        self.pid = pid = {name: i for i, name in enumerate(self.proc_names)}
        self.mid = mid = {name: i for i, name in enumerate(self.msg_names)}
        self.preds = [tuple([(pid[q], -1 if m is None else mid[m])
                             for q, m in graph.predecessors(p)])
                      for graph, p in zip(proc_graphs, self.proc_names)]
        self.succs = [tuple([(pid[q], -1 if m is None else mid[m])
                             for q, m in graph.successors(p)])
                      for graph, p in zip(proc_graphs, self.proc_names)]
        self.proc_sink = [not succs for succs in self.succs]
        # The list scheduler's priority: the longest WCET path to a sink,
        # own WCET included (reversed model order: successors first).
        self.proc_urgency = urgency = [0.0] * len(procs)
        for p in reversed(range(len(procs))):
            tail = 0.0
            for q, _m in self.succs[p]:
                tail = max(tail, urgency[q])
            urgency[p] = wcet[p] + tail
        #: ET sources in declaration order: the simulator's releases.
        self.et_sources = [
            i for i in (pid[p] for graph in app.graphs.values()
                        for p in graph.processes)
            if not tt[i] and not self.preds[i]
        ]
        # Per graph, in model order (topological / sorted by name).
        self.graph_procs: List[List[int]] = [[] for _ in self.graph_names]
        for p, g in enumerate(self.proc_graph):
            self.graph_procs[g].append(p)
        self.graph_msgs: List[List[int]] = [[] for _ in self.graph_names]
        for m, msg in enumerate(msgs):
            self.graph_msgs[self.proc_graph[pid[msg.src]]].append(m)
        self.graph_sinks = [[pid[p] for p in app.graphs[g].sinks()]
                            for g in self.graph_names]

        self.msg_src = [pid[msg.src] for msg in msgs]
        self.msg_dst = [pid[msg.dst] for msg in msgs]
        self.msg_size = [msg.size for msg in msgs]
        self.msg_period = [self.proc_period[s] for s in self.msg_src]
        self.msg_route: List[MessageRoute] = [
            arch.route_of(app, msg) for msg in msgs
        ]
        frames = {size: can_spec.frame_time(size) for size in self.msg_size}
        self.msg_frame: List[Optional[float]] = [
            frames[size] if route in CAN_ROUTES else None
            for size, route in zip(self.msg_size, self.msg_route)
        ]
        ends = [(node[s], node[d]) for s, d in zip(self.msg_src, self.msg_dst)]
        cluster = {n: topo.cluster_of_node(n)
                   for n in dict.fromkeys(n for pair in ends for n in pair)}
        self.msg_clusters = [(cluster[a], cluster[b]) for a, b in ends]

        by_name = sorted(range(len(msgs)), key=self.msg_names.__getitem__)
        route = self.msg_route
        self.can = [m for m in by_name if route[m] in CAN_ROUTES]
        self.ettt = [m for m in by_name if route[m] is MessageRoute.ET_TO_TT]
        self.ttet = [m for m in by_name if route[m] is MessageRoute.TT_TO_ET]
        procs_by_name = sorted(range(len(procs)),
                               key=self.proc_names.__getitem__)
        self.et_procs = [p for p in procs_by_name if not tt[p]]
        self.tt_procs = [p for p in procs_by_name if tt[p]]
        self.et_by_node: Dict[str, List[int]] = {}
        for p in self.et_procs:
            self.et_by_node.setdefault(node[p], []).append(p)
        self.outgoing_by_node: Dict[str, List[int]] = {}
        for m in by_name:
            if route[m] in (MessageRoute.ET_TO_ET, MessageRoute.ET_TO_TT):
                self.outgoing_by_node.setdefault(
                    node[self.msg_src[m]], []
                ).append(m)

        # Transitive ancestors as id bitmasks (bit q set when q is
        # upstream; a same-instance ancestor always precedes its
        # descendant, so it never overlaps it); a message's are all
        # upstream of its sender, the messages into the sender included.
        self.proc_anc: List[int] = []
        msgs_up_to: List[int] = []
        for preds in self.preds:  # model order: topological per graph
            procs_up = msgs_up = 0
            for q, m in preds:
                procs_up |= self.proc_anc[q] | 1 << q
                msgs_up |= msgs_up_to[q]
                if m >= 0:
                    msgs_up |= 1 << m
            self.proc_anc.append(procs_up)
            msgs_up_to.append(msgs_up)
        self.msg_anc = [msgs_up_to[src] for src in self.msg_src]

        # Output queues, the one owner of their layout: Out_CAN and
        # Out_TTP per gateway (bare on one gateway), then Out_<node> per
        # ET node; ``out_can_q``/``out_ttp_q`` (by gateway index) and
        # ``node_q`` (by ET-node index) hold their ids.
        self.gateways: List[str] = arch.gateways()
        self.gateway_index = {g: i for i, g in enumerate(self.gateways)}
        self.transfer = [arch.transfer_wcet_of(g) for g in self.gateways]
        self.et_clusters: List[str] = topo.et_clusters()
        self.et_nodes: List[str] = arch.et_node_names()
        self.queue_names: List[str] = []
        self.out_can_q: List[int] = []
        self.out_ttp_q: List[int] = []
        bare = len(self.gateways) == 1
        for g in self.gateways:
            for ids, queue in ((self.out_can_q, "Out_CAN"),
                               (self.out_ttp_q, "Out_TTP")):
                ids.append(len(self.queue_names))
                self.queue_names.append(queue if bare else f"{queue}@{g}")
        self.node_q = list(range(len(self.queue_names),
                                 len(self.queue_names) + len(self.et_nodes)))
        self.queue_names += [f"Out_{n}" for n in self.et_nodes]
        self.queue_id = {name: q for q, name in enumerate(self.queue_names)}
        # Per process: its ET node's index (the simulator's CPU id), or -1.
        cpu_of = {n: i for i, n in enumerate(self.et_nodes)}
        self.proc_cpu = [-1 if t else cpu_of[n] for n, t in zip(node, tt)]


class PlanImage:
    """The leg ids of one routing plan over a :class:`SystemImage`.

    Legs are numbered in message-name then position order.  Per leg:
    ``leg_msg``, ``leg_pos``, ``leg_fifo``, ``leg_bus`` (ET bus index,
    -1 for a FIFO leg), ``leg_sender``, ``leg_via`` (index of the
    gateway whose ``C_T`` precedes it, or -1) and ``leg_queue``;
    ``msg_legs`` lists each message's legs in traversal order and
    ``fifo_users`` each gateway's ``Out_TTP`` legs.
    """

    def __init__(self, image: SystemImage, legs: Dict[str, tuple]) -> None:
        bus_of = {c: i for i, c in enumerate(image.et_clusters)}
        gateway = image.gateway_index
        self.msg_legs: List[Tuple[int, ...]] = [()] * len(image.msg_names)
        self.fifo_users: List[List[int]] = [[] for _ in image.gateways]
        flat = [(name, pos, leg) for name in sorted(legs)
                for pos, leg in enumerate(legs[name])]
        self.leg_msg = [image.mid[name] for name, _, _ in flat]
        self.leg_pos = [pos for _, pos, _ in flat]
        self.leg_fifo = [leg.is_fifo for _, _, leg in flat]
        self.leg_bus = [-1 if leg.is_fifo else bus_of[leg.cluster]
                        for _, _, leg in flat]
        self.leg_sender = [leg.sender for _, _, leg in flat]
        self.leg_via = [-1 if leg.via is None else gateway[leg.via]
                        for _, _, leg in flat]
        self.leg_queue = [image.queue_id[leg.queue] for _, _, leg in flat]
        for i, (name, pos, leg) in enumerate(flat):
            if pos == 0:
                self.msg_legs[self.leg_msg[i]] = tuple(
                    range(i, i + len(legs[name]))
                )
            if leg.is_fifo:
                self.fifo_users[gateway[leg.sender]].append(i)
