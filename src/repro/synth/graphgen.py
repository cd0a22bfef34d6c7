"""Random process-graph generation (the synthetic workloads of section 6).

The paper evaluates on randomly generated process graphs: two-cluster
architectures of 2..10 nodes, 40 processes per node, message sizes drawn
from 8..32 bytes, WCETs drawn from uniform and exponential distributions.
This module generates one layered DAG at a time; the full experiment
workloads (applications of many graphs mapped across both clusters) are
assembled by :mod:`repro.synth.workload`.

The generator is deterministic for a given :class:`random.Random`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..model.application import Dependency, Message, Process, ProcessGraph

__all__ = ["GraphShape", "random_graph_structure", "realize_graph"]


@dataclass(frozen=True)
class GraphShape:
    """Structural parameters of one random process graph.

    ``width`` bounds the number of parallel processes per layer;
    ``extra_edge_prob`` adds cross-layer edges beyond the spanning ones,
    thickening the DAG.
    """

    processes: int
    width: int = 4
    extra_edge_prob: float = 0.2


def random_graph_structure(
    shape: GraphShape, rng: random.Random
) -> Tuple[List[List[int]], List[Tuple[int, int]]]:
    """Generate a layered DAG skeleton.

    Returns ``(layers, edges)`` where ``layers`` lists process indices per
    layer and ``edges`` are ``(src_index, dst_index)`` pairs.  Every
    non-source process has at least one predecessor in an earlier layer,
    so the DAG is connected from the sources downward.
    """
    if shape.processes <= 0:
        raise ValueError("a graph needs at least one process")
    # Layers are consecutive index ranges (starts), so each randint and
    # choice of the layered draw is one _randbelow draw over a range:
    # the same stream, bound directly.
    randbelow, random = rng._randbelow, rng.random
    width_cap = max(1, shape.width)
    starts: List[int] = []
    index = 0
    while index < shape.processes:
        starts.append(index)
        index += min(shape.processes - index, 1 + randbelow(width_cap))
    starts.append(shape.processes)
    layers = [list(range(a, b)) for a, b in zip(starts, starts[1:])]
    edges: List[Tuple[int, int]] = []
    for prev, start, stop in zip(starts, starts[1:], starts[2:]):
        for dst in range(start, stop):
            src = prev + randbelow(start - prev)
            edges.append((src, dst))
            # (extra, dst) can only repeat the (src, dst) arc just added.
            if random() < shape.extra_edge_prob and start > 1:
                extra = randbelow(start)
                if extra != src:
                    edges.append((extra, dst))
    return layers, edges


def realize_graph(
    name: str,
    shape: GraphShape,
    rng: random.Random,
    nodes: Sequence[str],
    period: float,
    deadline: float,
    wcet_range: Tuple[float, float] = (1.0, 10.0),
    wcet_distribution: str = "uniform",
    message_size_range: Tuple[int, int] = (8, 32),
    mapping: Optional[Dict[int, str]] = None,
    structure: Optional[Tuple[List[List[int]], List[Tuple[int, int]]]] = None,
) -> ProcessGraph:
    """Instantiate a :class:`ProcessGraph` from a random skeleton.

    ``mapping`` optionally pins process indices to nodes; unpinned
    processes are mapped uniformly at random.  Cross-node arcs become
    messages (sizes uniform in ``message_size_range``), same-node arcs
    become plain dependencies, following the paper's model (section 2.1).

    ``structure`` injects a pre-generated ``(layers, edges)`` skeleton —
    used when the caller needs to inspect the edges (e.g. to steer the
    inter-cluster traffic) before the graph is materialized.

    ``wcet_distribution`` is ``"uniform"`` or ``"exponential"`` — the two
    distributions of the paper's experiments.  Exponential draws use the
    mid-range as the mean and are clamped into ``wcet_range``.
    """
    if structure is None:
        structure = random_graph_structure(shape, rng)
    _layers, edges = structure
    lo, hi = wcet_range
    size_lo, size_hi = message_size_range
    if wcet_distribution not in ("uniform", "exponential"):
        raise ValueError(f"unknown WCET distribution {wcet_distribution!r}")
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(): the same
    # stream, without its per-call overhead.
    random = rng.random
    names = [f"{name}_P{i}" for i in range(shape.processes)]
    processes: List[Process] = []
    node_of: List[str] = []
    for i, proc_name in enumerate(names):
        node = mapping.get(i) if mapping else None
        if node is None:
            node = rng.choice(list(nodes))
        node_of.append(node)
        if wcet_distribution == "uniform":
            wcet = lo + (hi - lo) * random()
        else:
            wcet = min(hi, max(lo, rng.expovariate(2.0 / (lo + hi))))
        processes.append(Process(proc_name, round(wcet, 3), node))
    messages: List[Message] = []
    dependencies: List[Dependency] = []
    for msg_index, (src, dst) in enumerate(edges):
        if node_of[src] == node_of[dst]:
            dependencies.append(Dependency(names[src], names[dst]))
        else:
            messages.append(Message(f"{name}_m{msg_index}", names[src],
                                    names[dst], rng.randint(size_lo, size_hi)))
    return ProcessGraph(
        name=name,
        period=period,
        deadline=deadline,
        processes=processes,
        messages=messages,
        dependencies=dependencies,
    )
