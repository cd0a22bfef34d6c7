"""Application model: processes, messages and process graphs.

This module implements section 2.1 of the paper.  An application ``Γ`` is a
set of :class:`ProcessGraph` objects.  Nodes of a graph are
:class:`Process` instances; arcs either connect two processes mapped to the
same node (pure precedence, communication cost folded into the WCET) or
carry a :class:`Message` between processes mapped to different nodes.

Times are plain numbers in a user-chosen unit (the paper and all bundled
examples use milliseconds).  Sizes are in bytes.

The model layer is deliberately free of *synthesis decisions*: priorities of
ET activities (π), offsets / schedule tables (φ) and the TDMA bus layout (β)
live in :mod:`repro.model.configuration`, because they are the outputs of
the synthesis loop, not properties of the application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..exceptions import ModelError

__all__ = [
    "Process",
    "Message",
    "Dependency",
    "ProcessGraph",
    "Application",
]


@dataclass
class Process:
    """A process ``Pi`` of the application.

    Parameters
    ----------
    name:
        Globally unique identifier.
    wcet:
        Worst-case execution time ``Ci`` on the node the process is mapped
        to.  The paper assumes the mapping is given, so a single number
        suffices.
    node:
        Name of the node (see :mod:`repro.model.architecture`) the process
        is mapped to.
    deadline:
        Optional *local* deadline, measured from the start of the process
        graph (the paper allows local deadlines in addition to the graph
        deadline).  ``None`` means only the graph deadline applies.
    """

    name: str
    wcet: float
    node: str
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("process name must be non-empty")
        if self.wcet < 0:
            raise ModelError(f"process {self.name}: negative WCET {self.wcet}")
        if self.deadline is not None and self.deadline <= 0:
            raise ModelError(
                f"process {self.name}: local deadline must be positive, got "
                f"{self.deadline}"
            )

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass
class Message:
    """A message ``mi`` exchanged between two processes on different nodes.

    The message inherits its period from the sender's process graph.  Its
    worst-case transmission time depends on the bus it traverses and is
    computed by the bus substrates (:mod:`repro.buses`), not stored here.

    Parameters
    ----------
    name:
        Globally unique identifier.
    src / dst:
        Names of the sender and receiver processes.
    size:
        Payload size in bytes (the paper draws sizes from 8..32 bytes).
    """

    name: str
    src: str
    dst: str
    size: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("message name must be non-empty")
        if self.src == self.dst:
            raise ModelError(f"message {self.name}: sender equals receiver")
        if self.size <= 0:
            raise ModelError(f"message {self.name}: size must be positive")

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass(frozen=True)
class Dependency:
    """A pure precedence arc between two processes on the *same* node.

    The communication time of same-node arcs is considered part of the
    sender's WCET (section 2.1), so the arc carries no message.
    """

    src: str
    dst: str


class ProcessGraph:
    """A process graph ``Gi`` with a period ``TGi`` and deadline ``DGi``.

    The graph is a DAG.  Arcs are either :class:`Dependency` (same-node) or
    :class:`Message` (cross-node); both impose precedence.

    Parameters
    ----------
    name:
        Graph identifier, unique within the application.
    period:
        Period ``TGi`` shared by every process and message of the graph.
    deadline:
        End-to-end deadline ``DGi`` with ``DGi <= TGi``.
    processes, messages, dependencies:
        Graph content.  Consistency (existence of endpoints, acyclicity) is
        checked eagerly.
    """

    def __init__(
        self,
        name: str,
        period: float,
        deadline: float,
        processes: Iterable[Process],
        messages: Iterable[Message] = (),
        dependencies: Iterable[Dependency] = (),
    ) -> None:
        if period <= 0:
            raise ModelError(f"graph {name}: period must be positive")
        if deadline <= 0:
            raise ModelError(f"graph {name}: deadline must be positive")
        if deadline > period:
            raise ModelError(
                f"graph {name}: deadline {deadline} exceeds period {period} "
                "(the analysis requires D <= T)"
            )
        self.name = name
        self.period = period
        self.deadline = deadline
        self.processes: Dict[str, Process] = {}
        for proc in processes:
            if proc.name in self.processes:
                raise ModelError(f"graph {name}: duplicate process {proc.name}")
            self.processes[proc.name] = proc
        # Arcs in message order, then dependency order.
        succ: Dict[str, List[Tuple[str, Optional[str]]]] = {
            p: [] for p in self.processes
        }
        pred: Dict[str, List[Tuple[str, Optional[str]]]] = {
            p: [] for p in self.processes
        }
        self.messages: Dict[str, Message] = {}
        for msg in messages:
            if msg.name in self.messages:
                raise ModelError(f"graph {name}: duplicate message {msg.name}")
            self._check_endpoint(msg.src, f"message {msg.name} sender")
            self._check_endpoint(msg.dst, f"message {msg.name} receiver")
            self.messages[msg.name] = msg
            succ[msg.src].append((msg.dst, msg.name))
            pred[msg.dst].append((msg.src, msg.name))
        self.dependencies: List[Dependency] = []
        for dep in dependencies:
            self._check_endpoint(dep.src, "dependency source")
            self._check_endpoint(dep.dst, "dependency target")
            self.dependencies.append(dep)
            succ[dep.src].append((dep.dst, None))
            pred[dep.dst].append((dep.src, None))
        self._succ, self._pred = succ, pred
        self._topo = self._topological_order()

    def _check_endpoint(self, proc_name: str, what: str) -> None:
        if proc_name not in self.processes:
            raise ModelError(
                f"graph {self.name}: {what} references unknown process "
                f"{proc_name}"
            )

    def _topological_order(self) -> List[str]:
        indeg = {p: len(preds) for p, preds in self._pred.items()}
        order = sorted(p for p, d in indeg.items() if d == 0)
        # A FIFO walked while it grows: each process's newly ready
        # successors join its tail, sorted for reproducible heuristics.
        for current in order:
            inserted = []
            for succ, _msg in self._succ[current]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    inserted.append(succ)
            order.extend(sorted(inserted))
        if len(order) != len(self.processes):
            raise ModelError(f"graph {self.name}: process graph has a cycle")
        return order

    # -- queries ----------------------------------------------------------

    def successors(self, proc_name: str) -> List[Tuple[str, Optional[str]]]:
        """Successor processes of ``proc_name`` as ``(process, message|None)``."""
        return list(self._succ[proc_name])

    def predecessors(self, proc_name: str) -> List[Tuple[str, Optional[str]]]:
        """Predecessor processes of ``proc_name`` as ``(process, message|None)``."""
        return list(self._pred[proc_name])

    def topological_order(self) -> List[str]:
        """Process names in a deterministic topological order."""
        return list(self._topo)

    def sources(self) -> List[str]:
        """Processes with no predecessors."""
        return sorted(p for p in self.processes if not self._pred[p])

    def sinks(self) -> List[str]:
        """Processes with no successors.

        The worst-case response time of the graph is computed from its sink
        nodes (footnote 1 of the paper): ``rG = max over sinks (O + r)``.
        """
        return sorted(p for p in self.processes if not self._succ[p])

    def message_of(self, src: str, dst: str) -> Optional[Message]:
        """The message on arc ``src -> dst`` or ``None`` for a plain dependency."""
        for succ, msg_name in self._succ[src]:
            if succ == dst and msg_name is not None:
                return self.messages[msg_name]
        return None

    def critical_path_length(self, wcet_of=None) -> float:
        """Length of the longest path through the graph.

        ``wcet_of`` maps a process name to the execution cost used on the
        path; defaults to the modelled WCET.  Message transmission times are
        not included (they depend on the bus configuration) — this is a
        lower bound used for sanity checks and deadline assignment.
        """
        if wcet_of is None:
            wcet_of = lambda p: self.processes[p].wcet
        finish: Dict[str, float] = {}
        for proc in self._topo:
            start = 0.0
            for pred, _msg in self._pred[proc]:
                start = max(start, finish[pred])
            finish[proc] = start + wcet_of(proc)
        return max(finish.values()) if finish else 0.0

    def __repr__(self) -> str:
        return (
            f"ProcessGraph({self.name!r}, T={self.period}, D={self.deadline}, "
            f"{len(self.processes)} processes, {len(self.messages)} messages)"
        )


class Application:
    """An application ``Γ``: a set of process graphs with unique names.

    Process and message names must be unique across the whole application
    (they key the offset/priority tables of a system configuration).
    """

    def __init__(self, graphs: Iterable[ProcessGraph]) -> None:
        self.graphs: Dict[str, ProcessGraph] = {}
        self._proc_graph: Dict[str, str] = {}
        self._msg_graph: Dict[str, str] = {}
        for graph in graphs:
            if graph.name in self.graphs:
                raise ModelError(f"duplicate graph {graph.name}")
            self.graphs[graph.name] = graph
            for proc_name in graph.processes:
                if proc_name in self._proc_graph:
                    raise ModelError(
                        f"process {proc_name} appears in both "
                        f"{self._proc_graph[proc_name]} and {graph.name}"
                    )
                self._proc_graph[proc_name] = graph.name
            for msg_name in graph.messages:
                if msg_name in self._msg_graph:
                    raise ModelError(
                        f"message {msg_name} appears in both "
                        f"{self._msg_graph[msg_name]} and {graph.name}"
                    )
                self._msg_graph[msg_name] = graph.name

    # -- lookups ----------------------------------------------------------

    def graph_of_process(self, proc_name: str) -> ProcessGraph:
        """The graph containing process ``proc_name``."""
        try:
            return self.graphs[self._proc_graph[proc_name]]
        except KeyError:
            raise ModelError(f"unknown process {proc_name}") from None

    def graph_of_message(self, msg_name: str) -> ProcessGraph:
        """The graph containing message ``msg_name``."""
        try:
            return self.graphs[self._msg_graph[msg_name]]
        except KeyError:
            raise ModelError(f"unknown message {msg_name}") from None

    def process(self, proc_name: str) -> Process:
        """Look up a process by name anywhere in the application."""
        return self.graph_of_process(proc_name).processes[proc_name]

    def message(self, msg_name: str) -> Message:
        """Look up a message by name anywhere in the application."""
        return self.graph_of_message(msg_name).messages[msg_name]

    def period_of_process(self, proc_name: str) -> float:
        """Period of the graph containing ``proc_name``."""
        return self.graph_of_process(proc_name).period

    def period_of_message(self, msg_name: str) -> float:
        """Period of the graph containing ``msg_name`` (= sender period)."""
        return self.graph_of_message(msg_name).period

    def all_processes(self) -> Iterator[Process]:
        """All processes of all graphs, in deterministic order."""
        for graph_name in sorted(self.graphs):
            graph = self.graphs[graph_name]
            for proc_name in graph.topological_order():
                yield graph.processes[proc_name]

    def all_messages(self) -> Iterator[Message]:
        """All messages of all graphs, in deterministic order."""
        for graph_name in sorted(self.graphs):
            graph = self.graphs[graph_name]
            for msg_name in sorted(graph.messages):
                yield graph.messages[msg_name]

    def hyper_period(self) -> float:
        """LCM of all graph periods (section 2.1).

        Non-integral periods are handled by scaling to a common rational
        denominator when possible; otherwise the product is returned as a
        safe upper bound.
        """
        periods = [g.period for g in self.graphs.values()]
        if all(float(p).is_integer() for p in periods):
            result = 1
            for p in periods:
                result = math.lcm(result, int(p))
            return float(result)
        product = 1.0
        for p in periods:
            product *= p
        return product

    def process_count(self) -> int:
        """Total number of processes across all graphs."""
        return sum(len(g.processes) for g in self.graphs.values())

    def message_count(self) -> int:
        """Total number of messages across all graphs."""
        return sum(len(g.messages) for g in self.graphs.values())

    def __repr__(self) -> str:
        return (
            f"Application({len(self.graphs)} graphs, "
            f"{self.process_count()} processes, "
            f"{self.message_count()} messages)"
        )
