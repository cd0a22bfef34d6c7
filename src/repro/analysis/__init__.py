"""Multi-cluster schedulability, queueing and buffer analyses (section 4).

The holistic fixed point has one compiled implementation,
:class:`AnalysisContext`, behind :func:`response_time_analysis`, the
Fig. 5 loop :func:`multi_cluster_scheduling` and
:func:`.multihop.multihop_response_time_analysis`.  Every system, the
canonical one-gateway shape included, compiles its rows per leg of its
routing plan (the per-leg rules are listed in :mod:`.multihop`).
"""

from .buffers import BufferReport, buffer_bounds
from .can_analysis import can_blocking, can_queuing_delay
from .degree import (
    SchedulabilityReport,
    degree_of_schedulability,
    graph_response_time,
)
from .fixed_point import Interferer, ceil0_hits, solve_busy_window
from .holistic import response_time_analysis
from .kernel import AnalysisContext, KernelStats, SolveState
from .multicluster import MultiClusterResult, multi_cluster_scheduling
from .sensitivity import ScalingResult, critical_activities, wcet_scaling_margin
from .timing import INFEASIBLE, ActivityTiming, ResponseTimes
from .ttp_queue import ttp_blocking, ttp_bytes_ahead, ttp_queue_delay
from .utilization import (
    can_bus_utilization,
    node_utilization,
    system_overloaded,
    ttp_bus_demand,
)

__all__ = [
    "ActivityTiming",
    "AnalysisContext",
    "BufferReport",
    "KernelStats",
    "SolveState",
    "INFEASIBLE",
    "Interferer",
    "MultiClusterResult",
    "ScalingResult",
    "ResponseTimes",
    "SchedulabilityReport",
    "buffer_bounds",
    "can_blocking",
    "can_bus_utilization",
    "can_queuing_delay",
    "ceil0_hits",
    "degree_of_schedulability",
    "graph_response_time",
    "multi_cluster_scheduling",
    "node_utilization",
    "response_time_analysis",
    "critical_activities",
    "solve_busy_window",
    "wcet_scaling_margin",
    "system_overloaded",
    "ttp_blocking",
    "ttp_bus_demand",
    "ttp_bytes_ahead",
    "ttp_queue_delay",
]
