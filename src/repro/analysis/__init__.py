"""Multi-cluster schedulability, queueing and buffer analyses (section 4).

The holistic fixed point has one compiled implementation,
:class:`AnalysisContext`, behind :func:`response_time_analysis`, the
Fig. 5 loop :func:`multi_cluster_scheduling` and
:func:`.multihop.multihop_response_time_analysis`.  Every system, the
canonical one-gateway shape included, compiles its rows per leg of its
routing plan (the per-leg rules are listed in :mod:`.multihop`).  The
kernel's per-leg rows are the one implementation of the section 4.1
queueing equations: CAN ``Out_Ni``/``Out_CAN`` and the gateway
``Out_TTP`` FIFO.
"""

from .buffers import BufferReport, buffer_bounds
from .degree import (
    SchedulabilityReport,
    degree_of_schedulability,
    graph_response_time,
)
from .fixed_point import Interferer
from .holistic import response_time_analysis
from .kernel import AnalysisContext, KernelStats, SolveState
from .multicluster import MultiClusterResult, multi_cluster_scheduling
from .sensitivity import ScalingResult, critical_activities, wcet_scaling_margin
from .timing import INFEASIBLE, ActivityTiming, ResponseTimes
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
    "can_bus_utilization",
    "degree_of_schedulability",
    "graph_response_time",
    "multi_cluster_scheduling",
    "node_utilization",
    "response_time_analysis",
    "critical_activities",
    "wcet_scaling_margin",
    "system_overloaded",
    "ttp_bus_demand",
]
