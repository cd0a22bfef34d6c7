"""Synthesis heuristics: SF, HOPA, OS, OR and the SA baselines (section 5)."""

from .annealing import SAResult, sa_resources, sa_schedule, simulated_annealing
from .common import evaluate
from .hopa import hopa_priorities, local_deadlines
from .moves import (
    DelayActivity,
    Move,
    ResizeSlot,
    SwapMessagePriorities,
    SwapProcessPriorities,
    SwapSlots,
    generate_neighbors,
    random_move,
)
from .optimize_resources import ORResult, optimize_resources
from .optimize_schedule import OSResult, SeedPool, optimize_schedule
from .routing import (
    RerouteMessage,
    fit_bus_to_routes,
    greedy_routes,
    route_candidates,
    route_moves,
)
from .slots import (
    build_bus,
    default_capacities,
    messages_sent_over_ttp,
    recommended_capacities,
)
from .straightforward import run_straightforward, straightforward_configuration

__all__ = [
    "DelayActivity",
    "Move",
    "ORResult",
    "OSResult",
    "RerouteMessage",
    "ResizeSlot",
    "SAResult",
    "SeedPool",
    "SwapMessagePriorities",
    "SwapProcessPriorities",
    "SwapSlots",
    "build_bus",
    "default_capacities",
    "evaluate",
    "fit_bus_to_routes",
    "generate_neighbors",
    "greedy_routes",
    "hopa_priorities",
    "local_deadlines",
    "messages_sent_over_ttp",
    "optimize_resources",
    "optimize_schedule",
    "random_move",
    "recommended_capacities",
    "route_candidates",
    "route_moves",
    "run_straightforward",
    "straightforward_configuration",
    "sa_resources",
    "sa_schedule",
    "simulated_annealing",
]
