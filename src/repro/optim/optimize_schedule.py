"""OptimizeSchedule (OS) — the greedy bus-access/priority synthesis of
Fig. 8.

OS searches for the configuration with the best (smallest) degree of
schedulability ``δΓ``:

* slots are considered left to right; for each slot position every not yet
  fixed node is tried, and for each node every *recommended* slot capacity
  (see :func:`repro.optim.slots.recommended_capacities`);
* each candidate ``β`` is completed with HOPA priorities ``π`` and scored
  by running the full multi-cluster scheduling loop;
* the node/length pair with the best ``δΓ`` is fixed and the next slot
  position is processed;
* along the way the best configurations — both by ``δΓ`` and, among the
  schedulable ones, by ``s_total`` — are recorded as *seed solutions* for
  the OptimizeResources hill climber (section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..api.result import RunResult
from ..model.configuration import SystemConfiguration
from ..system import System
from .common import evaluate
from .hopa import hopa_priorities
from .slots import build_bus, default_capacities, recommended_capacities

__all__ = ["SeedPool", "OSResult", "optimize_schedule"]


class SeedPool:
    """Collects the seed solutions of OptimizeSchedule.

    Keeps up to ``limit`` configurations with the best degree of
    schedulability and up to ``limit`` schedulable configurations with the
    smallest total buffer need — the two families the paper observed to be
    good hill-climbing starting points.
    """

    def __init__(self, limit: int = 5) -> None:
        self.limit = limit
        self._by_degree: List[RunResult] = []
        self._by_buffers: List[RunResult] = []

    def add(self, evaluation: RunResult) -> None:
        """Consider one evaluated configuration for the pool."""
        if not evaluation.feasible:
            return
        self._by_degree.append(evaluation)
        self._by_degree.sort(key=lambda e: e.degree)
        del self._by_degree[self.limit :]
        if evaluation.schedulable:
            self._by_buffers.append(evaluation)
            self._by_buffers.sort(key=lambda e: e.total_buffers)
            del self._by_buffers[self.limit :]

    def seeds(self) -> List[RunResult]:
        """The pooled seeds, de-duplicated, best-buffer seeds first."""
        out: List[RunResult] = []
        seen = set()
        for evaluation in self._by_buffers + self._by_degree:
            key = id(evaluation)
            if key not in seen:
                seen.add(key)
                out.append(evaluation)
        return out


@dataclass
class OSResult:
    """Outcome of OptimizeSchedule."""

    best: RunResult
    seeds: List[RunResult] = field(default_factory=list)
    evaluations: int = 0

    @property
    def schedulable(self) -> bool:
        """Whether the best configuration meets all deadlines."""
        return self.best.schedulable


def optimize_schedule(
    system: System,
    seed_limit: int = 5,
    hopa_iterations: int = 1,
    max_capacity_candidates: int = 5,
    session=None,
) -> OSResult:
    """Run the greedy OS heuristic; see module docstring.

    ``hopa_iterations`` > 1 enables the iterative HOPA refinement for the
    final (fixed) bus configuration; inside the greedy loop the fast
    deadline-proportional assignment is always used, as one analysis run
    per candidate is already the dominating cost.

    ``session`` (a :class:`repro.api.session.Session`) routes all
    analysis runs through the facade's memo cache; candidate ``β``/``π``
    pairs the greedy loop revisits are then scored only once.  When no
    session is given a private one is created, so every OS run gets the
    compiled-kernel hot path (one interference-table compile, then
    incremental recompiles per candidate) and in-run memoization.
    """
    if session is None:
        from ..api.session import Session

        session = Session(system)
    pool = SeedPool(limit=seed_limit)
    priorities = hopa_priorities(system)
    order = list(system.arch.ttp_slot_owners())
    capacities = default_capacities(system)
    evaluations = 0
    best_overall: Optional[RunResult] = None

    for position in range(len(order)):
        best_for_slot: Optional[RunResult] = None
        best_node_index: Optional[int] = None
        best_capacity: Optional[int] = None
        for candidate_index in range(position, len(order)):
            node = order[candidate_index]
            tentative = list(order)
            tentative[position], tentative[candidate_index] = (
                tentative[candidate_index],
                tentative[position],
            )
            for capacity in recommended_capacities(
                system, node, max_candidates=max_capacity_candidates
            ):
                caps = dict(capacities)
                caps[node] = capacity
                config = SystemConfiguration(
                    bus=build_bus(system, tentative, caps),
                    priorities=priorities.copy(),
                )
                evaluation = evaluate(system, config, session=session)
                evaluations += 1
                pool.add(evaluation)
                if best_overall is None or evaluation.degree < best_overall.degree:
                    best_overall = evaluation
                if best_for_slot is None or evaluation.degree < best_for_slot.degree:
                    best_for_slot = evaluation
                    best_node_index = candidate_index
                    best_capacity = capacity
        if best_node_index is not None:
            node = order[best_node_index]
            order[position], order[best_node_index] = (
                order[best_node_index],
                order[position],
            )
            if best_capacity is not None:
                capacities[node] = best_capacity

    if best_overall is None:  # pragma: no cover - defensive
        raise RuntimeError("OptimizeSchedule evaluated no configuration")

    if hopa_iterations > 1 and best_overall.feasible:
        refined = hopa_priorities(
            system,
            bus=best_overall.config.bus,
            iterations=hopa_iterations,
            session=session,
        )
        config = SystemConfiguration(
            bus=best_overall.config.bus, priorities=refined
        )
        evaluation = evaluate(system, config, session=session)
        evaluations += 1
        pool.add(evaluation)
        if evaluation.degree < best_overall.degree:
            best_overall = evaluation

    return OSResult(best=best_overall, seeds=pool.seeds(), evaluations=evaluations)
