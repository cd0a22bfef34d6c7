"""OptimizeResources (OR) — the seeded hill climber of Fig. 7.

Step 1 runs OptimizeSchedule to obtain a schedulable system and a pool of
seed solutions (best-``δΓ`` and best-``s_total`` configurations).  Step 2
starts a hill climb from every seed: in each iteration the neighborhood is
generated (:func:`repro.optim.moves.generate_neighbors`), every move is
scored, and the move with the smallest ``s_total`` **that keeps the system
schedulable** is performed; the climb stops when no move improves
``s_total`` or an iteration budget is exhausted.  The best configuration
across all climbs is returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..api.result import RunResult
from ..exceptions import UnschedulableError
from ..system import System
from .common import evaluate
from .moves import generate_neighbors
from .optimize_schedule import OSResult, optimize_schedule

__all__ = ["ORResult", "optimize_resources"]


@dataclass
class ORResult:
    """Outcome of OptimizeResources."""

    best: RunResult
    schedule_result: OSResult
    evaluations: int = 0
    climbs: int = 0

    @property
    def schedulable(self) -> bool:
        """Whether the returned configuration meets all deadlines."""
        return self.best.schedulable

    @property
    def total_buffers(self) -> float:
        """``s_total`` of the best configuration."""
        return self.best.total_buffers


def optimize_resources(
    system: System,
    os_result: Optional[OSResult] = None,
    max_iterations: int = 25,
    neighborhood: int = 24,
    seed: int = 0,
    require_schedulable: bool = False,
    max_climbs: Optional[int] = None,
    session=None,
) -> ORResult:
    """Run the two-step OR strategy; see module docstring.

    ``os_result`` lets callers reuse an existing OptimizeSchedule run.
    With ``require_schedulable`` an :class:`UnschedulableError` is raised
    when step 1 found no schedulable configuration (the paper's "modify
    mapping and/or architecture" escape hatch, which is outside the scope
    of this algorithm); otherwise the best-effort configuration is
    returned.  ``max_climbs`` bounds how many seed solutions are climbed
    from (best-buffer seeds first); ``None`` climbs them all.  ``session``
    (a :class:`repro.api.session.Session`) memoizes analysis runs by
    configuration hash — hill climbs that revisit a neighbor (or step
    back onto a seed) score it once.  When no session is given a private
    one is created so the climbs still run on the session's compiled
    analysis kernel (incremental recompiles per move) with memoization.
    """
    if session is None:
        from ..api.session import Session

        session = Session(system)
    rng = random.Random(seed)
    if os_result is None:
        os_result = optimize_schedule(system, session=session)
    evaluations = os_result.evaluations
    if not os_result.schedulable:
        if require_schedulable:
            raise UnschedulableError(
                "OptimizeSchedule found no schedulable configuration; "
                "modify the mapping or the architecture"
            )
        return ORResult(
            best=os_result.best,
            schedule_result=os_result,
            evaluations=evaluations,
        )

    seeds = [e for e in os_result.seeds if e.schedulable]
    if not seeds:
        seeds = [os_result.best]
    if max_climbs is not None:
        # Keep the best-buffer seeds but always retain the best-degree
        # solution: highly schedulable seeds survive more moves before
        # degrading (the paper's observation about good starting points).
        picked = sorted(seeds, key=lambda e: e.total_buffers)[:max_climbs]
        if os_result.best.schedulable and os_result.best not in picked:
            picked = picked[: max(1, max_climbs - 1)] + [os_result.best]
        seeds = picked
    best = min(seeds, key=lambda e: e.total_buffers)
    climbs = 0
    for seed_eval in seeds:
        current = seed_eval
        climbs += 1
        for _ in range(max_iterations):
            moves = generate_neighbors(
                system,
                current.config,
                evaluation=current,
                rng=rng,
                limit=neighborhood,
            )
            best_move_eval: Optional[RunResult] = None
            for move in moves:
                candidate = evaluate(
                    system, move.apply(current.config), session=session
                )
                evaluations += 1
                if not candidate.schedulable:
                    continue
                if (
                    best_move_eval is None
                    or candidate.total_buffers < best_move_eval.total_buffers
                ):
                    best_move_eval = candidate
            if (
                best_move_eval is None
                or best_move_eval.total_buffers >= current.total_buffers
            ):
                break
            current = best_move_eval
        if current.total_buffers < best.total_buffers:
            best = current
    return ORResult(
        best=best,
        schedule_result=os_result,
        evaluations=evaluations,
        climbs=climbs,
    )
