"""Simulated-annealing baselines SAS and SAR (section 6).

The paper tunes two annealers over the same move set as the hill climber
to approximate the optimum:

* **SAS** (SA Schedule) minimizes the degree of schedulability ``δΓ``;
* **SAR** (SA Resources) minimizes the total buffer need ``s_total``
  (unschedulable states are admitted during the walk but heavily
  penalized, so the chain returns to the feasible region).

"Very long and expensive runs" in the paper took up to three hours; the
iteration budget here is a parameter so benchmarks can trade fidelity for
runtime (the comparisons of Fig. 9 use the *relative* quality of OS/OR
versus these near-optimal references).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..api.result import RunResult
from ..model.configuration import SystemConfiguration
from ..system import System
from .common import evaluate
from .moves import random_move
from .straightforward import straightforward_configuration

__all__ = ["SAResult", "simulated_annealing", "sa_schedule", "sa_resources"]

#: Penalty weight pushing SAR away from unschedulable configurations.
_UNSCHEDULABLE_WEIGHT = 1e9


@dataclass
class SAResult:
    """Outcome of one annealing run."""

    best: RunResult
    evaluations: int
    accepted: int

    @property
    def schedulable(self) -> bool:
        """Whether the best state meets all deadlines."""
        return self.best.schedulable


def _degree_cost(evaluation: RunResult) -> float:
    return evaluation.degree


def _buffer_cost(evaluation: RunResult) -> float:
    cost = evaluation.total_buffers
    if not evaluation.schedulable:
        cost += _UNSCHEDULABLE_WEIGHT + max(0.0, evaluation.degree)
    return cost


def simulated_annealing(
    system: System,
    initial: SystemConfiguration,
    cost: Callable[[RunResult], float],
    iterations: int = 400,
    initial_temperature: Optional[float] = None,
    cooling: float = 0.98,
    seed: int = 0,
    session=None,
) -> SAResult:
    """Generic annealer over the section-5.1 move set.

    Classic Metropolis acceptance with geometric cooling.  The initial
    temperature defaults to a scale estimated from the initial cost so the
    early phase accepts most moves.  ``session`` (default: a private
    :class:`repro.api.session.Session`) carries the compiled analysis
    kernel, so each move's evaluation recompiles only the interference
    rows the move touched; revisited states hit the memo cache.
    """
    if session is None:
        from ..api.session import Session

        session = Session(system)
    rng = random.Random(seed)
    current = evaluate(system, initial, session=session)
    evaluations = 1
    best = current
    current_cost = cost(current)
    best_cost = current_cost
    temperature = initial_temperature
    if temperature is None:
        temperature = max(1.0, abs(current_cost) * 0.1)
    accepted = 0
    for _ in range(iterations):
        move = random_move(system, current.config, rng, evaluation=current)
        candidate = evaluate(
            system, move.apply(current.config), session=session
        )
        evaluations += 1
        candidate_cost = cost(candidate)
        delta = candidate_cost - current_cost
        if delta <= 0 or rng.random() < math.exp(
            -delta / max(temperature, 1e-12)
        ):
            current = candidate
            current_cost = candidate_cost
            accepted += 1
            if candidate_cost < best_cost:
                best = candidate
                best_cost = candidate_cost
        temperature *= cooling
    return SAResult(best=best, evaluations=evaluations, accepted=accepted)


def sa_schedule(
    system: System,
    iterations: int = 400,
    seed: int = 0,
    initial: Optional[SystemConfiguration] = None,
    session=None,
) -> SAResult:
    """SAS: anneal the degree of schedulability ``δΓ``."""
    start = initial if initial is not None else straightforward_configuration(system)
    return simulated_annealing(
        system, start, _degree_cost, iterations=iterations, seed=seed,
        session=session,
    )


def sa_resources(
    system: System,
    iterations: int = 400,
    seed: int = 0,
    initial: Optional[SystemConfiguration] = None,
    session=None,
) -> SAResult:
    """SAR: anneal the total buffer need ``s_total``."""
    start = initial if initial is not None else straightforward_configuration(system)
    return simulated_annealing(
        system, start, _buffer_cost, iterations=iterations, seed=seed,
        session=session,
    )
