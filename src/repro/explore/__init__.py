"""Design-space exploration campaigns: declarative, resumable, Pareto-
tracked.

The paper's payoff is comparing synthesis outcomes across bus
configurations and workloads; this package turns that from a hand-rolled
loop into a subsystem::

    from repro.explore import SweepSpec, run_sweep

    spec = SweepSpec(
        workload={"nodes": 2, "processes_per_node": 8, "seed": [0, 1, 2]},
        methods=("SF", "OS", "OR"),
        group_by=("seed",),
    )
    report = run_sweep(spec, store="results/", workers=4)
    print(report.counts, report.fronts)

CLI: ``repro explore --sweep spec.json --store DIR --resume --workers K``.
"""

from .engine import ExploreReport, SweepInterrupted, evaluate_cell, run_sweep
from .pareto import dominates, pareto_front
from .runner import (
    RunInterrupted,
    iter_chunked,
    partition_chunks,
    trap_signals,
)
from .spec import Cell, SweepSpec

__all__ = [
    "Cell",
    "ExploreReport",
    "RunInterrupted",
    "SweepInterrupted",
    "SweepSpec",
    "dominates",
    "evaluate_cell",
    "iter_chunked",
    "pareto_front",
    "partition_chunks",
    "run_sweep",
    "trap_signals",
]
