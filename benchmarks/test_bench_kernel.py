"""Bench: the compiled analysis kernel under the optimizer move loop.

The kernel's pitch is the section-6 throughput argument: OS/OR reach
good configurations in minutes only because each analysis evaluation is
cheap.  This benchmark plays the OptimizeResources access pattern — N
priority-swap moves on one system — and checks that the kernel
recompiles only the touched rows while staying bit-identical to a
kernel compiled from scratch at every move.  (Kernel-versus-reference
equality lives in ``tests/test_kernel_parity.py``; end-to-end timing
lives in ``perfbench/``.)

Scale knobs: ``REPRO_KERNEL_NODES`` (default 2), ``REPRO_KERNEL_REPS``
(default 20).
"""

import os
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.kernel import AnalysisContext
from repro.optim import straightforward_configuration
from repro.schedule import static_schedule
from repro.synth import WorkloadSpec, generate_workload

# The parity measure lives with the reference oracles, under tests/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles.deltas import rho_max_abs_delta  # noqa: E402


def assert_rho_equal(a, b, tol=0.0, context=""):
    """Bit-level structural equality of two ResponseTimes records."""
    delta = rho_max_abs_delta(a, b)
    assert delta <= tol, (
        f"{context}: rho records differ (max |delta| = {delta})"
    )


@pytest.fixture(scope="module")
def system():
    nodes = int(os.environ.get("REPRO_KERNEL_NODES", 2))
    return generate_workload(WorkloadSpec(nodes=nodes, seed=0))


def test_kernel_move_loop_incremental(system, capsys):
    """Priority-swap move loop: incremental recompile stays cheap and
    bit-identical to compiling from scratch at every move."""
    reps = int(os.environ.get("REPRO_KERNEL_REPS", 20))
    config = straightforward_configuration(system)
    schedule = static_schedule(system, config.bus)
    offsets = schedule.offsets
    msgs = sorted(
        config.priorities.message_priorities,
        key=config.priorities.message_priority,
    )

    kernel = AnalysisContext(system, config.priorities, config.bus)
    kernel.solve(offsets)
    t0 = time.perf_counter()
    current = config
    for step in range(reps):
        current = current.copy()
        a, b = msgs[step % (len(msgs) - 1)], msgs[step % (len(msgs) - 1) + 1]
        current.priorities.swap_messages(a, b)
        kernel.update(current.priorities, current.bus)
        incremental, _ = kernel.solve(offsets)
        fresh, _ = AnalysisContext(
            system, current.priorities, current.bus
        ).solve(offsets)
        assert_rho_equal(fresh, incremental, tol=0.0, context=f"move {step}")
    elapsed = time.perf_counter() - t0

    assert kernel.stats.compiles == 1
    assert kernel.stats.updates == reps
    with capsys.disabled():
        print(
            f"\n{reps} incremental moves in {elapsed:.3f}s "
            f"({kernel.stats.rows_recompiled} rows recompiled, "
            "1 full compile)"
        )
