"""Bench: the section-6 real-life cruise controller.

Paper results: the straightforward configuration produces an end-to-end
response of 320 ms — missing the 250 ms deadline — while OS and SAS yield
a schedulable 185 ms; OS's solution needs 1020 bytes of buffers, OR cuts
that by 24%, landing within 6% of SAR.

Reproduced shape (absolute times differ with the reconstructed CC model,
see EXPERIMENTS.md): SF misses the deadline, OS/SAS meet it comfortably,
and OR reduces the buffer need by a similar fraction.
"""

import pytest

from repro.analysis import graph_response_time, multi_cluster_scheduling
from repro.io import comparison_table
from repro.optim import (
    optimize_resources,
    optimize_schedule,
    run_straightforward,
    sa_resources,
    sa_schedule,
)
from repro.synth import CRUISE_DEADLINE, cruise_controller_system


@pytest.fixture(scope="module")
def outcome(bench_scale):
    system = cruise_controller_system()
    sf = run_straightforward(system)
    osr = optimize_schedule(system)
    orr = optimize_resources(
        system, os_result=osr, max_iterations=15, max_climbs=4
    )
    sas = sa_schedule(
        system, iterations=bench_scale["sa_iters"], initial=osr.best.config
    )
    sar = sa_resources(
        system, iterations=bench_scale["sa_iters"], initial=osr.best.config
    )
    return system, sf, osr, orr, sas, sar


def _response(system, evaluation):
    return graph_response_time(system, evaluation.analysis.rho, "CC")


def test_cruise_table(outcome, capsys):
    system, sf, osr, orr, sas, sar = outcome
    rows = [
        ["SF", f"{_response(system, sf):.0f}",
         "yes" if sf.schedulable else "NO", f"{sf.total_buffers:.0f}"],
        ["OS", f"{_response(system, osr.best):.0f}",
         "yes" if osr.schedulable else "NO",
         f"{osr.best.total_buffers:.0f}"],
        ["SAS", f"{_response(system, sas.best):.0f}",
         "yes" if sas.schedulable else "NO",
         f"{sas.best.total_buffers:.0f}"],
        ["OR", f"{_response(system, orr.best):.0f}",
         "yes" if orr.schedulable else "NO", f"{orr.total_buffers:.0f}"],
        ["SAR", f"{_response(system, sar.best):.0f}",
         "yes" if sar.schedulable else "NO",
         f"{sar.best.total_buffers:.0f}"],
    ]
    with capsys.disabled():
        print()
        print(comparison_table(
            f"Cruise controller, deadline {CRUISE_DEADLINE:.0f} ms "
            "(paper: SF 320 missed; OS/SAS 185 met; OR -24% buffers)",
            ["heuristic", "r_CC [ms]", "schedulable", "s_total [B]"],
            rows,
        ))


def test_cruise_sf_misses_deadline(outcome):
    system, sf, *_ = outcome
    assert not sf.schedulable
    assert _response(system, sf) > CRUISE_DEADLINE


def test_cruise_os_meets_deadline(outcome):
    system, _sf, osr, *_ = outcome
    assert osr.schedulable
    assert _response(system, osr.best) <= CRUISE_DEADLINE


def test_cruise_or_reduces_buffers(outcome):
    _system, _sf, osr, orr, _sas, sar = outcome
    assert orr.schedulable
    # The paper reports a 24% reduction; require a tangible one.
    assert orr.total_buffers <= 0.9 * osr.best.total_buffers
    # ... and competitiveness with the annealing reference (paper: 6%).
    assert orr.total_buffers <= 1.15 * sar.best.total_buffers


def test_bench_cruise_os(benchmark):
    """Time OptimizeSchedule on the cruise controller."""
    system = cruise_controller_system()
    result = benchmark(optimize_schedule, system)
    assert result.schedulable
