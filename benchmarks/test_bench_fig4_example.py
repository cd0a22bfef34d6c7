"""Bench: the worked example of Fig. 4 / section 4.2.

Regenerates the three scheduling scenarios of the motivating example and
times the multi-cluster scheduling algorithm on it.  The printed table is
the reproduction of Fig. 4's outcome row (which configurations meet the
200 ms deadline) plus the section 4.2 response-time value r_G1 = 210.
"""

import pytest

from repro.analysis import graph_response_time, multi_cluster_scheduling
from repro.io import comparison_table
from repro.synth import FIG4_DEADLINE, fig4_configuration, fig4_system


@pytest.fixture(scope="module")
def system():
    return fig4_system()


def run(system, variant):
    config = fig4_configuration(variant)
    result = multi_cluster_scheduling(system, config.bus, config.priorities)
    return graph_response_time(system, result.rho, "G1")


def test_bench_fig4_analysis(benchmark, system):
    """Time one full multi-cluster scheduling run (configuration a),
    from a fresh kernel compile: the System's cached kernel is dropped
    before each round, or later rounds would replay its solves."""
    config = fig4_configuration("a")

    result = benchmark.pedantic(
        multi_cluster_scheduling, (system, config.bus, config.priorities),
        setup=system._kernels.clear, rounds=50,
    )
    assert result.converged


def test_fig4_outcomes(system, capsys):
    rows = []
    outcomes = {}
    for variant in ("a", "b", "c"):
        r = run(system, variant)
        outcomes[variant] = r
        rows.append(
            [
                f"Fig. 4{variant}",
                f"{r:.0f}",
                f"{FIG4_DEADLINE:.0f}",
                "met" if r <= FIG4_DEADLINE else "MISSED",
            ]
        )
    with capsys.disabled():
        print()
        print(comparison_table(
            "Fig. 4 scheduling scenarios (paper: a misses at 210, b meets; "
            "c's claimed gain is absorbed by TDMA quantization here — see "
            "EXPERIMENTS.md)",
            ["configuration", "r_G1 [ms]", "D_G1 [ms]", "deadline"],
            rows,
        ))
    # Paper-anchored assertions.
    assert outcomes["a"] == 210.0
    assert outcomes["b"] <= FIG4_DEADLINE
    assert outcomes["c"] <= outcomes["a"]
