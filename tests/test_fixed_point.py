"""Unit tests for the busy-window primitives: the interference count
and the kernel's row solver."""

import math

from repro.analysis import Interferer
from repro.analysis.kernel import _solve_row

from oracles.busy_window import ceil0_hits


def make(jitter=0.0, rel=0.0, period=100.0, cost=10.0):
    return Interferer(jitter=jitter, rel_offset=rel, period=period, cost=cost)


class TestCeil0Hits:
    def test_zero_window_no_jitter(self):
        assert ceil0_hits(0.0, make()) == 0

    def test_epsilon_breaks_simultaneous_tie(self):
        assert ceil0_hits(0.0, make(), epsilon=1e-9) == 1

    def test_negative_window_clamped(self):
        assert ceil0_hits(5.0, make(rel=50.0)) == 0

    def test_multiple_periods(self):
        assert ceil0_hits(250.0, make()) == 3

    def test_jitter_adds_hits(self):
        assert ceil0_hits(95.0, make(jitter=10.0)) == 2


def solve(base, interferers, bound=math.inf):
    """The kernel's busy-window row solver on unlocked interferers."""
    row = [
        (k, i.rel_offset, i.period, i.cost, False, False)
        for k, i in enumerate(interferers)
    ]
    jitters = [i.jitter for i in interferers]
    residencies = [0.0] * len(interferers)
    return _solve_row(base, 0.0, row, jitters, residencies, 0.0, bound, base)


class TestSolveBusyWindow:
    def test_no_interferers_returns_base(self):
        assert solve(7.0, []) == 7.0

    def test_single_interferer_fixed_point(self):
        # w = 5 + ceil((w+1)/100)*10 -> w = 15.
        assert solve(5.0, [make(jitter=1.0)]) == 15.0

    def test_two_activations(self):
        # Window grows past one period: w = 5 + ceil((w+96)/100)*10 -> 25.
        assert solve(5.0, [make(jitter=96.0)]) == 25.0

    def test_overload_diverges(self):
        # U = 1.2: the window crosses any bound.
        heavy = [make(cost=60.0), make(cost=60.0)]
        assert math.isinf(solve(1.0, heavy, bound=10_000.0))

    def test_near_saturation_converges(self):
        # U = 0.9: still converges.
        w = solve(1.0, [make(cost=90.0, jitter=1.0)], bound=10_000.0)
        assert math.isfinite(w)

    def test_monotone_in_base(self):
        low = solve(1.0, [make(jitter=1.0)])
        high = solve(9.0, [make(jitter=1.0)])
        assert high >= low
