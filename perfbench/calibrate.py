"""A machine-speed reference for the benchmark's compute timings.

The benchmark runs on a few virtual cores of a shared host, whose speed
for the same interpreted code drifts by a third or more within a minute
(neighbours on the same physical cores, not time slicing: process CPU
time moves with wall time).  A fixed piece of pure-Python reference work
timed right before and after each timed section tracks that drift, so
``synth`` and ``conform`` (and every workload's set-up) scale each
section's wall time by ``REFERENCE_S / measured reference time``: their
times are reported *at the reference speed*, the speed at which
:func:`reference_work` takes :data:`REFERENCE_S`.

The reference work touches nothing under ``src/``, so a change to the
program moves the scaled times exactly as it moves the raw ones; only
the host's speed is divided out.  Raw wall times are kept beside them.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Any, Callable, List, Tuple

#: Seconds :func:`reference_work` takes at the reference speed: the
#: faster of the two speeds a shared 2.1 GHz Xeon vCPU alternated
#: between when the benchmark was defined (2.4 ms and 3.6 ms).
REFERENCE_S = 0.0024
#: Timings of :func:`reference_work` per speed sample (their median).
SAMPLE_REPEATS = 3


class _Job:
    __slots__ = ("key", "cost", "deps")

    def __init__(self, key: int, cost: float) -> None:
        self.key = key
        self.cost = cost
        self.deps: List["_Job"] = []

    def finish(self, start: float) -> float:
        return start + self.cost


def reference_work() -> float:
    """A fixed mix of the operations the analysis and simulation spend
    their time on: small-object attribute access and method calls,
    dict and list traffic, float arithmetic, a heap and a sort."""
    jobs = [_Job(k, 1.0 + (k * 7919) % 97 / 10.0) for k in range(400)]
    for k, job in enumerate(jobs):
        job.deps = [jobs[(k * 31 + d) % 400] for d in range(1, 4)
                    if (k * 31 + d) % 400 < k]
    finish = {}
    heap: List[Tuple[float, int]] = []
    for _ in range(4):
        for job in jobs:
            start = max((finish.get(dep.key, 0.0) for dep in job.deps),
                        default=0.0)
            finish[job.key] = job.finish(start)
            heapq.heappush(heap, (finish[job.key], job.key))
        while heap:
            heapq.heappop(heap)
    return sorted(finish.values())[-1]


def speed_sample() -> float:
    """Seconds one :func:`reference_work` takes now (median of
    :data:`SAMPLE_REPEATS`)."""
    times = []
    for _ in range(SAMPLE_REPEATS):
        started = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class ReferenceClock:
    """Times sections of work in raw and reference-speed seconds.

    Each section's scale is :data:`REFERENCE_S` over the mean of the
    speed samples taken right before and right after it.
    """

    def __init__(self) -> None:
        self._last = speed_sample()
        #: Scale for work done just before the clock was made (set-up).
        self.initial_scale = REFERENCE_S / self._last
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.scales: List[float] = []

    def run(self, fn: Callable[..., Any], *args, **kwargs) -> Tuple[Any, float]:
        """``fn(*args, **kwargs)`` timed; its result and the section's
        scale (multiply a raw time inside it by this)."""
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        wall_s = time.perf_counter() - started
        after = speed_sample()
        scale = REFERENCE_S / ((self._last + after) / 2.0)
        self._last = after
        self.wall_s += wall_s
        self.ref_s += wall_s * scale
        self.scales.append(scale)
        return result, scale
