"""The original full-scan gateway-traffic steering (parity oracle).

:func:`steer_gateway_traffic_scan` recounts every inter-cluster arc per
flip.  :func:`repro.synth.workload._steer_gateway_traffic` replaced it
with incremental accounting that must draw the same random numbers and
make the same keep/revert decisions (``tests/test_workload.py``).
"""

from __future__ import annotations

import random
from typing import List

from repro.model.architecture import Architecture
from repro.synth.workload import _Skeleton

__all__ = ["steer_gateway_traffic_scan"]


def _cross_arcs(skeleton: _Skeleton, is_tt) -> int:
    """Number of arcs whose endpoints sit in different clusters."""
    count = 0
    for src, dst in skeleton.structure[1]:
        if is_tt(skeleton.mapping[src]) != is_tt(skeleton.mapping[dst]):
            count += 1
    return count


def steer_gateway_traffic_scan(
    skeletons: List[_Skeleton],
    arch: Architecture,
    target: int,
    rng: random.Random,
    max_flips: int = 2000,
) -> None:
    """The original O(arcs)-per-flip steering (the reference)."""
    is_tt = arch.is_tt_node
    tt_nodes = arch.tt_node_names()
    et_nodes = arch.et_node_names()

    def total() -> int:
        return sum(_cross_arcs(s, is_tt) for s in skeletons)

    for _ in range(max_flips):
        current = total()
        if current == target:
            return
        skeleton = rng.choice(skeletons)
        index = rng.randrange(skeleton.size)
        node = skeleton.mapping[index]
        other = rng.choice(et_nodes if is_tt(node) else tt_nodes)
        before = _cross_arcs(skeleton, is_tt)
        skeleton.mapping[index] = other
        after = _cross_arcs(skeleton, is_tt)
        new_total = current - before + after
        # Keep the flip only if it moves the count toward the target
        # without overshooting further than the old distance.
        if abs(new_total - target) < abs(current - target):
            continue
        skeleton.mapping[index] = node  # revert
