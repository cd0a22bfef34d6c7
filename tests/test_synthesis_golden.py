"""Golden outcomes of the section-5 synthesis heuristics.

Pins SF, OS (plain and with HOPA refinement), OR (all seeds and the
``max_climbs`` pick), SAS and SAR on one seeded generated workload:
the best configuration's ``δΓ``, ``s_total`` and configuration hash,
plus the evaluation counts (and accepted moves for the annealers).  Any
change to how a candidate is scored, compared, pooled or climbed moves
at least one of these numbers.
"""

import pytest

from repro.api.session import config_hash
from repro.optim import (
    optimize_resources,
    optimize_schedule,
    run_straightforward,
    sa_resources,
    sa_schedule,
)
from repro.synth import WorkloadSpec, generate_workload

SF_HASH = "b8fe4b0c2bf660900d49c64ec0cc74b07cdd13a87c1805f077d1ddc8759cebd5"
OS_HASH = "560f83035a1465a74051924a72aab6444a2ff783e60bd81d557106442d364c3d"

#: OptimizeSchedule's seed pool, in :meth:`SeedPool.seeds` order.  The
#: OS best appears twice: once as computed, once as a memo-cache hit.
OS_SEEDS = [
    SF_HASH,
    "8bb052d4bbe974210b447f19b98105b078cdf026373b3c7e22b7f50cfb5cbaae",
    "772b7ea41885c80fc119db0f824b0683b84d056cf2319c2c20236fdc18998934",
    "19f8990a2bfad4f87231a1312fe3d04778488d4a544c50992fc51e8682078baf",
    OS_HASH,
    OS_HASH,
    "9ad4e96701635b02ef07ad47f3400817c991ad2944d2c08e022a2e8a9be3daae",
    "16e38bda0458e9ef38677a46f44a221a4ec8681a219ce783a6bbcd0c84ba60b6",
    "7c4792404bf5566206a28d77954d710a72d88c4f40c9beb3c9d41fa6ed9bcb66",
]


@pytest.fixture(scope="module")
def system():
    return generate_workload(
        WorkloadSpec(nodes=2, processes_per_node=8, seed=4)
    )


@pytest.fixture(scope="module")
def os_result(system):
    return optimize_schedule(system)


def _best(record):
    return (record.degree, record.total_buffers, config_hash(record.config))


def test_straightforward(system):
    assert _best(run_straightforward(system)) == (-120.44400000000002, 144.0, SF_HASH)


def test_optimize_schedule(os_result):
    assert _best(os_result.best) == (-126.764, 156.0, OS_HASH)
    assert os_result.evaluations == 14
    assert [config_hash(s.config) for s in os_result.seeds] == OS_SEEDS


def test_optimize_schedule_hopa_refinement(system):
    result = optimize_schedule(system, hopa_iterations=3)
    assert _best(result.best) == (-126.764, 156.0, OS_HASH)
    assert result.evaluations == 15


def test_optimize_resources(system, os_result):
    result = optimize_resources(
        system, os_result=os_result, max_iterations=6, neighborhood=10,
        seed=0,
    )
    assert _best(result.best) == (
        -106.244, 90.0,
        "6beecee3aa20783c635fcf6716ddd0b9f39d79c6dd4e47e5ef4a05a147db8c0f",
    )
    assert (result.evaluations, result.climbs) == (254, 9)


def test_optimize_resources_max_climbs(system):
    # The two best-buffer seeds exclude the OS best, so the pick swaps
    # it in by the ``not in`` (equality) test.
    result = optimize_resources(
        system, max_iterations=6, neighborhood=10, seed=1, max_climbs=2,
    )
    assert _best(result.best) == (
        -104.824, 90.0,
        "99bcdbd468dc9fb3c9a66bb54e9211a5863ed13943e86d51112eae0b54a2b5ce",
    )
    assert (result.evaluations, result.climbs) == (54, 2)


def test_max_climbs_pick_builds_no_timing_table(system):
    """Picking the climbed seeds compares results by ``==``, which must
    not build the lazily kept timing table of any OS seed."""
    fresh = optimize_schedule(system)
    assert all(s.__dict__.get("_timing") is None for s in fresh.seeds)
    optimize_resources(
        system, os_result=fresh, max_iterations=6, neighborhood=10,
        seed=1, max_climbs=2,
    )
    assert [s.__dict__.get("_timing") for s in fresh.seeds] == [
        None for _ in fresh.seeds
    ]


def test_sa_schedule(system):
    result = sa_schedule(system, iterations=60, seed=2)
    assert _best(result.best) == (
        -126.38399999999999, 165.0,
        "c9afc5a61705923eea1e2d18bd4d2313d3a8d858e1746d7c793ceadc156ceb81",
    )
    assert (result.evaluations, result.accepted) == (61, 35)


def test_sa_resources(system):
    result = sa_resources(system, iterations=60, seed=3)
    assert _best(result.best) == (
        -116.18400000000001, 90.0,
        "26a36bc29ac01c3e3e0fb13340f610114520d08101acf4d03b8342d18ff2bab9",
    )
    assert (result.evaluations, result.accepted) == (61, 46)
