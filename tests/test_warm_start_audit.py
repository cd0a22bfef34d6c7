"""Audit of ``multi_cluster_scheduling(warm_start=True)`` vs. the shared
semantics: warm seeding is a *safe* accelerator.

The cross-iteration warm start seeds each Fig. 5 analysis pass from the
previous iteration's solution, which is documented as a safe (possibly
pessimistic) upper bound — never an unsound one.  The enforced corollary:
opt-in warm seeding may cost schedulability margin but must never *flip*
a schedulable verdict to unschedulable relative to the cold path, and
the schedules it emits must still satisfy the shared dispatch contract.
Both hold on general topologies too, where the warm state is indexed by
route leg.
"""

import pytest

from repro.analysis import degree_of_schedulability, multi_cluster_scheduling
from repro.analysis.kernel import AnalysisContext
from repro.conformance import CampaignSpec, conformance_configuration
from repro.optim.routing import fit_bus_to_routes
from repro.synth.workload import generate_workload, seeded_routes

from test_properties import build_random_system

#: A spread of the property-test generator's space, the historical
#: counterexample included.
CHAIN_SEEDS = [0, 7, 99, 517, 1654, 2048, 4242, 9001]


def _verdict(system, result):
    if not (result.converged and result.rho.all_converged()):
        return False
    return degree_of_schedulability(system, result.rho).schedulable


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_warm_start_never_flips_schedulable_chain_systems(seed):
    system, config = build_random_system(seed, n_graphs=3, chain_len=5)
    cold = multi_cluster_scheduling(system, config.bus, config.priorities)
    warm = multi_cluster_scheduling(
        system, config.bus, config.priorities, warm_start=True
    )
    if _verdict(system, cold):
        assert _verdict(system, warm), (
            f"warm start flipped seed {seed} to unschedulable"
        )


@pytest.mark.parametrize("seed", [0, 3, 11, 24, 57])
def test_warm_start_never_flips_schedulable_workloads(seed):
    spec = CampaignSpec()
    system = generate_workload(spec.workload_spec(seed))
    config = conformance_configuration(system)
    cold = multi_cluster_scheduling(system, config.bus, config.priorities)
    warm = multi_cluster_scheduling(
        system, config.bus, config.priorities, warm_start=True
    )
    if _verdict(system, cold):
        assert _verdict(system, warm), (
            f"warm start flipped workload seed {seed} to unschedulable"
        )


@pytest.mark.parametrize("seed", [1654, 24])
def test_warm_schedules_respect_dispatch_contract(seed):
    """Warm-started schedules still pass the static dispatch audit."""
    system, config = build_random_system(seed, n_graphs=3, chain_len=5)
    warm = multi_cluster_scheduling(
        system, config.bus, config.priorities, warm_start=True
    )
    if not (warm.converged and warm.rho.all_converged()):
        pytest.skip("outside the contract's domain (overload)")
    assert warm.schedule.audit_dispatch_eligibility(system, warm.rho) == []


#: 4-cluster, 4-gateway seeds whose random routes override a default
#: and whose Fig. 5 loop runs more than one analysis pass.
ROUTED_SEEDS = [7, 13, 17, 25, 26]


@pytest.mark.parametrize("seed", ROUTED_SEEDS)
def test_warm_start_on_routed_topologies(seed):
    """Per-leg solves honour ``warm_start=True``: the flag seeds every
    pass after the first, never flips a schedulable verdict, and the
    warm schedule still passes the dispatch audit."""
    spec = CampaignSpec(clusters=4, gateways=4, nodes=6,
                        route_strategy="random")
    system = generate_workload(spec.workload_spec(seed))
    config = conformance_configuration(system)
    config.routes.update(seeded_routes(system, spec.workload_spec(seed)))
    assert config.routes
    config.bus = fit_bus_to_routes(system, config.bus, config.routes)
    cold = multi_cluster_scheduling(
        system, config.bus, config.priorities, routes=config.routes
    )
    kernel = AnalysisContext(
        system, config.priorities, config.bus, routes=config.routes
    )
    warm = multi_cluster_scheduling(
        system, config.bus, config.priorities, routes=config.routes,
        kernel=kernel, warm_start=True,
    )
    assert warm.iterations > 1
    assert kernel.stats.warm_starts > 0
    if _verdict(system, cold):
        assert _verdict(system, warm), (
            f"warm start flipped routed seed {seed} to unschedulable"
        )
    assert warm.converged and warm.rho.all_converged()
    assert warm.schedule.audit_dispatch_eligibility(system, warm.rho) == []
