"""Public-API contract: ``__all__`` inventories match reality.

Guards against re-export drift: every name a subpackage advertises in
``__all__`` must actually be importable from it, and the top-level
``repro`` namespace must cover the :mod:`repro.api` facade symbols.
"""

import importlib

import pytest

SUBPACKAGES = [
    "repro",
    "repro.analysis",
    "repro.api",
    "repro.buses",
    "repro.explore",
    "repro.io",
    "repro.model",
    "repro.optim",
    "repro.schedule",
    "repro.sim",
    "repro.store",
    "repro.synth",
]

#: Facade symbols that must stay reachable straight off ``repro``.
FACADE_SYMBOLS = [
    "AnalysisBackend",
    "EvaluationBackend",
    "RunResult",
    "Session",
    "SimulationBackend",
    "SynthesisResult",
    "available_backends",
    "config_hash",
    "get_backend",
    "register_backend",
    "store_key",
]


@pytest.mark.parametrize("modname", SUBPACKAGES)
def test_every_all_name_is_importable(modname):
    mod = importlib.import_module(modname)
    assert hasattr(mod, "__all__"), f"{modname} defines no __all__"
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, (
        f"{modname}.__all__ advertises names that do not exist: {missing}"
    )


@pytest.mark.parametrize("modname", SUBPACKAGES)
def test_all_names_unique(modname):
    mod = importlib.import_module(modname)
    names = list(mod.__all__)
    assert len(names) == len(set(names)), f"duplicates in {modname}.__all__"


def test_top_level_covers_facade_symbols():
    repro = importlib.import_module("repro")
    for name in FACADE_SYMBOLS:
        assert name in repro.__all__, f"repro.__all__ misses facade {name}"
        assert hasattr(repro, name)


def test_facade_exports_match_api_package():
    """Facade symbols resolve to the same objects as repro.api's."""
    repro = importlib.import_module("repro")
    api = importlib.import_module("repro.api")
    for name in FACADE_SYMBOLS:
        assert getattr(repro, name) is getattr(api, name)


def test_cache_info_counts_sim_kernel_compiles_and_reuses():
    """CacheInfo carries the simulation-kernel counters.

    ``Session.simulate`` compiles one SimContext per configuration and
    reuses it across replays of the same (memoized) analysis schedule —
    the contract ``repro analyze --stats`` / ``repro simulate --stats``
    report on.
    """
    from helpers import two_node_config, two_node_system
    from repro.api import Session

    session = Session(two_node_system())
    info = session.cache_info()
    for field in ("sim_compiles", "sim_reuses"):
        assert field in info._fields
        assert getattr(session.cache_info(), field) == 0
    config = two_node_config()
    session.simulate(config, periods=2)
    assert session.cache_info().sim_compiles == 1
    assert session.cache_info().sim_reuses == 0
    session.simulate(config.copy(), periods=3)  # same hash, new periods
    assert session.cache_info().sim_compiles == 1
    assert session.cache_info().sim_reuses == 1
    # The counters ride along in the dict form the CLI serializes.
    payload = session.cache_info()._asdict()
    assert payload["sim_compiles"] == 1
    assert payload["sim_reuses"] == 1


def test_deprecated_flat_aliases_are_gone():
    """The flat ``repro.<function>`` aliases finished their deprecation
    cycle; the functions live in their subpackages only."""
    import repro

    for name in (
        "multi_cluster_scheduling", "evaluate", "optimize_schedule",
        "optimize_resources", "simulate", "legacy_response_time_analysis",
    ):
        assert name not in repro.__all__
        assert not callable(getattr(repro, name, None)), name


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_removed_evaluation_adapters_are_gone(module_name):
    """``RunResult`` is the only evaluation record and ``simulate`` the
    only simulator entry point: the optimizers' ``Evaluation`` copy, its
    ``evaluation_from_run`` adapter and the ``Simulator`` wrapper are
    exported nowhere."""
    module = importlib.import_module(module_name)
    for name in ("Evaluation", "evaluation_from_run", "Simulator"):
        assert name not in getattr(module, "__all__", ()), (module_name, name)
