"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.io import save_system, config_to_dict
from repro.synth import fig4_configuration, fig4_system


@pytest.fixture()
def system_file(tmp_path):
    path = tmp_path / "system.json"
    save_system(fig4_system(), path)
    return path


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(fig4_configuration("b"))))
    return path


class TestGenerate:
    def test_generates_system_file(self, tmp_path, capsys):
        out = tmp_path / "workload.json"
        code = main([
            "generate", str(out),
            "--nodes", "2", "--processes-per-node", "10",
            "--gateway-messages", "6", "--seed", "3",
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["format"] == "repro-system-v1"
        assert "6 via the gateway" in capsys.readouterr().out


class TestTopo:
    @pytest.fixture()
    def multi_system_file(self, tmp_path):
        out = tmp_path / "multi.json"
        code = main([
            "generate", str(out),
            "--clusters", "3", "--gateways", "3", "--seed", "7",
        ])
        assert code == 0
        return out

    def test_show_canonical(self, system_file, capsys):
        code = main(["topo", str(system_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "canonical 2-cluster" in out
        assert "gateway NG" in out

    def test_show_multi_cluster(self, multi_system_file, capsys):
        code = main(["topo", str(multi_system_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "general, 3 clusters, 3 gateway(s)" in out
        assert "NG3" in out

    def test_json_format(self, multi_system_file, capsys):
        code = main(["topo", str(multi_system_file), "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["canonical"] is False
        assert data["engine_supported"] is True
        assert len(data["clusters"]) == 3
        assert len(data["gateways"]) == 3
        assert data["crossing_messages"]

    def test_validate_clean_exits_zero(self, multi_system_file):
        assert main(["topo", str(multi_system_file), "--validate"]) == 0

    def test_validate_bad_route_exits_one(
        self, multi_system_file, tmp_path, capsys
    ):
        from repro.io.serialize import load_system
        from repro.conformance import conformance_configuration

        system = load_system(multi_system_file)
        config = conformance_configuration(system, 10)
        msg = next(
            m.name for m in system.app.all_messages()
            if system.clusters_of_message(m.name)[0]
            != system.clusters_of_message(m.name)[1]
        )
        config.routes[msg] = ("NG2", "NG1")  # wrong clusters / not simple
        bad = tmp_path / "bad_config.json"
        bad.write_text(json.dumps(config_to_dict(config)))
        code = main([
            "topo", str(multi_system_file),
            "--config", str(bad), "--validate",
        ])
        assert code == 1
        assert "BAD ROUTE" in capsys.readouterr().out


class TestAnalyze:
    def test_schedulable_config_returns_zero(self, system_file, config_file, capsys):
        code = main(["analyze", str(system_file), str(config_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "schedulable" in out

    def test_unschedulable_config_returns_one(self, system_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config_to_dict(fig4_configuration("a"))))
        code = main(["analyze", str(system_file), str(bad), "--timing"])
        assert code == 1
        out = capsys.readouterr().out
        assert "MISSED" in out


class TestSynthesize:
    def test_writes_configuration(self, system_file, tmp_path, capsys):
        out = tmp_path / "psi.json"
        code = main(["synthesize", str(system_file), str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["format"] == "repro-config-v1"
        assert "schedulable" in capsys.readouterr().out

    def test_minimize_buffers_flag(self, system_file, tmp_path):
        out = tmp_path / "psi.json"
        code = main([
            "synthesize", str(system_file), str(out), "--minimize-buffers"
        ])
        assert code == 0


class TestSimulate:
    def test_simulate_with_explicit_config(self, system_file, config_file, capsys):
        code = main([
            "simulate", str(system_file), "--config", str(config_file),
            "--periods", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out

    def test_simulate_synthesizes_by_default(self, system_file, capsys):
        code = main(["simulate", str(system_file), "--periods", "2"])
        assert code == 0

    def test_stats_reports_engine_and_session_counters(
        self, system_file, config_file, capsys
    ):
        code = main([
            "simulate", str(system_file), "--config", str(config_file),
            "--periods", "2", "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulation statistics:" in out
        assert "engine: kernel" in out
        assert "events/s" in out
        assert "sim kernel: 1 template compiles" in out

    @pytest.mark.parametrize("command", ["simulate", "conform"])
    def test_engine_flag_is_gone(self, system_file, command, capsys):
        argv = [command, "--engine", "legacy"]
        if command == "simulate":
            argv.insert(1, str(system_file))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse usage error
        assert "--engine" in capsys.readouterr().err

    def test_store_shared_with_session_simulate(
        self, system_file, config_file, tmp_path, capsys
    ):
        """One store address per simulation: a store warmed through
        ``Session.simulate`` serves ``repro simulate --store``."""
        from repro.api import Session
        from repro.io.serialize import config_from_dict

        store = tmp_path / "store"
        session = Session.from_file(system_file, store=store)
        config = config_from_dict(json.loads(config_file.read_text()))
        session.simulate(config, periods=2)
        assert session.cache_info().store_writes >= 1
        code = main([
            "simulate", str(system_file), "--config", str(config_file),
            "--periods", "2", "--store", str(store),
            "--stats", "--format", "json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stats"]["counters"]["backend_calls"] == 0
        assert data["stats"]["counters"]["store_hits"] >= 1


class TestJsonFormat:
    def test_analyze_json_emits_run_result(self, system_file, config_file, capsys):
        code = main([
            "analyze", str(system_file), str(config_file), "--format", "json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["format"] == "repro-runresult-v1"
        assert data["backend"] == "analysis"
        assert data["schedulable"] is True
        assert data["timing"]
        assert data["buffers"]["out_can"] >= 0
        assert data["config"]["format"] == "repro-config-v1"

    def test_analyze_json_unschedulable_exit_code(self, system_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config_to_dict(fig4_configuration("a"))))
        code = main([
            "analyze", str(system_file), str(bad), "--format", "json",
        ])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["schedulable"] is False

    def test_sensitivity_json_carries_margins(self, system_file, config_file, capsys):
        code = main([
            "sensitivity", str(system_file), str(config_file),
            "--upper", "3", "--format", "json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "wcet_margin" in data["metadata"]
        assert data["metadata"]["wcet_margin"]["factor"] >= 1.0
        assert data["metadata"]["critical_activities"]


class TestSensitivity:
    def test_sensitivity_on_schedulable_config(self, system_file, config_file, capsys):
        code = main([
            "sensitivity", str(system_file), str(config_file), "--upper", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "WCET scaling margin" in out

    def test_sensitivity_on_unschedulable_config(self, system_file, tmp_path, capsys):
        import json as _json
        bad = tmp_path / "bad.json"
        bad.write_text(_json.dumps(config_to_dict(fig4_configuration("a"))))
        code = main(["sensitivity", str(system_file), str(bad)])
        assert code == 1


class TestConform:
    def test_clean_campaign_exits_zero(self, capsys):
        code = main(["conform", "--campaign", "6", "--seed0", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dominance contract: CLEAN" in out

    def test_json_report(self, capsys):
        code = main([
            "conform", "--campaign", "4", "--seed0", "10",
            "--format", "json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["campaign"] == 4
        assert data["clean"] is True
        assert len(data["outcomes"]) == 4
        assert data["profile"]["seeds"] == 4
        assert data["wall_s"] > 0

    def test_profile_flag_prints_phase_timings(self, capsys):
        code = main([
            "conform", "--campaign", "4", "--seed0", "0", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign profile:" in out
        assert "per-phase: generate" in out
        assert "events/s" in out


class TestStatsJson:
    """``--stats --format json``: machine-readable cache/profile
    counters for analyze, simulate and conform (ISSUE satellite)."""

    def test_analyze_stats_json_carries_session_counters(
        self, system_file, config_file, capsys
    ):
        code = main([
            "analyze", str(system_file), str(config_file),
            "--stats", "--format", "json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "session_stats" not in data
        stats = data["stats"]["counters"]
        assert stats["backend_calls"] == 1
        assert {"hits", "misses", "kernel_compiles", "store_hits",
                "store_writes", "store_write_errors"} <= set(stats)

    def test_simulate_stats_json(self, system_file, config_file, capsys):
        code = main([
            "simulate", str(system_file), "--config", str(config_file),
            "--periods", "2", "--stats", "--format", "json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["backend"] == "simulation"
        assert data["metadata"]["sim"]["engine"] == "kernel"
        assert data["metadata"]["sim"]["events"] > 0
        assert data["stats"]["counters"]["sim_compiles"] == 1

    def test_simulate_json_without_stats(
        self, system_file, config_file, capsys
    ):
        code = main([
            "simulate", str(system_file), "--config", str(config_file),
            "--periods", "2", "--format", "json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "stats" not in data
        assert data["metadata"]["violations"] == 0

    def test_conform_stats_json_carries_profile(self, capsys):
        code = main([
            "conform", "--campaign", "3", "--seed0", "0",
            "--stats", "--format", "json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["profile"]["seeds"] == 3
        assert "analyze_s" in data["profile"]

    def test_conform_stats_text_prints_profile(self, capsys):
        code = main(["conform", "--campaign", "2", "--stats"])
        assert code == 0
        assert "campaign profile:" in capsys.readouterr().out

    def test_analyze_timing_renders_on_warm_store(
        self, system_file, config_file, tmp_path, capsys
    ):
        """--timing must work on a store-served result (which has no
        rich analysis payload) by rendering the serialized rows."""
        store = str(tmp_path / "store")
        assert main([
            "analyze", str(system_file), str(config_file),
            "--store", store, "--timing",
        ]) == 0
        cold = capsys.readouterr().out
        assert main([
            "analyze", str(system_file), str(config_file),
            "--store", store, "--timing",
        ]) == 0
        warm = capsys.readouterr().out
        # Same table, same numbers — one from ResponseTimes, one from
        # the flattened rows.
        assert warm == cold

    def test_analyze_store_tier_shared_across_invocations(
        self, system_file, config_file, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        assert main([
            "analyze", str(system_file), str(config_file),
            "--store", store, "--stats", "--format", "json",
        ]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["stats"]["counters"]["store_writes"] == 1
        assert main([
            "analyze", str(system_file), str(config_file),
            "--store", store, "--stats", "--format", "json",
        ]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["stats"]["format"] == "repro-stats-v1"
        assert warm["stats"]["counters"]["store_hits"] == 1
        assert warm["stats"]["counters"]["backend_calls"] == 0
        # Bit-identical record across processes-worth of sessions (the
        # stats carry wall-times and are stripped).
        for payload in (cold, warm):
            payload.pop("stats")
        assert cold == warm


class TestExplore:
    @pytest.fixture()
    def sweep_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "name": "cli-demo",
            "workload": {
                "nodes": 2, "processes_per_node": 6,
                "gateway_messages": 2, "graph_size_range": [[3, 5]],
                "seed": [0, 1],
            },
            "methods": ["SF", "analysis"],
            "group_by": ["seed"],
        }))
        return path

    def test_text_report(self, sweep_file, tmp_path, capsys):
        code = main([
            "explore", "--sweep", str(sweep_file),
            "--store", str(tmp_path / "store"), "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep 'cli-demo': 4 cells" in out
        assert "Pareto front [seed=0]" in out
        assert "4 computed" in out

    def test_json_resume_skips_stored_cells(
        self, sweep_file, tmp_path, capsys
    ):
        store = tmp_path / "store"
        assert main([
            "explore", "--sweep", str(sweep_file), "--store", str(store),
            "--format", "json",
        ]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main([
            "explore", "--sweep", str(sweep_file), "--store", str(store),
            "--resume", "--format", "json",
        ]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["profile"]["store_hits"] == len(cold["cells"]) == 4
        assert warm["profile"]["computed"] == 0
        # The deterministic sections are bit-identical cold vs warm.
        for section in ("cells", "fronts", "counts"):
            assert cold[section] == warm[section]

    def test_no_resume_recomputes(self, sweep_file, tmp_path, capsys):
        store = tmp_path / "store"
        main([
            "explore", "--sweep", str(sweep_file), "--store", str(store),
            "--format", "json",
        ])
        capsys.readouterr()
        main([
            "explore", "--sweep", str(sweep_file), "--store", str(store),
            "--no-resume", "--format", "json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert data["profile"]["store_hits"] == 0
        assert data["profile"]["computed"] == 4


class TestAnalyzeValidate:
    def test_validate_renders_causal_context_in_json(
        self, system_file, config_file, capsys
    ):
        code = main([
            "analyze", str(system_file), str(config_file),
            "--validate", "--format", "json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["validation"]["violations"] == 0
        assert data["validation"]["violation_details"] == []
        assert data["validation"]["bound_excess"] <= 1e-6


class TestStoreCommand:
    def _seed_flat_store(self, root, count=5):
        """A PR-5 style flat store with a few records, written as raw
        segment bytes (the library writes only the sharded layout)."""
        from repro.store import SCHEMA_VERSION, STORE_FORMAT, content_key

        (root / "segments").mkdir(parents=True)
        (root / "store.json").write_text(json.dumps(
            {"format": STORE_FORMAT, "version": SCHEMA_VERSION}
        ))
        with open(root / "segments" / "segment-1-seed.jsonl", "w") as out:
            for i in range(count):
                payload = {"value": i}
                out.write(json.dumps({
                    "key": f"key-{i}", "kind": "runresult",
                    "payload": payload, "sha": content_key(payload)[:16],
                    "v": SCHEMA_VERSION,
                }) + "\n")

    def test_stats_reports_layout_and_shards(self, tmp_path, capsys):
        self._seed_flat_store(tmp_path / "store")
        assert main([
            "store", "stats", str(tmp_path / "store"), "--format", "json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["layout"] == "sharded"  # the open migrated it
        assert data["entries"] == 5

    def test_foreign_store_is_one_error_line(self, tmp_path, capsys):
        root = tmp_path / "store"
        root.mkdir()
        (root / "store.json").write_text(json.dumps({"format": "other"}))
        assert main(["store", "stats", str(root)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: ")
        assert "is not a repro-store-v1 store" in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_migrate_rewrites_into_shards(self, tmp_path, capsys):
        from repro.store import ResultStore

        root = tmp_path / "store"
        self._seed_flat_store(root)
        assert main(["store", "migrate", str(root)]) == 0
        assert "migrated 5 records" in capsys.readouterr().out
        with ResultStore(root) as store:
            assert store.layout == "sharded"
            assert store.get("key-3", refresh=False)["value"] == 3
        # Idempotent: a second migrate is a no-op, not an error.
        assert main(["store", "migrate", str(root)]) == 0
        assert "already sharded" in capsys.readouterr().out

    def test_compact_folds_segments(self, tmp_path, capsys):
        from repro.store import ResultStore

        root = tmp_path / "store"
        for _ in range(3):  # several writers -> several segments
            with ResultStore(root) as store:
                for i in range(4):
                    store.put(f"key-{i}", {"value": i})
        assert main([
            "store", "compact", str(root), "--max-entries", "2",
        ]) == 0
        assert "compacted to 2 records" in capsys.readouterr().out
