"""Unit tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import os

import pytest

from repro import cli
from repro.cli import build_graph, main


class TestBuilders:
    def test_build_graph_families(self):
        for family in ["clique", "expander", "grid", "erdos-renyi", "barabasi-albert"]:
            graph = build_graph(family, 20, "uniform", seed=1)
            assert graph.num_nodes >= 16
            assert graph.is_connected()

    def test_build_graph_latency_models(self):
        unit = build_graph("clique", 8, "unit", seed=0)
        assert unit.max_latency() == 1
        bimodal = build_graph("clique", 8, "bimodal", seed=0)
        assert bimodal.max_latency() in {1, 64}

    def test_build_graph_unknown_family(self):
        with pytest.raises(SystemExit):
            build_graph("torus", 8, "unit", seed=0)

    def test_build_graph_unknown_latency(self):
        with pytest.raises(SystemExit):
            build_graph("clique", 8, "warp", seed=0)

    def test_build_graph_pins_slow_bridge_latency(self):
        # Same rule as the scenario layer: slow-bridge latencies are fixed
        # by construction, so claiming another model is an error, not a
        # silent no-op (`conductance --graph slow-bridge` hits this path).
        with pytest.raises(SystemExit, match="slow-bridge"):
            build_graph("slow-bridge", 16, "bimodal", seed=0)
        assert build_graph("slow-bridge", 16, "unit", seed=0).is_connected()


class TestCommands:
    def test_run_command(self, capsys):
        exit_code = main(["run", "--algorithm", "push-pull", "--graph", "clique", "--nodes", "12", "--seed", "1"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "push-pull" in captured
        assert "time" in captured

    def test_run_flooding_command(self, capsys):
        exit_code = main(["run", "--algorithm", "flooding", "--graph", "grid", "--nodes", "16", "--latency", "unit"])
        assert exit_code == 0
        assert "flooding" in capsys.readouterr().out

    def test_run_command_with_dynamics(self, capsys):
        exit_code = main(
            [
                "run", "--algorithm", "push-pull", "--graph", "expander", "--nodes", "24",
                "--seed", "3", "--dynamics", "markov-churn", "--churn-rate", "0.05",
                "--dynamics-horizon", "200",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "markov-churn" in captured
        assert "lost" in captured

    def test_run_command_rejects_dynamics_for_static_algorithm(self):
        with pytest.raises(SystemExit, match="does not support topology dynamics"):
            main(
                ["run", "--algorithm", "spanner", "--graph", "clique", "--nodes", "10",
                 "--dynamics", "latency-drift"]
            )

    def test_run_command_with_reps_batches_replications(self, capsys):
        exit_code = main(
            ["run", "--algorithm", "push-pull", "--graph", "clique", "--nodes", "12",
             "--seed", "1", "--reps", "6"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "engine     : batch" in captured
        assert "reps       : 6" in captured
        assert "time_min" not in captured  # aggregate line is inline, not raw keys
        assert "stdev" in captured

    def test_run_scenario_file_accepts_reps_override(self, capsys, tmp_path):
        from repro.scenario import dump_scenario, load_named_scenario

        path = tmp_path / "baseline.json"
        dump_scenario(load_named_scenario("baseline-pushpull-er64").patched({"graph.n": 24}), str(path))
        exit_code = main(["run", "--scenario", str(path), "--reps", "4"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "reps       : 4" in captured
        assert "engine     : batch" in captured

    def test_run_command_rejects_reference_engine_with_reps(self):
        with pytest.raises(SystemExit, match="numpy sampling mode"):
            main(
                ["run", "--algorithm", "push-pull", "--graph", "clique", "--nodes", "10",
                 "--engine", "reference", "--reps", "4"]
            )

    def test_run_command_rejects_edge_engine_with_reps(self):
        with pytest.raises(SystemExit, match="no replication axis"):
            main(
                ["run", "--algorithm", "push-pull", "--graph", "clique", "--nodes", "10",
                 "--engine", "edge", "--reps", "4"]
            )

    def test_run_command_edge_memory_guard_exits_cleanly(self, monkeypatch):
        from repro.simulation import edge_engine

        monkeypatch.setattr(
            edge_engine.EdgeEngine,
            "_estimate_bytes",
            lambda self, words=1: {
                "knowledge": 1 << 40, "csr": 0, "pipeline": 0, "total": 1 << 40
            },
        )
        with pytest.raises(SystemExit, match="edge backend refuses"):
            main(
                ["run", "--algorithm", "push-pull", "--graph", "erdos-renyi",
                 "--nodes", "16", "--seed", "0", "--engine", "edge"]
            )

    def test_conductance_command(self, capsys):
        exit_code = main(["conductance", "--graph", "erdos-renyi", "--nodes", "10", "--seed", "2"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "phi*" in captured
        assert "Theorem 5 holds  = True" in captured

    def test_conductance_spectral_marks_an_unconverged_interval(self, capsys, monkeypatch):
        args = ["conductance", "--graph", "erdos-renyi", "--nodes", "600", "--latency", "unit",
                "--seed", "1", "--spectral"]
        assert main(args) == 0
        assert "uncertified" not in capsys.readouterr().out
        solve = cli.spectral_conductance
        monkeypatch.setattr(
            cli, "spectral_conductance", lambda *a, **k: solve(*a, **k, max_iters=1)
        )
        assert main(args) == 0
        captured = capsys.readouterr().out
        assert "cheeger interval = [0.000000, " in captured
        assert "uncertified (solve did not converge)" in captured
        assert "converged=False" in captured

    def test_conductance_ell_without_spectral_errors(self, capsys):
        exit_code = main(["conductance", "--nodes", "10", "--ell", "4"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--spectral" in captured.err

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestScenarioValidateErrors:
    """`scenario validate` must fail loudly, naming the file and the field."""

    def test_malformed_json_exits_nonzero_and_names_file(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{this is not json", encoding="utf-8")
        exit_code = main(["scenario", "validate", str(broken)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert str(broken) in captured.err
        assert "not valid JSON" in captured.err

    def test_invalid_field_exits_nonzero_and_names_field(self, capsys, tmp_path):
        from repro.scenario import load_named_scenario

        bad = tmp_path / "bad-family.json"
        text = load_named_scenario("baseline-pushpull-er64").to_json()
        bad.write_text(text.replace('"erdos-renyi"', '"torus"'), encoding="utf-8")
        exit_code = main(["scenario", "validate", str(bad)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert str(bad) in captured.err
        assert "graph.family" in captured.err

    def test_valid_files_still_pass_alongside_invalid_ones(self, capsys, tmp_path):
        from repro.scenario import dump_scenario, load_named_scenario

        good = tmp_path / "good.json"
        dump_scenario(load_named_scenario("baseline-pushpull-er64"), str(good))
        broken = tmp_path / "broken.json"
        broken.write_text("[]", encoding="utf-8")
        exit_code = main(["scenario", "validate", str(good), str(broken)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert f"{good}: ok" in captured.out
        assert str(broken) in captured.err

    def test_bad_family_param_names_parameter_on_stderr(self, capsys, tmp_path):
        from repro.scenario import load_named_scenario

        bad = tmp_path / "bad-k.json"
        text = load_named_scenario("sir-pushpull-ws96").to_json()
        bad.write_text(text.replace('"k": 8', '"k": 7'), encoding="utf-8")
        exit_code = main(["scenario", "validate", str(bad)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "INVALID" in captured.err
        assert "graph.params.k" in captured.err
        assert "even integer" in captured.err

    def test_unknown_family_param_is_invalid(self, capsys, tmp_path):
        from repro.scenario import load_named_scenario

        bad = tmp_path / "bad-param.json"
        text = load_named_scenario("sir-pushpull-kron64").to_json()
        assert '"params": {}' in text  # the bundled spec rides on defaults
        bad.write_text(text.replace('"params": {}', '"params": {"fan_out": 8}'), encoding="utf-8")
        exit_code = main(["scenario", "validate", str(bad)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "graph.params.fan_out" in captured.err
        assert "kronecker" in captured.err

    def test_bad_forget_after_is_invalid(self, capsys, tmp_path):
        from repro.scenario import load_named_scenario

        bad = tmp_path / "bad-forget.json"
        text = load_named_scenario("sir-pushpull-powerlaw96").to_json()
        bad.write_text(text.replace('"forget_after": 16', '"forget_after": 0'), encoding="utf-8")
        exit_code = main(["scenario", "validate", str(bad)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "forget_after" in captured.err

    def test_bundled_sir_scenarios_validate_clean(self, capsys):
        from repro.scenario import scenario_library_dir

        library = scenario_library_dir()
        paths = [
            os.path.join(library, name)
            for name in (
                "sir-pushpull-ws96.json",
                "sir-pushpull-powerlaw96.json",
                "sir-pushpull-kron64.json",
            )
        ]
        exit_code = main(["scenario", "validate", *paths])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out.count(": ok") == 3


class TestCalibrateCommand:
    def _spec_path(self, tmp_path):
        from repro.scenario import (
            DynamicsSpec,
            FaultSpec,
            GraphSpec,
            ScenarioSpec,
            dump_scenario,
        )

        spec = ScenarioSpec(
            name="cli-calib",
            algorithm="push-pull",
            task="one-to-all",
            graph=GraphSpec(family="erdos-renyi", n=24, latency="unit"),
            seed=3,
            max_rounds=64,
            dynamics=(DynamicsSpec(kind="markov-churn", rate=0.06, horizon=64),),
            faults=FaultSpec(crash_fraction=0.2, crash_round=2),
        ).validate()
        path = tmp_path / "cli-calib.json"
        dump_scenario(spec, str(path))
        return str(path)

    def _fast_args(self):
        return [
            "--particles", "6", "--generations", "2", "--reps", "4",
            "--max-attempts", "6", "--seed", "4",
        ]

    def test_self_test_fit_prints_posterior_table(self, capsys, tmp_path):
        exit_code = main(
            [
                "calibrate", "--scenario", self._spec_path(tmp_path), "--self-test",
                "--prior", "faults.crash_fraction:0:0.5",
                *self._fast_args(),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "posterior" in captured
        assert "faults.crash_fraction" in captured
        assert "gen 0: epsilon=inf" in captured
        assert "in90" in captured

    def test_observed_json_curve_file(self, capsys, tmp_path):
        import json

        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps([1, 4, 9, 16, 22, 24, 24]), encoding="utf-8")
        exit_code = main(
            [
                "calibrate", "--scenario", self._spec_path(tmp_path),
                "--observed", str(curve),
                "--prior", "dynamics.0.rate:0:0.2",
                *self._fast_args(),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "dynamics.0.rate" in captured
        # No ground truth for file-observed fits: no self-test verdict.
        assert "in90" not in captured

    def test_observed_csv_curve_file(self, capsys, tmp_path):
        curve = tmp_path / "curve.csv"
        curve.write_text("1, 4, 9\n16 22\n24  # plateau\n", encoding="utf-8")
        exit_code = main(
            [
                "calibrate", "--scenario", self._spec_path(tmp_path),
                "--observed", str(curve),
                "--prior", "faults.crash_fraction:0:0.5",
                *self._fast_args(),
            ]
        )
        assert exit_code == 0

    def test_requires_target_and_rejects_both(self, tmp_path):
        path = self._spec_path(tmp_path)
        with pytest.raises(SystemExit, match="needs a target"):
            main(["calibrate", "--scenario", path, "--prior", "graph.n:8:64:int"])
        curve = tmp_path / "c.json"
        curve.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(SystemExit, match="drop --observed"):
            main(
                [
                    "calibrate", "--scenario", path, "--self-test",
                    "--observed", str(curve), "--prior", "graph.n:8:64:int",
                ]
            )

    def test_requires_at_least_one_prior(self, tmp_path):
        with pytest.raises(SystemExit, match="--prior"):
            main(["calibrate", "--scenario", self._spec_path(tmp_path), "--self-test"])

    def test_malformed_prior_flags_exit_with_message(self, tmp_path):
        path = self._spec_path(tmp_path)
        with pytest.raises(SystemExit, match="PATH:LOW:HIGH"):
            main(["calibrate", "--scenario", path, "--self-test", "--prior", "graph.n"])
        with pytest.raises(SystemExit, match="must be numbers"):
            main(["calibrate", "--scenario", path, "--self-test", "--prior", "graph.n:a:b"])
        with pytest.raises(SystemExit, match="unknown modifier"):
            main(["calibrate", "--scenario", path, "--self-test", "--prior", "graph.n:1:2:exp"])

    def test_unknown_prior_path_exits_naming_choices(self, tmp_path):
        with pytest.raises(SystemExit, match="choose from"):
            main(
                [
                    "calibrate", "--scenario", self._spec_path(tmp_path), "--self-test",
                    "--prior", "graph.family:0:1", *self._fast_args(),
                ]
            )

    def test_library_scenario_name_resolves(self, capsys):
        exit_code = main(
            [
                "calibrate", "--scenario", "calib-pushpull-er48", "--self-test",
                "--prior", "faults.crash_fraction:0:0.5",
                "--particles", "4", "--generations", "1", "--reps", "3",
                "--max-attempts", "4", "--seed", "2",
            ]
        )
        assert exit_code == 0
        assert "calib-pushpull-er48" not in capsys.readouterr().err
