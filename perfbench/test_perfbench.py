"""Tests of the benchmark itself, at the manifest's quick sizes.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = run.load_json(run.BENCHMARK_PATH)
WORKLOAD_NAMES = [entry["name"] for entry in BENCHMARK["workloads"]]


def _command(workload: str, trace: int) -> list[str]:
    return [
        sys.executable,
        os.path.join("perfbench", "run.py"),
        "--workload", workload,
        "--seed", "5",
        "--seconds", "1",
        "--trace", str(trace),
        "--quick",
    ]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = subprocess.run(
        _command(workload, trace), cwd=run.ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    listed = BENCHMARK["end_to_end" if trace == 0 else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in listed
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage"]["value"] >= run.MIN_COVERAGE
    assert f"digest {workload} seed 5: " in done.stdout


def _main(monkeypatch, capsys, *args: str) -> tuple[int, dict]:
    # main() pins BLAS threads and drops the cache variables; monkeypatch
    # records them first so the test process gets its environment back.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(variable, "1")
    for variable in ("REPRO_GRAPH_CACHE", "REPRO_RESULT_CACHE"):
        monkeypatch.delenv(variable, raising=False)
    code = run.main([*args, "--seed", "5", "--seconds", "1", "--quick"])
    return code, _result(capsys.readouterr().out)


def test_results_that_change_between_repetitions_fail(monkeypatch, capsys):
    from repro import scenario

    original = scenario.PreparedScenario.execute
    calls = []

    def drifting(self):
        result = original(self)
        calls.append(None)
        result.metrics.messages += len(calls)
        return result

    monkeypatch.setattr(scenario.PreparedScenario, "execute", drifting)
    code, result = _main(monkeypatch, capsys, "--workload", "edge-static")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 0


def test_an_incomplete_run_fails(monkeypatch, capsys):
    from repro import scenario

    original = scenario.PreparedScenario.execute

    def incomplete(self):
        result = original(self)
        result.complete = False
        return result

    monkeypatch.setattr(scenario.PreparedScenario, "execute", incomplete)
    code, result = _main(monkeypatch, capsys, "--workload", "edge-static")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_an_incomplete_replication_fails(monkeypatch, capsys):
    from repro.analysis import experiment

    original = experiment.default_scenario_measure

    def incomplete(result):
        row = original(result)
        if row["lost_exchanges"] > 0:
            row["complete"] = 0.0
        return row

    monkeypatch.setattr(experiment, "default_scenario_measure", incomplete)
    code, result = _main(monkeypatch, capsys, "--workload", "batch-churn-sweep")
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_an_unconverged_solve_is_a_failed_operation(monkeypatch, capsys):
    import dataclasses

    from repro.core import estimation

    original = estimation.fiedler_pair
    flagged = []

    def unconverged_phi_avg(operator, seed=0, *labels, **kwargs):
        result = original(operator, seed, *labels, **kwargs)
        if labels[0] == "phi-avg":
            flagged.append(labels)
            result = dataclasses.replace(result, converged=False)
        return result

    monkeypatch.setattr(estimation, "fiedler_pair", unconverged_phi_avg)
    code, result = _main(monkeypatch, capsys, "--workload", "spectral-profile")
    assert code == 0
    assert result["correct"] is True
    assert 0 < result["failed"] == len(flagged) < result["attempted"]


def test_spans_fire_and_patches_are_restored(monkeypatch, capsys):
    from repro.core import estimation
    from repro.core.spectral import LaplacianOperator

    solve, matvec = estimation.fiedler_pair, LaplacianOperator.__dict__["matvec"]
    code, result = _main(monkeypatch, capsys, "--workload", "spectral-profile", "--trace", "1")
    assert code == 0
    metrics = result["metrics"]
    assert metrics["spectral.fiedler.count"]["value"] == 4
    assert metrics["spectral.matvec.count"]["value"] > metrics["spectral.iterations"]["value"]
    assert metrics["edge.rounds"]["value"] == 0
    assert estimation.fiedler_pair is solve
    assert LaplacianOperator.__dict__["matvec"] is matvec


def test_a_missing_span_fails(monkeypatch, capsys):
    import workloads

    original = workloads.install_spans

    def without_sweep_span(tracer):
        patch = tracer.patch

        def selective(owner, attr, name, counts=None):
            if name != "spectral.sweep":
                patch(owner, attr, name, counts)

        monkeypatch.setattr(tracer, "patch", selective)
        original(tracer)

    monkeypatch.setattr(workloads, "install_spans", without_sweep_span)
    code, result = _main(monkeypatch, capsys, "--workload", "spectral-profile", "--trace", "1")
    assert code == 1
    assert result["correct"] is False
    assert result["metrics"]["spectral.sweep_s"]["value"] == 0


def test_without_the_program_the_command_fails_silently(tmp_path):
    shutil.copy(run.BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        _command("edge-static", 0), cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 2
    assert '"correct"' not in done.stdout
