"""Unit tests for the CLI experiment command."""

from __future__ import annotations

import sys

import pytest

from repro.cli import main


class TestCliExperimentCommand:
    def test_experiment_command_runs_quick_e14(self, capsys, monkeypatch):
        # Make sure the benchmarks package is importable from the repo root.
        monkeypatch.chdir(__file__.rsplit("/tests/", 1)[0])
        monkeypatch.syspath_prepend(__file__.rsplit("/tests/", 1)[0])
        exit_code = main(["experiment", "E14", "--quick"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "T(k) schedule" in captured

    def test_experiment_command_unknown_id(self, monkeypatch):
        monkeypatch.chdir(__file__.rsplit("/tests/", 1)[0])
        monkeypatch.syspath_prepend(__file__.rsplit("/tests/", 1)[0])
        with pytest.raises(KeyError):
            main(["experiment", "E99"])

    def test_experiment_command_workers_and_checkpoint(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(__file__.rsplit("/tests/", 1)[0])
        monkeypatch.syspath_prepend(__file__.rsplit("/tests/", 1)[0])
        exit_code = main(
            [
                "experiment",
                "E18",
                "--quick",
                "--workers",
                "2",
                "--checkpoint-dir",
                str(tmp_path),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "workers=2" in captured
        assert "rows_match" in captured

    def test_experiment_command_rejects_bad_workers(self, monkeypatch):
        monkeypatch.chdir(__file__.rsplit("/tests/", 1)[0])
        monkeypatch.syspath_prepend(__file__.rsplit("/tests/", 1)[0])
        with pytest.raises(SystemExit, match="--workers"):
            main(["experiment", "E18", "--quick", "--workers", "lots"])

    def test_experiment_command_resume_requires_checkpoint_dir(self, monkeypatch):
        monkeypatch.chdir(__file__.rsplit("/tests/", 1)[0])
        monkeypatch.syspath_prepend(__file__.rsplit("/tests/", 1)[0])
        with pytest.raises(SystemExit, match="--resume"):
            main(["experiment", "E18", "--quick", "--resume"])
