"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main


@pytest.fixture()
def sqlite_file(tmp_path):
    path = tmp_path / "demo.sqlite"
    connection = sqlite3.connect(path)
    connection.executescript(
        """
        CREATE TABLE city (
            city_id INTEGER PRIMARY KEY,
            city_name VARCHAR(40),
            country VARCHAR(40),
            population INTEGER
        );
        INSERT INTO city VALUES (1, 'Paris', 'France', 21);
        INSERT INTO city VALUES (2, 'Lyon', 'France', 5);
        INSERT INTO city VALUES (3, 'Rome', 'Italy', 28);
        """
    )
    connection.commit()
    connection.close()
    return path


class TestCorpusCommand:
    def test_generates_and_reloads(self, tmp_path, capsys):
        directory = tmp_path / "corpus"
        code = main([
            "corpus", str(directory),
            "--train-per-domain", "5", "--dev-per-domain", "3",
        ])
        assert code == 0
        assert (directory / "train.json").exists()
        assert (directory / "tables.json").exists()
        out = capsys.readouterr().out
        assert "train=" in out


class TestInspectCommand:
    def test_shows_hints_and_candidates(self, sqlite_file, capsys):
        code = main([
            "inspect", "How many cities in France have a population above 10?",
            "--database", str(sqlite_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "France" in out
        assert "AGGREGATION" in out


class TestTranslateCommand:
    def test_missing_model_errors(self, sqlite_file, tmp_path):
        with pytest.raises(Exception):
            main([
                "translate", "How many cities are there?",
                "--database", str(sqlite_file),
                "--model", str(tmp_path / "nonexistent"),
            ])


class TestTrainCommand:
    def test_end_to_end_tiny(self, tmp_path, capsys):
        directory = tmp_path / "corpus"
        main([
            "corpus", str(directory),
            "--train-per-domain", "4", "--dev-per-domain", "2",
        ])
        output = tmp_path / "model"
        code = main([
            "train", str(directory),
            "--output", str(output),
            "--epochs", "1", "--dim", "32", "--mode", "light",
        ])
        assert code == 0
        assert (output / "weights.npz").exists()
        out = capsys.readouterr().out
        assert "final loss" in out


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_defaults_openblas_threads(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = "import os, repro; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == expected, out.stderr
