"""Smoke runs of the analysis scripts at tiny sizes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def csv_header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


def test_weight_traces(tmp_path):
    out = tmp_path / "traces.csv"
    proc = run_script(
        "weight_traces.py", "--scenario", "sine", "--repetitions", "2", "--train-n", "60",
        "--iterations", "5", "--noise-level", "0.2", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert csv_header(out)[:5] == ["iteration", "ada_clean", "ada_mislabeled", "cb_clean", "cb_mislabeled"]
    assert "wrote" in proc.stdout


def test_confidence_table(tmp_path):
    out = tmp_path / "confidence.csv"
    proc = run_script(
        "confidence_table.py", "--noise-levels", "0.2", "--repetitions", "2", "--train-n", "60",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert csv_header(out) == [
        "estimator", "form", "noise_level", "clean_mean", "clean_std", "mislabeled_mean", "mislabeled_std",
    ]
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 4  # header plus one row per estimator


@pytest.mark.parametrize("level, reps", [("0", "2"), ("0.2", "1")])
def test_confidence_table_without_a_spread(tmp_path, level, reps):
    # noise 0 leaves no mislabeled rows; one repetition has no std
    out = tmp_path / "confidence.csv"
    proc = run_script(
        "confidence_table.py", "--noise-levels", level, "--repetitions", reps, "--train-n", "60",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "n/a" in proc.stdout
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        assert row["mislabeled_std"] == ""
        assert float(row["clean_mean"]) > 0.0
        assert (row["mislabeled_mean"] == "") == (level == "0")
        assert (row["clean_std"] == "") == (reps == "1")
