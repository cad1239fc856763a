"""Smoke runs of the analysis scripts at tiny sizes."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv, **environ):
    env = {**os.environ, **environ}
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


@pytest.mark.parametrize("name, flags, message", [
    ("weight_traces.py", ["--repetitions", "0"], "need at least 1 repetition, got 0"),
    ("weight_traces.py", ["--noise-level", "0.7"], "noise levels must lie in [0, 0.5), got 0.7"),
    ("weight_traces.py", ["--iterations", "0"], "max_iterations"),
    ("confidence_table.py", ["--repetitions", "0"], "need at least 1 repetition, got 0"),
    ("confidence_table.py", ["--noise-levels", "0.2,abc"],
     "cannot parse --noise-levels '0.2,abc', expected comma-separated reals"),
    ("confidence_table.py", ["--noise-levels", "0.2,0.2"], "noise levels must not repeat"),
    ("weight_traces.py", ["--conf-cut", "5"], "conf_cut"),
    ("weight_traces.py", ["--train-n", "3"], "train_n must exceed k=5 when a method needs confidence, got 3"),
    ("confidence_table.py", ["--train-n", "5"], "train_n must exceed k=5 when a method needs confidence, got 5"),
])
def test_bad_settings_fail_in_one_line(tmp_path, name, flags, message):
    # the settings a script shares with the grid are checked by ExperimentConfig
    out = tmp_path / "out.csv"
    proc = run_script(name, "--train-n", "40", *flags, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr
    assert proc.stdout == "" and not out.exists()


@pytest.mark.parametrize("name, flags", [
    ("weight_traces.py", ["--iterations", "3"]),
    ("confidence_table.py", ["--noise-levels", "0.2"]),
])
def test_unwritable_out_fails_in_one_line(tmp_path, name, flags):
    # the script opens --out before its first repetition, so it fails before printing any row
    out = tmp_path / "missing" / "out.csv"
    proc = run_script(name, "--train-n", "40", "--repetitions", "1", *flags, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    # the message names the path given, not the temporary written in its place
    assert str(out) in proc.stderr and ".tmp" not in proc.stderr


@pytest.mark.parametrize("name, flags", [
    ("weight_traces.py", ["--iterations", "3"]),
    ("confidence_table.py", ["--noise-levels", "0.2"]),
])
def test_log_level_from_environment(tmp_path, name, flags):
    # the scripts log at CBBOOST_LOG's level and reject an unknown one, as the commands do
    out = tmp_path / "out.csv"
    argv = [name, "--train-n", "60", "--repetitions", "1", *flags, "--out", str(out)]
    proc = run_script(*argv, CBBOOST_LOG="DEBUG")
    assert proc.returncode == 0, proc.stderr
    assert "\nDEBUG cbboost.confidence: " in "\n" + proc.stderr
    out.unlink()
    proc = run_script(*argv, CBBOOST_LOG="bogus")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: CBBOOST_LOG='bogus'") and proc.stderr.count("\n") == 1
    assert not out.exists()


def load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, flags, missing_out", [
    ("weight_traces.py", ["--iterations", "3"], True),
    ("confidence_table.py", ["--noise-levels", "0.2"], True),
    ("weight_traces.py", ["--iterations", "3", "--conf-cut", "5"], False),
])
def test_bad_out_or_cut_fails_before_any_draw(tmp_path, monkeypatch, capsys, name, flags, missing_out):
    # every repetition starts with a draw, so no draw means no repetition ran
    script = load_script(name)
    real, draws = script.generate, []

    def counting(spec):
        draws.append(spec)
        return real(spec)

    monkeypatch.setattr(script, "generate", counting)
    out = tmp_path / "missing" / "out.csv" if missing_out else tmp_path / "out.csv"
    monkeypatch.setattr(sys, "argv", [name, "--train-n", "40", "--repetitions", "1", *flags, "--out", str(out)])
    assert script.main() == 2
    assert draws == []
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name, flags", [
    ("weight_traces.py", ["--iterations", "3"]),
    ("confidence_table.py", ["--noise-levels", "0.2"]),
])
def test_failed_run_keeps_an_existing_out(tmp_path, monkeypatch, capsys, name, flags):
    # the run fails after --out is opened; a later run that succeeds replaces the file
    script = load_script(name)
    real = script.estimate_confidence

    def failing(*args, **kwargs):
        raise ValueError("confidence step broke")

    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier run\n")
    monkeypatch.setattr(sys, "argv", [name, "--train-n", "40", "--repetitions", "1", *flags, "--out", str(out)])
    monkeypatch.setattr(script, "estimate_confidence", failing)
    assert script.main() == 2
    assert capsys.readouterr().err == "error: confidence step broke\n"
    assert out.read_bytes() == b"earlier run\n"
    assert os.listdir(tmp_path) == ["out.csv"]
    monkeypatch.setattr(script, "estimate_confidence", real)
    assert script.main() == 0
    assert csv_header(out)[0] in ("iteration", "estimator")
    assert os.listdir(tmp_path) == ["out.csv"]
