"""End-to-end command pipeline, manifests, and error conventions."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cbboost
from dataclasses import fields

from cbboost import cli

from cbboost.boost import (
    LEARNER_MODES,
    BoostConfig,
    ensemble_to_json,
    load_ensemble,
    train_adaboost,
    train_cb_adaboost,
)
from cbboost.cli import build_parser, main
from cbboost.confidence import CONFIDENCE_METHODS, FORMS, read_gamma_csv
from cbboost.dataset import Dataset, load_csv, save_csv
from cbboost.harness import METHODS, ExperimentConfig, fit_method
from cbboost.synth import SCENARIOS


def run_ok(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    assert rc == 0, out.err
    return out.out


def run_fail(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    assert rc == 2
    return out.err


@pytest.fixture()
def pipeline(tmp_path, capsys):
    """synth -> noise -> confidence artifacts shared by several tests."""
    raw = tmp_path / "raw.csv"
    noisy = tmp_path / "noisy.csv"
    gamma = tmp_path / "gamma.csv"
    run_ok(capsys, "synth", "--scenario", "normal", "--n", "120", "--seed", "3", "--out", str(raw))
    run_ok(
        capsys,
        "noise", "--in", str(raw), "--out", str(noisy),
        "--noise-level", "0.2", "--seed", "4",
        "--mask-out", str(tmp_path / "mask.csv"),
    )
    run_ok(capsys, "confidence", "--in", str(noisy), "--out", str(gamma))
    return tmp_path


class TestPipeline:
    def test_stage_outputs(self, pipeline):
        ds = load_csv(pipeline / "raw.csv")
        assert ds.n == 120 and ds.p == 2
        noisy = load_csv(pipeline / "noisy.csv")
        flips = int(np.sum(noisy.labels != ds.labels))
        assert flips == 24  # exactly round(0.2 * 120)
        mask_lines = (pipeline / "mask.csv").read_text().splitlines()
        assert mask_lines[0] == "flipped"
        assert sum(int(x) for x in mask_lines[1:]) == flips
        gamma = read_gamma_csv(pipeline / "gamma.csv")
        assert gamma.n == 120
        assert np.all((gamma.gamma >= 0) & (gamma.gamma <= 1))

    def test_train_and_eval(self, pipeline, capsys):
        model = pipeline / "model.json"
        out = run_ok(
            capsys,
            "train", "--in", str(pipeline / "noisy.csv"), "--out", str(model),
            "--algo", "cb", "--gamma", str(pipeline / "gamma.csv"),
            "--iterations", "30",
        )
        assert "terms" in out
        test = pipeline / "test.csv"
        run_ok(capsys, "synth", "--scenario", "normal", "--n", "400", "--seed", "77", "--out", str(test))
        metrics = pipeline / "metrics.json"
        out = run_ok(
            capsys,
            "eval", "--model", str(model), "--in", str(test), "--out", str(metrics),
        )
        assert out.startswith("test_error ")
        printed = float(out.split()[1])
        body = json.loads(metrics.read_text())
        assert body["test_error"] == printed
        assert body["n_test"] == 400
        assert body["model_terms"] > 0
        assert body["manifest"] == f"{metrics}.manifest.json"
        assert 0.0 <= printed <= 0.4  # a real model, not chance

    def test_eval_without_out_writes_nothing(self, pipeline, capsys):
        model = pipeline / "m2.json"
        run_ok(
            capsys,
            "train", "--in", str(pipeline / "noisy.csv"), "--out", str(model),
            "--algo", "adaboost", "--iterations", "5",
        )
        before = sorted(p.name for p in pipeline.iterdir())
        run_ok(capsys, "eval", "--model", str(model), "--in", str(pipeline / "noisy.csv"))
        after = sorted(p.name for p in pipeline.iterdir())
        assert before == after

    def test_model_config_echo(self, pipeline, capsys):
        model = pipeline / "m3.json"
        run_ok(
            capsys,
            "train", "--in", str(pipeline / "noisy.csv"), "--out", str(model),
            "--algo", "disc", "--gamma", str(pipeline / "gamma.csv"),
            "--threshold", "0.3", "--iterations", "8", "--mode", "resample",
        )
        _, cfg = load_ensemble(model)
        assert cfg["algo"] == "disc"
        assert cfg["threshold"] == 0.3
        assert cfg["mode"] == "resample"
        assert cfg["iterations"] == 8
        assert cfg["manifest"] == f"{model}.manifest.json"


@pytest.mark.parametrize("algo", list(METHODS))
def test_train_matches_library_dispatch(pipeline, capsys, algo):
    model = pipeline / f"{algo}.json"
    run_ok(
        capsys,
        "train", "--in", str(pipeline / "noisy.csv"), "--out", str(model),
        "--algo", algo, "--gamma", str(pipeline / "gamma.csv"),
        "--threshold", "0.3", "--iterations", "8", "--mode", "resample", "--seed", "5",
    )
    ens, _ = load_ensemble(model)
    want, _ = fit_method(
        algo,
        0.3 if METHODS[algo].takes_threshold else None,
        load_csv(pipeline / "noisy.csv"),
        read_gamma_csv(pipeline / "gamma.csv"),
        BoostConfig(max_iterations=8, learner_mode="resample", seed=5),
    )
    assert ens.terms == want.terms and ens.stopped_at == want.stopped_at
    assert len(ens) == (1 if algo == "stump" else 8)


class TestManifest:
    @pytest.mark.parametrize(
        "algo, rows, labels, reason, rounds",
        [
            # separable: the same perfect stump every round until the weights underflow
            ("adaboost", [[0.0], [1.0], [2.0], [3.0]], [-1, -1, 1, 1], "weight mass not finite or zero", 54),
            ("cb", None, None, "budget", 8),
        ],
    )
    def test_train_records_stop(self, pipeline, capsys, algo, rows, labels, reason, rounds):
        data = pipeline / "noisy.csv"
        if rows is not None:
            data = pipeline / "separable.csv"
            save_csv(Dataset(np.array(rows), np.array(labels)), data)
        model = pipeline / "stop.json"
        run_ok(capsys, "train", "--in", str(data), "--out", str(model), "--algo", algo,
               "--gamma", str(pipeline / "gamma.csv"), "--iterations", "200" if rows else "8")
        ens, config = load_ensemble(model)
        # the run's facts go to the manifest only; model.json keeps its bytes
        assert model.read_text() == ensemble_to_json(ens, config) + "\n"
        assert sorted(config) == ["algo", "iterations", "label_column", "manifest", "mode",
                                  "positive_label", "stop", "threshold"]
        ds = load_csv(data)
        cfg = BoostConfig(max_iterations=int(config["iterations"]))
        if algo == "cb":
            _, trace = train_cb_adaboost(ds, read_gamma_csv(pipeline / "gamma.csv"), cfg)
        else:
            _, trace = train_adaboost(ds, cfg)
        result = json.loads((pipeline / "stop.json.manifest.json").read_text())["result"]
        assert result == {"stop_reason": reason, "rounds": rounds, "final_risk": trace.final_risk}
        assert (trace.stop_reason, trace.iterations) == (reason, rounds)

    def test_train_names_a_stop_before_the_budget(self, tmp_path):
        # separable: the weights underflow after 54 rounds of a 200 budget
        data, model = tmp_path / "separable.csv", tmp_path / "m.json"
        save_csv(Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([-1, -1, 1, 1])), data)
        proc = subprocess.run(
            [sys.executable, "-m", "cbboost", "train", "--in", str(data), "--out", str(model), "--algo", "adaboost"],
            capture_output=True,
            text=True,
            env={**os.environ, "CBBOOST_LOG": "INFO"},
        )
        assert proc.returncode == 0, proc.stderr
        reason = "stop reason weight mass not finite or zero"
        assert proc.stdout == f"wrote {model} (54 terms, stopped_at 54, {reason})\n"
        assert f"INFO cbboost: train: 54 terms, {reason}\n" in proc.stderr

    def test_train_summary_of_a_full_budget(self, pipeline, capsys):
        model = pipeline / "m.json"
        out = run_ok(capsys, "train", "--in", str(pipeline / "noisy.csv"), "--out", str(model),
                     "--algo", "adaboost", "--iterations", "5")
        assert out == f"wrote {model} (5 terms, stopped_at 5)\n"

    def test_contents(self, pipeline):
        manifest = json.loads((pipeline / "gamma.csv.manifest.json").read_text())
        assert manifest["tool"] == "cbboost"
        assert manifest["version"] == cbboost.__version__
        assert manifest["command"] == "confidence"
        assert manifest["config"]["method"] == "knn"
        assert manifest["config"]["k"] == 5
        assert manifest["config"]["standardize"] is True
        assert manifest["config"]["filter_thresholds"] == [0.07, 0.14, 0.21]
        assert manifest["outputs"] == [str(pipeline / "gamma.csv")]
        assert manifest["elapsed_seconds"] >= 0
        (entry,) = manifest["inputs"]
        assert entry["path"] == str(pipeline / "noisy.csv")
        digest = hashlib.sha256((pipeline / "noisy.csv").read_bytes()).hexdigest()
        assert entry["sha256"] == digest

    def test_every_stage_writes_one(self, pipeline):
        for name in ("raw.csv", "noisy.csv", "gamma.csv"):
            assert (pipeline / f"{name}.manifest.json").exists()

    def test_in_place_run_records_the_input_digest(self, pipeline, capsys):
        # the input is hashed before the output replaces it
        noisy = pipeline / "noisy.csv"
        digest = hashlib.sha256(noisy.read_bytes()).hexdigest()
        run_ok(capsys, "noise", "--in", str(noisy), "--out", str(noisy), "--noise-level", "0.1", "--seed", "5")
        manifest = json.loads((pipeline / "noisy.csv.manifest.json").read_text())
        assert manifest["inputs"] == [{"path": str(noisy), "sha256": digest}]
        assert hashlib.sha256(noisy.read_bytes()).hexdigest() != digest

    def test_seeds_recorded(self, pipeline):
        m = json.loads((pipeline / "noisy.csv.manifest.json").read_text())
        assert m["seeds"] == {"seed": 4}
        assert m["config"]["flipped_count"] == 24


def test_main_writes_one_manifest_per_run(tmp_path, capsys, monkeypatch):
    """Every command's manifest sits next to its primary output and lists what it wrote."""
    monkeypatch.chdir(tmp_path)
    runs = [
        ("synth", "--scenario", "normal", "--n", "60", "--seed", "1", "--out", "raw.csv"),
        ("noise", "--in", "raw.csv", "--out", "noisy.csv", "--noise-level", "0.2", "--mask-out", "mask.csv"),
        ("confidence", "--in", "noisy.csv", "--out", "gamma.csv"),
        ("train", "--in", "noisy.csv", "--gamma", "gamma.csv", "--algo", "cb", "--iterations", "5",
         "--out", "model.json"),
        ("eval", "--model", "model.json", "--in", "raw.csv", "--out", "metrics.json"),
        ("eval", "--model", "model.json", "--in", "raw.csv"),
        ("bench", "--out-dir", "grid", "--train-n", "40", "--test-n", "50", "--repetitions", "1",
         "--noise-levels", "0.1", "--iterations", "3"),
        # no method needs confidence, so train_n may be at most k
        ("bench", "--out-dir", "tiny", "--train-n", "3", "--test-n", "20", "--repetitions", "1",
         "--noise-levels", "0.1", "--iterations", "3", "--methods", "adaboost"),
    ]
    for argv in runs:
        before = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()}
        run_ok(capsys, *argv)
        wrote = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()} - before
        if argv[0] == "eval" and "--out" not in argv:
            assert wrote == set()
            continue
        (manifest,) = [p for p in wrote if p.endswith(".manifest.json")]
        body = json.loads((tmp_path / manifest).read_text())
        assert body["command"] == argv[0]
        assert manifest == body["outputs"][0] + ".manifest.json"
        assert set(body["outputs"]) == wrote - {manifest}


@pytest.mark.parametrize("exc", [OSError("disk full"), KeyboardInterrupt()], ids=["error", "interrupt"])
@pytest.mark.parametrize("argv, outputs", [
    (["synth", "--scenario", "normal", "--n", "30", "--out", "raw.csv"], ["raw.csv"]),
    (["noise", "--in", "raw.csv", "--out", "noisy.csv", "--noise-level", "0.1", "--mask-out", "mask.csv"],
     ["noisy.csv", "mask.csv"]),
    (["confidence", "--in", "noisy.csv", "--out", "gamma.csv"], ["gamma.csv"]),
    (["train", "--in", "noisy.csv", "--gamma", "gamma.csv", "--algo", "cb", "--iterations", "3", "--out", "m.json"],
     ["m.json"]),
    (["eval", "--model", "model.json", "--in", "raw.csv", "--out", "metrics.json"], ["metrics.json"]),
    (["bench", "--out-dir", "grid", "--train-n", "40", "--test-n", "30", "--repetitions", "1",
      "--noise-levels", "0.1", "--iterations", "3", "--methods", "adaboost"], ["grid/results.json", "grid/results.csv"]),
], ids=["synth", "noise", "confidence", "train", "eval", "bench"])
def test_failed_run_keeps_existing_outputs(pipeline, capsys, monkeypatch, argv, outputs, exc):
    """A run that fails after writing its outputs leaves every file as it was, and no temporary."""
    monkeypatch.chdir(pipeline)
    run_ok(capsys, "train", "--in", "noisy.csv", "--algo", "adaboost", "--iterations", "3", "--out", "model.json")
    (pipeline / "grid").mkdir()
    for path in outputs + [outputs[0] + ".manifest.json"]:
        (pipeline / path).write_text(f"earlier {path}\n")
    before = {str(p.relative_to(pipeline)): p.read_bytes() for p in pipeline.rglob("*") if p.is_file()}

    def failing(run, command, t0, out):
        assert all(os.path.getsize(out[path]) > 0 for path in outputs)  # every output was written
        raise exc

    monkeypatch.setattr(cli, "_write_manifest", failing)
    if isinstance(exc, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert run_fail(capsys, *argv) == "error: disk full\n"
    assert {str(p.relative_to(pipeline)): p.read_bytes() for p in pipeline.rglob("*") if p.is_file()} == before


class TestDeterminism:
    def test_synth_reruns_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_ok(capsys, "synth", "--scenario", "sine", "--n", "90", "--seed", "11", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_train_reruns_byte_identical(self, pipeline, capsys):
        models = []
        for name in ("r1.json", "r2.json"):
            model = pipeline / name
            run_ok(
                capsys,
                "train", "--in", str(pipeline / "noisy.csv"), "--out", str(model),
                "--algo", "cb", "--gamma", str(pipeline / "gamma.csv"),
                "--iterations", "20", "--mode", "resample", "--seed", "9",
            )
            body = json.loads(model.read_text())
            del body["config"]["manifest"]  # the only path-dependent field
            models.append(json.dumps(body, sort_keys=True))
        assert models[0] == models[1]

    def test_subprocess_matches_in_process(self, pipeline, capsys):
        inproc = pipeline / "inproc.json"
        run_ok(
            capsys,
            "train", "--in", str(pipeline / "noisy.csv"), "--out", str(inproc),
            "--algo", "adaboost", "--iterations", "15",
        )
        sub = pipeline / "sub.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "cbboost",
                "train", "--in", str(pipeline / "noisy.csv"), "--out", str(sub),
                "--algo", "adaboost", "--iterations", "15",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        a = json.loads(inproc.read_text())
        b = json.loads(sub.read_text())
        a["config"].pop("manifest")
        b["config"].pop("manifest")
        assert a == b

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cbboost", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"cbboost {cbboost.__version__}"


class TestConfidenceFlags:
    def test_bayes_path(self, pipeline, capsys):
        out = pipeline / "gb.csv"
        run_ok(
            capsys,
            "confidence", "--in", str(pipeline / "noisy.csv"), "--out", str(out),
            "--method", "bayes", "--noise-level", "0.2",
        )
        g = read_gamma_csv(out)
        assert g.n == 120
        m = json.loads((out.with_name("gb.csv.manifest.json")).read_text())
        assert m["config"]["method"] == "bayes"
        assert m["config"]["noise_level"] == 0.2

    def test_bayes_needs_noise_level(self, pipeline, capsys):
        err = run_fail(
            capsys,
            "confidence", "--in", str(pipeline / "noisy.csv"),
            "--out", str(pipeline / "x.csv"), "--method", "bayes",
        )
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "noise_level" in err

    def test_unknown_log_level(self, pipeline):
        proc = subprocess.run(
            [
                sys.executable, "-m", "cbboost",
                "confidence", "--in", str(pipeline / "noisy.csv"), "--out", str(pipeline / "x.csv"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "CBBOOST_LOG": "bogus"},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: CBBOOST_LOG='bogus'") and proc.stderr.count("\n") == 1
        assert not (pipeline / "x.csv").exists()

    def test_no_standardize_changes_result(self, tmp_path, capsys):
        # one feature on a 1000x scale: neighbor sets depend on whether
        # distances are standardized, so the two gamma files must differ
        rng = np.random.default_rng(8)
        n = 60
        x0 = rng.normal(size=n)
        x1 = rng.normal(size=n) * 1000.0
        y = np.where(x0 + rng.normal(scale=0.6, size=n) > 0, 1, -1)
        path = tmp_path / "scaled.csv"
        with open(path, "w") as fh:
            fh.write("f0,f1,label\n")
            for a, b, lab in zip(x0, x1, y):
                fh.write(f"{float(a)!r},{float(b)!r},{lab}\n")
        g_std = tmp_path / "std.csv"
        g_raw = tmp_path / "raw.csv"
        run_ok(capsys, "confidence", "--in", str(path), "--out", str(g_std))
        run_ok(capsys, "confidence", "--in", str(path), "--out", str(g_raw), "--no-standardize")
        assert g_std.read_bytes() != g_raw.read_bytes()
        m = json.loads((tmp_path / "raw.csv.manifest.json").read_text())
        assert m["config"]["standardize"] is False

    def test_custom_filter_thresholds(self, pipeline, capsys):
        out = pipeline / "gt.csv"
        run_ok(
            capsys,
            "confidence", "--in", str(pipeline / "noisy.csv"), "--out", str(out),
            "--filter-thresholds", "0.1,0.2",
        )
        m = json.loads((pipeline / "gt.csv.manifest.json").read_text())
        assert m["config"]["filter_thresholds"] == [0.1, 0.2]

    def test_unparseable_filter_thresholds_named(self, pipeline, capsys):
        err = run_fail(
            capsys,
            "confidence", "--in", str(pipeline / "noisy.csv"), "--out", str(pipeline / "x.csv"),
            "--filter-thresholds", "0.1,x",
        )
        assert err == "error: cannot parse --filter-thresholds '0.1,x', expected comma-separated reals\n"
        assert not (pipeline / "x.csv").exists()


class TestErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        err = run_fail(
            capsys, "noise", "--in", str(tmp_path / "gone.csv"),
            "--out", str(tmp_path / "o.csv"), "--noise-level", "0.1",
        )
        assert err.startswith("error: ")
        assert err.count("\n") == 1  # a single line

    def test_label_column_named_like_a_feature(self, tmp_path, capsys):
        # load_csv could not read such a file back: the label would be taken for a feature
        out = tmp_path / "a.csv"
        err = run_fail(capsys, "synth", "--scenario", "normal", "--n", "50", "--label-column", "x1", "--out", str(out))
        assert err.startswith("error: label column 'x1' clashes with a feature name") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_bad_noise_level(self, pipeline, capsys):
        err = run_fail(
            capsys, "noise", "--in", str(pipeline / "raw.csv"),
            "--out", str(pipeline / "o.csv"), "--noise-level", "0.7",
        )
        assert err.startswith("error: ")

    def test_bad_mask_path_fails_before_out_is_written(self, pipeline, capsys):
        noisy = pipeline / "noisy.csv"
        mask = pipeline / "missing" / "m.csv"
        old = noisy.read_bytes()
        before = sorted(os.listdir(pipeline))
        err = run_fail(
            capsys, "noise", "--in", str(pipeline / "raw.csv"), "--out", str(noisy),
            "--noise-level", "0.3", "--seed", "8", "--mask-out", str(mask),
        )
        assert err.startswith("error: ") and err.count("\n") == 1
        # the message names the path given, not the temporary written in its place
        assert str(mask) in err and ".tmp" not in err
        assert noisy.read_bytes() == old
        assert sorted(os.listdir(pipeline)) == before

    @pytest.mark.parametrize("out, message", [
        ("missing/g.csv", "[Errno 2] No such file or directory"),
        ("grid", "[Errno 21] Is a directory"),
    ])
    def test_unwritable_out_fails_before_any_work(self, pipeline, capsys, monkeypatch, out, message):
        monkeypatch.chdir(pipeline)
        (pipeline / "grid").mkdir()
        calls = []
        monkeypatch.setattr(cli, "estimate_confidence", lambda *args, **kwargs: calls.append(args))
        before = sorted(os.listdir(pipeline))
        err = run_fail(capsys, "confidence", "--in", "noisy.csv", "--out", out)
        assert err == f"error: {message}: '{out}'\n"
        assert calls == []
        assert sorted(os.listdir(pipeline)) == before

    @pytest.mark.parametrize("mask", ["x.csv", "./x.csv", "x.csv.manifest.json"])
    def test_one_path_named_as_two_outputs(self, pipeline, capsys, monkeypatch, mask):
        # a manifest is an output too: it would otherwise overwrite the mask
        monkeypatch.chdir(pipeline)
        loads = []
        monkeypatch.setattr(cli, "load_csv", lambda *args, **kwargs: loads.append(args))
        before = sorted(os.listdir(pipeline))
        err = run_fail(capsys, "noise", "--in", "raw.csv", "--out", "x.csv", "--noise-level", "0.1",
                       "--mask-out", mask)
        assert err == f"error: {mask} is named as two outputs\n"
        assert loads == []
        assert sorted(os.listdir(pipeline)) == before

    def test_cb_requires_gamma(self, pipeline, capsys):
        err = run_fail(
            capsys, "train", "--in", str(pipeline / "noisy.csv"),
            "--out", str(pipeline / "m.json"), "--algo", "cb",
        )
        assert "requires --gamma" in err

    def test_bad_stop_rule(self, pipeline, capsys):
        err = run_fail(
            capsys, "train", "--in", str(pipeline / "noisy.csv"),
            "--out", str(pipeline / "m.json"), "--algo", "adaboost", "--stop", "sometimes",
        )
        assert "stop rule" in err

    def test_zero_term_model_is_refused(self, tmp_path, capsys):
        # identical rows with balanced labels: the first vote is nonpositive
        data = tmp_path / "same.csv"
        save_csv(Dataset(np.ones((200, 2)), np.tile([-1, 1], 100)), data)
        err = run_fail(capsys, "train", "--in", str(data), "--out", str(tmp_path / "m.json"), "--algo", "adaboost")
        assert err == "error: training stopped before its first term (nonpositive vote); no model written\n"
        assert os.listdir(tmp_path) == ["same.csv"]

    def test_overflowing_standardization_fails_in_one_line(self, tmp_path):
        # the column's squared deviations overflow; numpy must not warn first
        data = tmp_path / "huge.csv"
        col = np.array([(-1) ** i * 1e307 * (1 + i / 40) for i in range(40)])
        save_csv(Dataset(np.column_stack([col, np.arange(40.0)]), np.tile([-1, 1], 20)), data)
        proc = subprocess.run(
            [sys.executable, "-m", "cbboost", "confidence", "--in", str(data), "--out", str(tmp_path / "g.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: cannot standardize: a feature column's mean or standard deviation overflows\n"
        )
        assert os.listdir(tmp_path) == ["huge.csv"]

    def test_overflowing_distances_run_without_a_warning(self, tmp_path):
        # unscaled, the column's differences overflow to inf; numpy must not warn
        data, out = tmp_path / "huge.csv", tmp_path / "g.csv"
        col = np.array([(-1) ** i * 1e308 for i in range(40)])
        save_csv(Dataset(np.column_stack([col, np.arange(40.0)]), np.tile([-1, 1], 20)), data)
        proc = subprocess.run(
            [sys.executable, "-m", "cbboost", "confidence", "--in", str(data), "--out", str(out), "--no-standardize"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"wrote {out} (filter kept 40/40 rows)\n"

    def test_unknown_subcommand_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cbboost", "explode"], capture_output=True, text=True
        )
        assert proc.returncode == 2

    def test_eval_on_malformed_model(self, pipeline, capsys):
        bad = pipeline / "bad.json"
        bad.write_text("{not json")
        err = run_fail(capsys, "eval", "--model", str(bad), "--in", str(pipeline / "raw.csv"))
        assert err.startswith("error: ")

    @pytest.mark.parametrize("fields, message", [
        ('"terms": 5, "stopped_at": 0', "terms must be a JSON list"),
        ('"terms": [], "stopped_at": null', "stopped_at must be a whole number"),
        # int() would read it as feature 1 and evaluate the wrong model
        ('"terms": [{"beta": "1", "feature": 1.5, "threshold": "0", "polarity": 1}], "stopped_at": 1',
         "malformed term 0: feature must be a whole number, got 1.5"),
    ])
    def test_eval_on_mistyped_model(self, pipeline, capsys, fields, message):
        bad = pipeline / "bad.json"
        bad.write_text('{"format": "cbboost-ensemble", "version": 1, ' + fields + "}")
        err = run_fail(capsys, "eval", "--model", str(bad), "--in", str(pipeline / "raw.csv"))
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_stop_rule_argument_not_a_number(self, pipeline, capsys):
        err = run_fail(
            capsys, "train", "--in", str(pipeline / "noisy.csv"),
            "--out", str(pipeline / "m.json"), "--algo", "adaboost", "--stop", "consistency:abc",
        )
        assert err.startswith("error: cannot parse stop rule 'consistency:abc'") and err.count("\n") == 1
        assert "fixed | consistency:A" in err
        assert not (pipeline / "m.json").exists()


class TestBench:
    def test_config_file_with_flag_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({
            "scenario": "normal",
            "train_n": 60,
            "test_n": 200,
            "noise_levels": [0.1],
            "methods": ["adaboost", "cb"],
            "repetitions": 5,
            "base_seed": 42,
            "boost": {"max_iterations": 6},
        }))
        out_dir = tmp_path / "results"
        run_ok(
            capsys,
            "bench", "--config", str(cfg_path), "--out-dir", str(out_dir),
            "--repetitions", "2",
        )
        body = json.loads((out_dir / "results.json").read_text())
        assert body["config"]["repetitions"] == 2  # flag beat the file
        assert body["config"]["train_n"] == 60  # file beat the default
        assert body["config"]["boost"]["max_iterations"] == 6
        assert body["manifest"] == "results.json.manifest.json"
        assert len(body["cells"]) == 2
        for cell in body["cells"]:
            assert len(cell["values"]) == 2
        csv_text = (out_dir / "results.csv").read_text()
        assert csv_text.splitlines()[0] == "method,noise_level,mean,std,reps_ok,reps_total"
        assert len(csv_text.splitlines()) == 3
        manifest = json.loads((out_dir / "results.json.manifest.json").read_text())
        assert manifest["command"] == "bench"
        assert manifest["seeds"] == {"base_seed": 42}
        assert manifest["inputs"][0]["path"] == str(cfg_path)
        assert sorted(manifest["outputs"]) == sorted(
            [str(out_dir / "results.json"), str(out_dir / "results.csv")]
        )

    def test_flags_only(self, tmp_path, capsys):
        out_dir = tmp_path / "r2"
        run_ok(
            capsys,
            "bench", "--out-dir", str(out_dir),
            "--train-n", "60", "--test-n", "150", "--noise-levels", "0.1",
            "--methods", "stump", "--repetitions", "2", "--seed", "7",
            "--iterations", "4",
        )
        body = json.loads((out_dir / "results.json").read_text())
        (cell,) = body["cells"]
        assert cell["method"] == "stump"
        assert cell["stops"] == [1, 1]

    def test_results_config_replays_exactly(self, tmp_path, capsys):
        boost = {"max_iterations": 4, "stop_rule": "consistency", "consistency_a": 0.3, "epsilon_clamp": 1e-6}
        first = tmp_path / "first.json"
        first.write_text(json.dumps({
            "train_n": 40, "test_n": 100, "noise_levels": [0.1], "methods": ["cb"],
            "repetitions": 1, "base_seed": 3, "boost": boost,
        }))
        run_ok(capsys, "bench", "--config", str(first), "--out-dir", str(tmp_path / "r1"))
        echoed = json.loads((tmp_path / "r1" / "results.json").read_text())["config"]
        assert echoed["boost"] == {**boost, "learner_mode": "weighted"}
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(echoed))
        run_ok(capsys, "bench", "--config", str(replay), "--out-dir", str(tmp_path / "r2"))
        assert (tmp_path / "r2" / "results.json").read_text() == (tmp_path / "r1" / "results.json").read_text()

    @pytest.mark.parametrize("body", [
        {"stop": "consistency:0.3"},
        {"max_iterations": 6},
        {"boost": {"stop": "consistency:0.3"}},
        {"boost": {"max_iterations": None}},
        {"boost": {"max_iterations": "abc"}},
        {"boost": {"seed": 3}},
    ])
    def test_boost_settings_outside_the_block_rejected(self, tmp_path, capsys, body):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(body))
        err = run_fail(capsys, "bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"))
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "boost" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("body, key", [
        ({"train_n": 40.9}, "train_n"),
        ({"repetitions": 1.7}, "repetitions"),
        ({"boost": {"max_iterations": 2.9}}, "max_iterations"),
        ({"k": True}, "k"),
        ({"train_n": "40"}, "train_n"),
    ])
    def test_fractional_integers_rejected(self, tmp_path, capsys, body, key):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({"test_n": 50, "noise_levels": [0.1], "methods": ["stump"], **body}))
        err = run_fail(capsys, "bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"))
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{key} must be a whole number" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("body, key", [
        ({"noise_levels": 0.1}, "noise_levels"),
        ({"methods": 5}, "methods"),
        ({"methods": "cb"}, "methods"),
        ({"filter_thresholds": "0.5"}, "filter_thresholds"),
    ])
    def test_list_settings_must_be_lists(self, tmp_path, capsys, body, key):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(body))
        err = run_fail(capsys, "bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"))
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{key} must be a list" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("body, key", [
        ({"train_N": 40}, "train_N"),
        ({"jobs": 4}, "jobs"),
    ])
    def test_unknown_keys_rejected(self, tmp_path, capsys, body, key):
        # jobs is a flag only: it never changes the results, so no echo has it
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(body))
        err = run_fail(capsys, "bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"))
        assert err.startswith(f"error: {cfg_path}: unknown key {key},") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({"methods": []}))
        for flags in (["--noise-levels", ""], ["--config", str(cfg_path)]):
            err = run_fail(capsys, "bench", *flags, "--out-dir", str(tmp_path / "o"))
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "at least one noise level and one method" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("body, message", [
        ({"k": 0}, "need k >= 1"),
        ({"filter_thresholds": [0.5, 0.2]}, "strictly increasing"),
        ({"confidence_form": "bogus"}, "form must be"),
    ])
    def test_confidence_settings_rejected_before_the_grid_runs(self, tmp_path, capsys, body, message):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(body))
        err = run_fail(capsys, "bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"))
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "o").exists()

    def test_test_n_of_one_rejected_before_the_grid_runs(self, tmp_path, capsys):
        err = run_fail(capsys, "bench", "--out-dir", str(tmp_path / "o"), "--test-n", "1")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "test_n" in err
        assert not (tmp_path / "o").exists()

    def test_empty_methods_flag_rejected(self, tmp_path, capsys):
        err = run_fail(capsys, "bench", "--out-dir", str(tmp_path / "o"), "--methods", "")
        assert err.startswith("error: ") and "unknown method" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--methods", "disc:abc"], "cannot parse method 'disc:abc', expected a threshold as in disc:0.5"),
        (["--noise-levels", "0.1,abc"], "cannot parse --noise-levels '0.1,abc', expected comma-separated reals"),
        (["--filter-thresholds", "x"], "cannot parse --filter-thresholds 'x', expected comma-separated reals"),
        (["--noise-levels", "0.1,0.1", "--methods", "adaboost,adaboost"], "noise levels must not repeat, got (0.1, 0.1)"),
        (["--methods", "adaboost,cb,adaboost"], "methods must not repeat, got ('adaboost', 'cb', 'adaboost')"),
        (["--train-n", "3", "--noise-levels", "0.1", "--methods", "adaboost,cb"],
         "train_n must exceed k=5 when a method needs confidence, got 3"),
    ])
    def test_flag_errors_name_the_setting(self, tmp_path, capsys, flags, message):
        argv = ["bench", "--out-dir", str(tmp_path / "o"), "--train-n", "40", "--test-n", "50",
                "--repetitions", "1", "--iterations", "2", *flags]
        err = run_fail(capsys, *argv)
        assert err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_config_method_error_names_the_spec(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({"methods": ["cb", "disc:abc"]}))
        err = run_fail(capsys, "bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"))
        assert err == f"error: {cfg_path}: cannot parse method 'disc:abc', expected a threshold as in disc:0.5\n"
        assert not (tmp_path / "o").exists()

    def test_whole_floats_accepted(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({
            "train_n": 40.0, "test_n": 50, "noise_levels": [0.1], "methods": ["stump"],
            "repetitions": 1.0, "boost": {"max_iterations": 3.0},
        }))
        run_ok(capsys, "bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"))
        config = json.loads((tmp_path / "o" / "results.json").read_text())["config"]
        assert (config["train_n"], config["repetitions"], config["boost"]["max_iterations"]) == (40, 1, 3)
        assert json.dumps(config["train_n"]) == "40"

    def test_bad_config_shape(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("[1, 2]")
        err = run_fail(capsys, "bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"))
        assert "must be a JSON object" in err


def subparser(name):
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


# flags of bench and train that set no config field
NOT_CONFIG = {
    "bench": {"help", "config", "out_dir", "stop"},
    "train": {"help", "infile", "out", "label_column", "positive_label", "algo", "gamma", "stop", "threshold"},
}
OWNERS = {
    "scenario": SCENARIOS,
    "confidence_method": CONFIDENCE_METHODS,
    "confidence_form": FORMS,
    "learner_mode": LEARNER_MODES,
    "algo": METHODS,
}


@pytest.mark.parametrize("command", sorted(NOT_CONFIG))
def test_flags_are_named_after_config_fields(command):
    """A flag sets the field its dest names; nothing maps flags to fields by hand."""
    experiment = {f.name for f in fields(ExperimentConfig)}
    boost = {f.name for f in fields(BoostConfig)}
    assert not experiment & boost  # one dest sets one field
    if command == "bench":
        boost.discard("seed")  # every repetition derives its own boosting seed
    actions = subparser(command)._actions
    dests = {a.dest for a in actions}
    assert dests - NOT_CONFIG[command] <= experiment | boost
    if command == "bench":
        assert experiment - {"boost"} <= dests
    for action in actions:
        if action.choices is not None:
            assert action.choices is OWNERS[action.dest], action.dest
        if action.dest in boost and command == "train":
            assert action.default == getattr(BoostConfig, action.dest), action.dest
        if action.dest in experiment | boost and command == "bench" and action.dest != "jobs":
            assert action.default is None, action.dest  # an unset flag leaves the config file's value
