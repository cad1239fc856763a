"""Benchmark harness: seed derivation, baselines, grids, and summaries."""

import concurrent.futures
import csv
import hashlib
import io
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cbboost import boost, confidence, harness
from cbboost.boost import BoostConfig, Ensemble, train_adaboost, train_cb_adaboost
from cbboost.confidence import ConfidenceVector
from cbboost.dataset import Dataset, inject_label_noise
from cbboost.harness import (
    METHODS,
    CellResult,
    ExperimentConfig,
    ResultsTable,
    config_from_echo,
    derive_seed,
    parse_method,
    run_corr,
    run_disc,
    run_experiment,
    table_to_csv,
    table_to_json,
    weight_trace_groups,
)
from cbboost.harness import test_error as holdout_error
from cbboost.stump import Stump
from cbboost.synth import SynthSpec, generate


class TestDeriveSeed:
    def test_matches_documented_derivation(self):
        expect = int.from_bytes(
            hashlib.sha256(b"20240501|3|train").digest()[:8], "little"
        )
        assert derive_seed(20240501, 3, "train") == expect

    def test_stable_and_in_range(self):
        a = derive_seed(7, 0, "test")
        assert a == derive_seed(7, 0, "test")
        assert 0 <= a < 2**64

    def test_stages_reps_bases_separate(self):
        seeds = {
            derive_seed(7, 0, "test"),
            derive_seed(7, 0, "train"),
            derive_seed(7, 0, "noise@0.1"),
            derive_seed(7, 1, "test"),
            derive_seed(8, 0, "test"),
        }
        assert len(seeds) == 5


class TestParseMethod:
    def test_plain_methods(self):
        assert parse_method("adaboost") == ("adaboost", None)
        assert parse_method("cb") == ("cb", None)
        assert parse_method("stump") == ("stump", None)

    def test_threshold_methods(self):
        assert parse_method("disc:0.5") == ("disc", 0.5)
        assert parse_method("corr:0.25") == ("corr", 0.25)

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown method"):
            parse_method("bagging")
        with pytest.raises(ValueError, match="needs a threshold"):
            parse_method("disc")
        with pytest.raises(ValueError, match="must lie in"):
            parse_method("corr:1.5")
        with pytest.raises(ValueError, match="takes no argument"):
            parse_method("adaboost:0.5")
        with pytest.raises(ValueError, match=r"cannot parse method 'corr:abc', expected a threshold as in corr:0\.5"):
            parse_method("corr:abc")


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.scenario == "normal"
        assert cfg.repetitions == 30

    def test_validation(self):
        with pytest.raises(ValueError, match="scenario"):
            ExperimentConfig(scenario="moons")
        with pytest.raises(ValueError, match="train_n"):
            ExperimentConfig(train_n=1)
        with pytest.raises(ValueError, match="test_n"):
            ExperimentConfig(test_n=1)
        with pytest.raises(ValueError, match="repetition"):
            ExperimentConfig(repetitions=0)
        with pytest.raises(ValueError, match="noise levels"):
            ExperimentConfig(noise_levels=(0.5,))
        with pytest.raises(ValueError, match="unknown confidence method 'oracle'"):
            ExperimentConfig(confidence_method="oracle")
        for empty in ({"noise_levels": ()}, {"methods": ()}):
            with pytest.raises(ValueError, match="at least one noise level and one method"):
                ExperimentConfig(**empty)
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentConfig(methods=("adaboost", "bagging"))
        with pytest.raises(ValueError, match="jobs"):
            ExperimentConfig(jobs=0)
        with pytest.raises(ValueError, match="k >= 1"):
            ExperimentConfig(k=0)
        with pytest.raises(ValueError, match=r"lie in \(0, 1\)"):
            ExperimentConfig(filter_thresholds=(0.0, 0.2))
        with pytest.raises(ValueError, match="form must be"):
            ExperimentConfig(confidence_form="bogus")
        for levels in ((0.1, 0.1), (0.0, 0.2, 0)):
            with pytest.raises(ValueError, match="noise levels must not repeat"):
                ExperimentConfig(noise_levels=levels)
        for methods in (("adaboost", "cb", "adaboost"), ("disc:0.5", "disc:0.50")):
            with pytest.raises(ValueError, match="methods must not repeat"):
                ExperimentConfig(methods=methods)
        ExperimentConfig(methods=("disc:0.5", "corr:0.5", "disc:0.25"))
        for methods in (("adaboost", "cb"), ("stump", "disc:0.5"), ("corr:0.5",)):
            with pytest.raises(ValueError, match="train_n must exceed k=7 when a method needs confidence, got 7"):
                ExperimentConfig(train_n=7, k=7, methods=methods)
        ExperimentConfig(train_n=7, k=7, methods=("stump", "adaboost"))
        ExperimentConfig(train_n=8, k=7, methods=("cb",))


def toy_train(seed=0, n=24):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = np.where(X[:, 0] > 0, 1, -1)
    return Dataset(X, y)


class TestBaselines:
    def test_disc_equals_boost_on_kept_subset(self):
        ds = toy_train()
        g = np.full(ds.n, 0.9)
        g[[1, 5, 9]] = 0.2
        cfg = BoostConfig(max_iterations=6)
        ens, _ = run_disc(ds, ConfidenceVector(g), 0.5, cfg)
        keep = g >= 0.5
        manual, _ = train_adaboost(Dataset(ds.features[keep], ds.labels[keep]), cfg)
        assert ens.terms == manual.terms

    def test_disc_boundary_row_is_kept(self):
        ds = toy_train(1)
        g = np.full(ds.n, 0.9)
        g[0] = 0.5  # exactly at the threshold: kept, the cut is strict-below
        cfg = BoostConfig(max_iterations=4)
        ens, _ = run_disc(ds, ConfidenceVector(g), 0.5, cfg)
        manual, _ = train_adaboost(ds, cfg)
        assert ens.terms == manual.terms

    def test_disc_errors(self):
        ds = toy_train()
        good = ConfidenceVector(np.full(ds.n, 0.9))
        with pytest.raises(ValueError, match="does not match"):
            run_disc(ds, ConfidenceVector(np.full(5, 0.9)), 0.5, BoostConfig())
        with pytest.raises(ValueError, match="threshold"):
            run_disc(ds, good, 1.0, BoostConfig())
        low = ConfidenceVector(np.full(ds.n, 0.1))
        with pytest.raises(ValueError, match="keeps only"):
            run_disc(ds, low, 0.5, BoostConfig())

    def test_corr_equals_boost_on_flipped_labels(self):
        ds = toy_train(2)
        g = np.full(ds.n, 0.9)
        g[[0, 3]] = 0.3
        cfg = BoostConfig(max_iterations=6)
        ens, _ = run_corr(ds, ConfidenceVector(g), 0.5, cfg)
        labels = ds.labels.copy()
        labels[[0, 3]] *= -1
        manual, _ = train_adaboost(Dataset(ds.features, labels), cfg)
        assert ens.terms == manual.terms

    def test_corr_with_confident_gamma_is_identity(self):
        ds = toy_train(3)
        cfg = BoostConfig(max_iterations=6)
        ens, _ = run_corr(ds, ConfidenceVector(np.full(ds.n, 0.8)), 0.5, cfg)
        manual, _ = train_adaboost(ds, cfg)
        assert ens.terms == manual.terms

    def test_corr_errors(self):
        ds = toy_train()
        with pytest.raises(ValueError, match="does not match"):
            run_corr(ds, ConfidenceVector(np.full(3, 0.9)), 0.5, BoostConfig())
        with pytest.raises(ValueError, match="threshold"):
            run_corr(ds, ConfidenceVector(np.full(ds.n, 0.9)), 0.0, BoostConfig())


class TestHoldoutError:
    def test_hand_value(self):
        # constant +1 voter against half-negative labels
        ens = Ensemble(terms=((1.0, Stump(0, -np.inf, 1)),), stopped_at=1)
        ds = Dataset(np.zeros((4, 1)), [1, 1, -1, -1])
        assert holdout_error(ens, ds) == 0.5

    def test_perfect_and_worst(self):
        ens = Ensemble(terms=((1.0, Stump(0, 0.0, 1)),), stopped_at=1)
        X = np.array([[1.0], [-1.0]])
        assert holdout_error(ens, Dataset(X, [1, -1])) == 0.0
        assert holdout_error(ens, Dataset(X, [-1, 1])) == 1.0


def small_grid(jobs=1, reps=2):
    return ExperimentConfig(
        scenario="normal",
        train_n=80,
        test_n=400,
        noise_levels=(0.0, 0.2),
        methods=("stump", "adaboost", "cb", "disc:0.5", "corr:0.5"),
        repetitions=reps,
        base_seed=99,
        boost=BoostConfig(max_iterations=12),
        jobs=jobs,
    )


@pytest.fixture(scope="module")
def table():
    return run_experiment(small_grid())


class TestRunExperiment:
    def test_grid_complete(self, table):
        cfg = small_grid()
        assert set(table.cells) == {
            (m, float(lv)) for m in cfg.methods for lv in cfg.noise_levels
        }
        for cell in table.cells.values():
            assert len(cell.values) == cfg.repetitions

    def test_values_sane(self, table):
        for cell in table.cells.values():
            assert cell.errors == (None, None)
            for v in cell.values:
                assert 0.0 <= v <= 1.0

    def test_stump_records_single_iteration(self, table):
        for lv in (0.0, 0.2):
            assert table.cell("stump", lv).stops == (1, 1)

    def test_reproducible_bytes(self, table):
        again = run_experiment(small_grid())
        assert table_to_json(again) == table_to_json(table)

    def test_jobs_do_not_change_results(self, table):
        parallel = run_experiment(small_grid(jobs=2))
        assert table_to_json(parallel) == table_to_json(table)

    @pytest.mark.parametrize("jobs, reps, pools", [(64, 2, [2]), (3, 1, []), (2, 3, [2]), (1, 2, [])])
    def test_pool_capped_at_the_repetitions(self, table, monkeypatch, jobs, reps, pools):
        # a fake executor: records its size and maps serially, so no process starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        got = run_experiment(small_grid(jobs=jobs, reps=reps))
        assert sizes == pools
        want = table if reps == 2 else run_experiment(small_grid(reps=reps))
        assert table_to_json(got) == table_to_json(want)  # the echo leaves jobs out

    def test_noise_levels_share_training_draw(self, table):
        # level 0 and level 0.2 reuse the same base train sample per rep, so
        # a stump at level 0 differing from level 0.2 can only come from the
        # injected flips; with max_iterations=12 adaboost at 0.2 is noisier
        c0 = table.cell("adaboost", 0.0)
        c2 = table.cell("adaboost", 0.2)
        assert np.mean(c2.ok_values) > np.mean(c0.ok_values)

    def test_confidence_failure_is_recorded_not_fatal(self):
        # each of 12 rows has 10 of the other 11 as neighbours, so it sees the
        # other class and a 0.99 filter keeps no row: every confidence-based
        # cell fails cleanly while plain boosting still reports numbers
        cfg = ExperimentConfig(
            train_n=12,
            test_n=50,
            noise_levels=(0.1,),
            methods=("adaboost", "cb"),
            repetitions=3,
            base_seed=1,
            k=10,
            filter_thresholds=(0.99,),
            boost=BoostConfig(max_iterations=5),
        )
        table = run_experiment(cfg)
        ada = table.cell("adaboost", 0.1)
        assert ada.errors == (None, None, None)
        cb = table.cell("cb", 0.1)
        assert cb.values == (None, None, None)
        assert cb.mean is None and cb.std is None
        assert all(e and e.startswith("confidence failed") for e in cb.errors)
        # the summary CSV leaves the failed cell blank instead of crashing
        rows = list(csv.reader(io.StringIO(table_to_csv(table))))
        cb_row = [r for r in rows if r[0] == "cb"][0]
        assert cb_row[2] == "" and cb_row[3] == ""
        assert cb_row[4] == "0" and cb_row[5] == "3"

    def test_method_failure_is_recorded_not_fatal(self):
        # on 6 training rows no row's kNN confidence reaches 0.9, so
        # discarding below it leaves no row to boost on: every disc cell
        # fails in its trainer, while adaboost runs in every cell
        cfg = ExperimentConfig(
            train_n=6,
            test_n=20,
            methods=("adaboost", "disc:0.9"),
            noise_levels=(0.0, 0.3),
            repetitions=4,
            boost=BoostConfig(max_iterations=5),
        )
        table = run_experiment(cfg)
        for level in cfg.noise_levels:
            ada = table.cell("adaboost", level)
            assert ada.errors == (None,) * 4 and None not in ada.values
            disc = table.cell("disc:0.9", level)
            assert disc.values == (None,) * 4 and disc.stops == (None,) * 4
            assert disc.errors == ("disc failed: discarding below 0.9 keeps only 0 rows",) * 4
        failed = {(c["method"], c["noise_level"]): c["failed"] for c in json.loads(table_to_json(table))["cells"]}
        assert failed == {("adaboost", 0.0): 0, ("adaboost", 0.3): 0, ("disc:0.9", 0.0): 4, ("disc:0.9", 0.3): 4}


class TestCellResult:
    def test_mean_std_recomputed(self):
        cell = CellResult(values=(0.1, 0.2, 0.4), stops=(5, 5, 5), errors=(None,) * 3)
        vals = [0.1, 0.2, 0.4]
        assert cell.mean == pytest.approx(float(np.mean(vals)), rel=1e-15)
        assert cell.std == pytest.approx(float(np.std(vals, ddof=1)), rel=1e-15)

    def test_single_value_std_zero(self):
        cell = CellResult(values=(0.3,), stops=(4,), errors=(None,))
        assert cell.std == 0.0

    def test_none_values_filtered(self):
        cell = CellResult(values=(0.1, None, 0.3), stops=(2, None, 2), errors=(None, "x", None))
        assert cell.ok_values == [0.1, 0.3]
        assert cell.mean == pytest.approx(0.2)

    def test_all_failed(self):
        cell = CellResult(values=(None, None), stops=(None, None), errors=("a", "b"))
        assert cell.mean is None and cell.std is None


class TestWeightTraceGroups:
    def make_trace(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20, 2))
        y = np.where(X[:, 0] > 0, 1, -1)
        ds = Dataset(X, y)
        noisy, mask = inject_label_noise(ds, 0.2, seed=3)
        g = np.where(mask.flipped, 0.2, 0.9)
        gamma = ConfidenceVector(g)
        _, trace = train_cb_adaboost(noisy, gamma, BoostConfig(max_iterations=8))
        return trace, mask, gamma

    def test_mask_groups_partition_total_weight(self):
        trace, mask, _ = self.make_trace()
        groups = weight_trace_groups(trace, mask=mask)
        assert set(groups) == {"clean", "mislabeled"}
        n_c = int((~mask.flipped).sum())
        n_m = int(mask.flipped.sum())
        m = trace.iterations
        assert groups["clean"].shape == (m,)
        total = n_c * groups["clean"] + n_m * groups["mislabeled"]
        assert np.allclose(total, 1.0, atol=1e-9)

    def test_certainty_counts_both_extremes(self):
        # gamma near 0 is as committed as gamma near 1: both are "certain"
        trace, _, _ = self.make_trace()
        gamma = ConfidenceVector(
            np.concatenate([np.full(5, 0.9), np.full(5, 0.1), np.full(10, 0.6)])
        )
        groups = weight_trace_groups(trace, gamma=gamma, conf_cut=0.7)
        D0 = trace.rows[0].sample_weights
        assert groups["high_certainty"][0] == pytest.approx(D0[:10].mean())
        assert groups["low_certainty"][0] == pytest.approx(D0[10:].mean())

    def test_empty_group_omitted(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(10, 2))
        y = np.where(X[:, 0] > 0, 1, -1)
        ds = Dataset(X, y)
        noisy, mask = inject_label_noise(ds, 0.0, seed=0)  # nothing flips
        _, trace = train_adaboost(noisy, BoostConfig(max_iterations=3))
        groups = weight_trace_groups(trace, mask=mask)
        assert set(groups) == {"clean"}

    @pytest.mark.parametrize("cut", [0.49, 1.0, 5.0, float("nan")])
    def test_cut_outside_the_certainty_range_rejected(self, cut):
        # certainty lies in [0.5, 1], so such a cut would silently empty one group
        trace, mask, gamma = self.make_trace()
        with pytest.raises(ValueError, match=r"conf_cut must lie in \[0.5, 1\)"):
            weight_trace_groups(trace, mask=mask, gamma=gamma, conf_cut=cut)

    def test_lowest_cut_accepted(self):
        trace, _, gamma = self.make_trace()
        assert set(weight_trace_groups(trace, gamma=gamma, conf_cut=0.5)) == {"high_certainty"}

    def test_wrong_length_mask_rejected(self):
        trace, _, _ = self.make_trace()
        _, short = inject_label_noise(Dataset(np.zeros((10, 1)), np.ones(10)), 0.2, seed=1)
        with pytest.raises(ValueError, match="mask length 10 does not match the trace's 20 rows"):
            weight_trace_groups(trace, mask=short)

    def test_wrong_length_gamma_rejected(self):
        trace, mask, _ = self.make_trace()
        with pytest.raises(ValueError, match="confidence length 21 does not match the trace's 20 rows"):
            weight_trace_groups(trace, mask=mask, gamma=ConfidenceVector(np.full(21, 0.9)))

    def test_empty_trace_rejected(self):
        X = np.array([[0.0], [0.0]])
        _, trace = train_adaboost(Dataset(X, [1, -1]))  # aborts with no rounds
        with pytest.raises(ValueError, match="no recorded iterations"):
            weight_trace_groups(trace, gamma=ConfidenceVector(np.array([0.9, 0.9])))


@pytest.fixture(scope="module")
def summary_table():
    cfg = ExperimentConfig(
        train_n=60,
        test_n=200,
        noise_levels=(0.1,),
        methods=("adaboost", "cb"),
        repetitions=2,
        base_seed=5,
        boost=BoostConfig(max_iterations=6),
    )
    return run_experiment(cfg)


class TestTableOutput:
    def test_json_shape(self, summary_table):
        obj = json.loads(table_to_json(summary_table))
        assert obj["config"]["train_n"] == 60
        assert obj["config"]["boost"]["max_iterations"] == 6
        assert len(obj["cells"]) == 2
        for cell in obj["cells"]:
            assert cell["failed"] == 0
            assert len(cell["values"]) == 2
            assert cell["mean"] == pytest.approx(float(np.mean(cell["values"])))

    def test_csv_shape(self, summary_table):
        rows = list(csv.reader(io.StringIO(table_to_csv(summary_table))))
        assert rows[0] == ["method", "noise_level", "mean", "std", "reps_ok", "reps_total"]
        assert len(rows) == 3
        body = {r[0]: r for r in rows[1:]}
        assert set(body) == {"adaboost", "cb"}
        for r in body.values():
            assert r[1] == "0.1"
            assert float(r[2]) == pytest.approx(
                float(np.mean(summary_table.cell(r[0], 0.1).ok_values)), abs=1e-6
            )
            assert r[4] == "2" and r[5] == "2"


def test_every_grid_trainer_call_goes_through_harness_names(monkeypatch):
    # wrappers installed on harness.train_adaboost / train_cb_adaboost must
    # see every ensemble the grid trains; the engine counter shows nothing
    # trains past them
    calls = {"train_adaboost": 0, "train_cb_adaboost": 0, "engine": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("train_adaboost", "train_cb_adaboost"):
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    monkeypatch.setattr(boost, "_boost", counting("engine", boost._boost))
    cfg = ExperimentConfig(
        train_n=40, test_n=50, noise_levels=(0.0, 0.2), methods=("stump", "adaboost", "cb", "disc:0.5", "corr:0.5"),
        repetitions=2, base_seed=3, boost=BoostConfig(max_iterations=3),
    )
    table = run_experiment(cfg)
    assert all(v is not None for cell in table.cells.values() for v in cell.values)
    cells = cfg.repetitions * len(cfg.noise_levels)
    assert calls == {"train_adaboost": 4 * cells, "train_cb_adaboost": cells, "engine": 5 * cells}
    assert sorted(METHODS) == sorted(parse_method(m)[0] for m in cfg.methods)


@pytest.mark.parametrize("name", list(METHODS))
def test_fit_method_returns_its_trainers_run(name):
    train = generate(SynthSpec("normal", 80, 11))
    noisy, _ = inject_label_noise(train, 0.2, seed=12)
    gamma, _ = confidence.estimate_confidence(noisy)
    cfg = BoostConfig(max_iterations=6)
    ens, trace = harness.fit_method(name, 0.5 if METHODS[name].takes_threshold else None, noisy, gamma, cfg)
    want_ens, want_trace = {
        "stump": lambda: train_adaboost(noisy, replace(cfg, max_iterations=1)),
        "adaboost": lambda: train_adaboost(noisy, cfg),
        "cb": lambda: train_cb_adaboost(noisy, gamma, cfg),
        "disc": lambda: run_disc(noisy, gamma, 0.5, cfg),
        "corr": lambda: run_corr(noisy, gamma, 0.5, cfg),
    }[name]()
    assert ens.terms == want_ens.terms
    assert trace.stop_reason == want_trace.stop_reason
    assert trace.final_risk.hex() == want_trace.final_risk.hex()
    assert len(trace.rows) == len(want_trace.rows)


def test_each_method_spec_is_parsed_once_per_repetition(monkeypatch):
    cfg = ExperimentConfig(
        train_n=40, test_n=50, noise_levels=(0.0, 0.1, 0.2, 0.3), methods=("adaboost", "cb", "disc:0.5"),
        repetitions=2, base_seed=3, boost=BoostConfig(max_iterations=3),
    )
    calls = []

    def counting(spec):
        calls.append(spec)
        return parse_method(spec)

    monkeypatch.setattr(harness, "parse_method", counting)
    run_experiment(cfg)
    assert len(calls) == cfg.repetitions * len(cfg.methods)


@pytest.mark.parametrize("module, choices, make, text", [
    (boost, "LEARNER_MODES", lambda v: BoostConfig(learner_mode=v),
     "learner_mode must be 'weighted' or 'resample', got 'bogus'"),
    (boost, "STOP_RULES", lambda v: BoostConfig(stop_rule=v),
     "stop_rule must be 'fixed' or 'consistency', got 'bogus'"),
    (harness, "SCENARIOS", lambda v: ExperimentConfig(scenario=v),
     "scenario must be 'normal' or 'sine', got 'bogus'"),
    (confidence, "CONFIDENCE_METHODS", lambda v: ExperimentConfig(confidence_method=v),
     "unknown confidence method 'bogus', expected 'knn' or 'bayes'"),
    (confidence, "FORMS", lambda v: confidence.check_settings(form=v),
     "form must be 'consistent' or 'paper-literal', got 'bogus'"),
    (confidence, "CONFIDENCE_METHODS",
     lambda v: confidence.estimate_confidence(Dataset(np.arange(8.0).reshape(4, 2), [1, -1, 1, -1]), method=v),
     "unknown confidence method 'bogus', expected 'knn' or 'bayes'"),
], ids=["learner_mode", "stop_rule", "scenario", "confidence_method", "form", "estimate_method"])
def test_choice_messages_read_their_tuple(monkeypatch, module, choices, make, text):
    # the tuple is patched where the check reads it
    with pytest.raises(ValueError) as exc:
        make("bogus")
    assert str(exc.value) == text
    monkeypatch.setattr(module, choices, getattr(module, choices) + ("extra",))
    with pytest.raises(ValueError, match="'extra'"):
        make("bogus")


class TestOneTablePerRepetition:
    """Every Neighbours construction is counted, wherever it happens."""

    @pytest.fixture()
    def tables(self, monkeypatch):
        built = []
        init = confidence.Neighbours.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(confidence.Neighbours, "__init__", counting_init)
        return built

    def grid(self, methods, reps=1):
        return ExperimentConfig(
            train_n=60, test_n=50, noise_levels=(0.0, 0.1, 0.2, 0.3), methods=methods,
            repetitions=reps, base_seed=5, boost=BoostConfig(max_iterations=3),
        )

    @pytest.mark.parametrize("reps", [1, 2])
    def test_one_table_for_all_noise_levels(self, tables, reps):
        table = run_experiment(self.grid(("adaboost", "cb"), reps))
        assert all(v is not None for cell in table.cells.values() for v in cell.values)
        assert len(tables) == reps

    def test_no_table_without_a_gamma_method(self, tables):
        run_experiment(self.grid(("stump", "adaboost")))
        assert tables == []


def non_default_config():
    return ExperimentConfig(
        scenario="sine",
        train_n=64,
        test_n=128,
        noise_levels=(0.1, 0.25),
        methods=("cb", "corr:0.4"),
        repetitions=3,
        base_seed=11,
        confidence_method="bayes",
        confidence_form="paper-literal",
        k=7,
        filter_thresholds=(0.2, 0.4),
        boost=BoostConfig(
            max_iterations=9, learner_mode="resample", seed=42, stop_rule="consistency",
            consistency_a=0.3, epsilon_clamp=1e-9,
        ),
        jobs=2,
    )


class TestConfigEcho:
    def test_frozen_for_a_non_default_config(self):
        cfg = non_default_config()
        config = json.loads(table_to_json(ResultsTable(config=cfg, cells={})))["config"]
        assert config == {
            "scenario": "sine",
            "train_n": 64,
            "test_n": 128,
            "noise_levels": [0.1, 0.25],
            "methods": ["cb", "corr:0.4"],
            "repetitions": 3,
            "base_seed": 11,
            "confidence_method": "bayes",
            "confidence_form": "paper-literal",
            "k": 7,
            "filter_thresholds": [0.2, 0.4],
            "boost": {
                "max_iterations": 9,
                "learner_mode": "resample",
                "stop_rule": "consistency",
                "consistency_a": 0.3,
                "epsilon_clamp": 1e-9,
            },
        }
        assert "jobs" not in config and "seed" not in config["boost"]

    def test_read_back_gives_the_config(self):
        cfg = non_default_config()
        config = json.loads(table_to_json(ResultsTable(config=cfg, cells={})))["config"]
        back = config_from_echo(config, "echo")
        assert back == replace(cfg, jobs=1, boost=replace(cfg.boost, seed=0))
        assert config_from_echo({}, "echo") == ExperimentConfig()

    @pytest.mark.parametrize("body, message", [
        ({"noise_levels": [0.1, "0.2"]}, r"noise_levels\[1\] must be a number"),
        ({"methods": ["cb", 5]}, r"methods\[1\] must be a string"),
        ({"boost": {"consistency_a": False}}, "boost.consistency_a must be a number"),
        ({"boost": []}, "boost must be a JSON object"),
    ])
    def test_read_rejects_wrong_json_types(self, body, message):
        with pytest.raises(ValueError, match=f"^cfg.json: .*{message}"):
            config_from_echo(body, "cfg.json")


def test_import_leaves_the_process_pool_unloaded():
    # only a run with more than one worker needs the pool; importing the
    # package, its CLI and a serial grid must not load multiprocessing
    code = (
        "import sys\n"
        "import cbboost, cbboost.cli\n"
        "from cbboost.boost import BoostConfig\n"
        "from cbboost.harness import ExperimentConfig, run_experiment\n"
        "run_experiment(ExperimentConfig(train_n=30, test_n=30, noise_levels=(0.0,), methods=('adaboost',),\n"
        "    repetitions=2, boost=BoostConfig(max_iterations=3), jobs=1))\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process', 'socket') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
