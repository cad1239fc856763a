"""Shared fixtures: the benchmark tables, trace bundles and scoring-kernel spy used across test modules.

Everything heavy is session-scoped so the 30-repetition tables are built once.
All fixtures derive from base_seed 20240501; workers only speed things up,
they never change results (asserted separately in test_harness).
"""

import numpy as np
import pytest

from cbboost import boost
from cbboost.boost import BoostConfig, check_propositions, train_adaboost, train_cb_adaboost
from cbboost.confidence import confidence_quality, estimate_confidence
from cbboost.dataset import inject_label_noise
from cbboost.harness import (
    ExperimentConfig,
    derive_seed,
    run_experiment,
    weight_trace_groups,
)
from cbboost.synth import gen_normal

BASE_SEED = 20240501


@pytest.fixture(scope="session")
def normal_weighted_table():
    cfg = ExperimentConfig(
        scenario="normal",
        noise_levels=(0.0, 0.1, 0.2),
        methods=("adaboost", "cb"),
        repetitions=30,
        base_seed=BASE_SEED,
        confidence_method="knn",
        boost=BoostConfig(max_iterations=200, learner_mode="weighted"),
        jobs=4,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="session")
def sine_weighted_table():
    cfg = ExperimentConfig(
        scenario="sine",
        noise_levels=(0.2, 0.3),
        methods=("adaboost", "cb"),
        repetitions=30,
        base_seed=BASE_SEED,
        confidence_method="knn",
        boost=BoostConfig(max_iterations=200, learner_mode="weighted"),
        jobs=4,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="session")
def normal_resample_table():
    cfg = ExperimentConfig(
        scenario="normal",
        noise_levels=(0.1, 0.2),
        methods=("adaboost", "cb"),
        repetitions=30,
        base_seed=BASE_SEED,
        confidence_method="knn",
        boost=BoostConfig(max_iterations=200, learner_mode="resample", seed=0),
        jobs=4,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="session")
def sine_resample_cb_table():
    cfg = ExperimentConfig(
        scenario="sine",
        noise_levels=(0.3,),
        methods=("cb",),
        repetitions=30,
        base_seed=BASE_SEED,
        confidence_method="knn",
        boost=BoostConfig(max_iterations=200, learner_mode="resample", seed=0),
        jobs=4,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="session")
def bayes_quality_runs():
    """Per-repetition clean/mislabeled confidence stats, Normal 10%, Bayes consistent."""
    out = []
    for rep in range(30):
        train = gen_normal(500, derive_seed(BASE_SEED, rep, "train"))
        noisy, mask = inject_label_noise(train, 0.1, derive_seed(BASE_SEED, rep, "noise@0.1"))
        gamma, _ = estimate_confidence(noisy, method="bayes", noise_level=0.1, form="consistent")
        out.append(confidence_quality(gamma, mask))
    return out


@pytest.fixture(scope="session")
def normal_trace_runs():
    """Ten matched AdaBoost / confidence-weighted runs on Normal 10% with full
    group trajectories, kept small: per-rep group weight series plus risk series."""
    runs = []
    cfg = BoostConfig(max_iterations=200, learner_mode="weighted")
    for rep in range(10):
        train = gen_normal(500, derive_seed(BASE_SEED, rep, "train"))
        noisy, mask = inject_label_noise(train, 0.1, derive_seed(BASE_SEED, rep, "noise@0.1"))
        gamma, _ = estimate_confidence(noisy, method="knn")
        ens_a, tr_a = train_adaboost(noisy, cfg)
        ens_c, tr_c = train_cb_adaboost(noisy, gamma, cfg)
        runs.append(
            {
                "groups_ada": weight_trace_groups(tr_a, mask=mask),
                "groups_cb": weight_trace_groups(tr_c, mask=mask, gamma=gamma),
                "risk_ada": [row.risk_after for row in tr_a.rows],
                "risk_cb": [row.risk_after for row in tr_c.rows],
                "props_cb": check_propositions(tr_c),
                "iters_ada": tr_a.iterations,
                "iters_cb": tr_c.iterations,
            }
        )
    return runs


@pytest.fixture()
def kernel_rows(monkeypatch):
    """The row count of each run of boost's term-by-term scoring kernel.

    Scoring by cell runs it once on one point per cell; scoring row by row
    runs it once on the input's rows.
    """
    rows, kernel = [], boost._term_scores

    def counting(terms, X):
        rows.append(X.shape[0])
        return kernel(terms, X)

    monkeypatch.setattr(boost, "_term_scores", counting)
    return rows
