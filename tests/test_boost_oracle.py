"""Plain AdaBoost through the one engine against the classical recursion.

The oracle below is the original single-weight trainer: one weight per
instance, a stump fitted to the normalized weights, a vote from the
log-odds of its weighted accuracy and a multiplicative exp(-y beta h)
update. train_adaboost now runs the confidence-weighted engine with every
gamma at 1 and must reproduce the oracle's ensembles and traces bit for bit.
"""

import numpy as np
import pytest

from cbboost import boost
from cbboost.boost import BoostConfig, BoostTrace, Ensemble, TraceRow, train_adaboost
from cbboost.dataset import Dataset, inject_label_noise


def oracle_train_adaboost(train, cfg=BoostConfig()):
    boost._check_trainable(train)
    X = train.features
    y = train.labels
    n = train.n
    rng = np.random.default_rng(cfg.seed)
    w = np.full(n, 1.0 / n)
    zeros = np.zeros(n)
    rows = []
    terms = []
    stopped_early = False
    for _ in range(cfg.iteration_cap(n)):
        S = float(np.sum(w))
        if not np.isfinite(S) or S <= 0.0:
            stopped_early = True
            break
        D = w / S
        stump = boost._fit_weak(X, y, D, cfg, rng)
        h = stump.predict(X)
        wrong = h != y
        right_mass = float(np.sum(w[~wrong]))
        wrong_mass = float(np.sum(w[wrong]))
        beta, raw_err = boost._vote_from_sums(right_mass, wrong_mass, cfg.epsilon_clamp)
        if beta <= 0.0:
            stopped_early = True
            break
        w_new = w * np.exp(-(y * beta) * h)
        rows.append(
            TraceRow(
                w_observed=w,
                w_flipped=zeros,
                sample_weights=D,
                effective_labels=y,
                predictions=h,
                beta=beta,
                weighted_error=raw_err,
                risk_after=float(np.sum(w_new)),
            )
        )
        terms.append((beta, stump))
        w = w_new
    trace = BoostTrace(
        rows=tuple(rows),
        final_w_observed=w,
        final_w_flipped=zeros,
        observed_labels=y,
        epsilon_clamp=cfg.epsilon_clamp,
        stopped_early=stopped_early,
    )
    return Ensemble(terms=tuple(terms), stopped_at=len(terms)), trace


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_identical(got, want):
    (ens, tr), (ens_o, tr_o) = got, want
    assert ens.stopped_at == ens_o.stopped_at
    assert len(ens.terms) == len(ens_o.terms)
    for (b, s), (bo, so) in zip(ens.terms, ens_o.terms):
        assert same_bits(b, bo) and s == so
    assert tr.stopped_early == tr_o.stopped_early
    assert tr.epsilon_clamp == tr_o.epsilon_clamp
    for name in ("final_w_observed", "final_w_flipped", "observed_labels"):
        assert same_bits(getattr(tr, name), getattr(tr_o, name)), name
    assert len(tr.rows) == len(tr_o.rows)
    for m, (r, ro) in enumerate(zip(tr.rows, tr_o.rows)):
        for name in ("w_observed", "w_flipped", "sample_weights", "effective_labels", "predictions"):
            assert same_bits(getattr(r, name), getattr(ro, name)), f"round {m}: {name}"
        for name in ("beta", "weighted_error", "risk_after"):
            assert same_bits(getattr(r, name), getattr(ro, name)), f"round {m}: {name}"


def noisy_problem(seed, n, p=3, flip=0.2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = np.where(X[:, 0] - 0.7 * X[:, 1] + 0.3 * np.sin(3 * X[:, 2]) > 0, 1, -1)
    ds, _ = inject_label_noise(Dataset(X, y), flip, seed + 1)
    return ds


@pytest.mark.parametrize("mode", ["weighted", "resample"])
@pytest.mark.parametrize("n", [7, 30, 200, 500])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_problems(seed, n, mode):
    ds = noisy_problem(seed, n)
    cfg = BoostConfig(max_iterations=60, learner_mode=mode, seed=seed + 17)
    assert_identical(train_adaboost(ds, cfg), oracle_train_adaboost(ds, cfg))


def test_integer_grid_features_with_ties():
    rng = np.random.default_rng(5)
    X = rng.integers(0, 4, size=(80, 2)).astype(np.float64)
    y = rng.choice([-1, 1], size=80)
    cfg = BoostConfig(max_iterations=100)
    assert_identical(train_adaboost(Dataset(X, y), cfg), oracle_train_adaboost(Dataset(X, y), cfg))


@pytest.mark.parametrize("mode", ["weighted", "resample"])
def test_consistency_stop_rule(mode):
    ds = noisy_problem(3, 150)
    cfg = BoostConfig(max_iterations=200, learner_mode=mode, stop_rule="consistency", consistency_a=0.4)
    got = train_adaboost(ds, cfg)
    assert len(got[0]) == cfg.iteration_cap(ds.n) == 21
    assert_identical(got, oracle_train_adaboost(ds, cfg))


def test_separable_set_runs_to_underflow():
    # every round repeats the same perfect stump at the clamped vote, so the
    # weights shrink by e^-13.8 per round until they underflow to 0.0
    ds = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([-1, -1, 1, 1]))
    cfg = BoostConfig(max_iterations=200)
    got = train_adaboost(ds, cfg)
    assert got[0].stopped_at == 54 and got[1].stopped_early
    assert np.all(got[1].final_w_observed == 0.0)
    assert_identical(got, oracle_train_adaboost(ds, cfg))


def test_immediate_abort():
    ds = Dataset(np.array([[0.0], [0.0]]), np.array([1, -1]))
    got = train_adaboost(ds)
    assert got[0].stopped_at == 0 and got[1].stopped_early
    assert_identical(got, oracle_train_adaboost(ds))
