"""Plain AdaBoost through the one engine against the classical recursion.

The oracle below is the original single-weight trainer: one weight per
instance, a stump fitted to the normalized weights, a vote from the
log-odds of its weighted accuracy and a multiplicative exp(-y beta h)
update. train_adaboost now runs the confidence-weighted engine with every
gamma at 1 and must reproduce the oracle's ensembles and traces bit for bit.

A second oracle, eager_boost, is the two-weight engine as it was while it
stored every TraceRow as it went. The engine now keeps only what the next
round reads and its traces rebuild their rows by replay; both must match
the eager engine bit for bit, for any gamma.
"""

import logging

import numpy as np
import pytest

from cbboost import boost
from cbboost.boost import BoostConfig, BoostTrace, Ensemble, TraceRow, train_adaboost, train_cb_adaboost
from cbboost.confidence import ConfidenceVector, estimate_confidence
from cbboost.dataset import Dataset, inject_label_noise
from cbboost.stump import Presorted


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


@pytest.mark.parametrize(
    "ds, rounds, reason",
    [
        # the separable set above: 54 rounds, then the weights underflow
        (
            Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([-1, -1, 1, 1])),
            54,
            "weight mass not finite or zero",
        ),
        # the immediate-abort pair: no stump beats chance
        (Dataset(np.array([[0.0], [0.0]]), np.array([1, -1])), 0, "nonpositive vote"),
        (noisy_problem(0, 200), 200, "budget"),
    ],
)
def test_stop_reason_and_debug_line(ds, rounds, reason, caplog):
    with caplog.at_level(logging.DEBUG, logger="cbboost.boost"):
        ens, trace = train_adaboost(ds, BoostConfig(max_iterations=200))
    assert (ens.stopped_at, trace.stop_reason) == (rounds, reason)
    assert trace.stopped_early == (reason != "budget")
    ((got_rounds, got_reason, risk),) = [rec.args for rec in caplog.records if rec.name == "cbboost.boost"]
    assert (got_rounds, got_reason) == (rounds, reason)
    if rounds:
        assert same_bits(risk, trace.rows[-1].risk_after)


def test_stop_reason_must_fit_stopped_early():
    fields = dict(
        rows=(),
        final_w_observed=np.ones(2),
        final_w_flipped=np.zeros(2),
        observed_labels=np.array([1, -1]),
        epsilon_clamp=1e-12,
    )
    assert BoostTrace(**fields, stopped_early=True, stop_reason="nonpositive vote").stopped_early
    for early, reason in ((True, "budget"), (False, "nonpositive vote"), (True, "tired")):
        with pytest.raises(ValueError, match="stop_reason"):
            BoostTrace(**fields, stopped_early=early, stop_reason=reason)


def eager_boost(train, g, cfg=BoostConfig()):
    X = train.features
    y = train.labels
    n = train.n
    w_obs = g / n
    w_flip = (1.0 - g) / n
    if float(np.abs(w_obs - w_flip).sum()) <= 0.0:
        raise ValueError("every gamma equals 0.5: no informative instance to boost on")
    rng = np.random.default_rng(cfg.seed)
    fit_X = Presorted(X) if cfg.learner_mode == "weighted" else X
    rows = []
    terms = []
    stop_reason = "budget"
    for _ in range(cfg.iteration_cap(n)):
        diff = w_obs - w_flip
        absdiff = np.abs(diff)
        S = float(absdiff.sum())
        if not np.isfinite(S) or S <= 0.0:
            stop_reason = "weight mass not finite or zero"
            break
        D = absdiff / S
        yprime = np.where(diff >= 0.0, y, -y)
        stump = boost._fit_weak(fit_X, yprime, D, cfg, rng)
        h = stump.predict(X)
        wrong = h != y
        right = ~wrong
        right_mass = float(w_obs[right].sum()) + float(w_flip[wrong].sum())
        wrong_mass = float(w_obs[wrong].sum()) + float(w_flip[right].sum())
        beta, _ = boost._vote_from_sums(right_mass, wrong_mass, cfg.epsilon_clamp)
        wrong_eff = h != yprime
        _, raw_err = boost._vote_from_sums(
            float(absdiff[~wrong_eff].sum()), float(absdiff[wrong_eff].sum()), cfg.epsilon_clamp
        )
        if beta <= 0.0:
            stop_reason = "nonpositive vote"
            break
        margin = (y * beta) * h
        w_obs_new = w_obs * np.exp(-margin)
        w_flip_new = w_flip * np.exp(margin)
        rows.append(
            TraceRow(
                w_observed=w_obs,
                w_flipped=w_flip,
                sample_weights=D,
                effective_labels=yprime,
                predictions=h,
                beta=beta,
                weighted_error=raw_err,
                risk_after=float((w_obs_new + w_flip_new).sum()),
            )
        )
        terms.append((beta, stump))
        w_obs, w_flip = w_obs_new, w_flip_new
    trace = BoostTrace(
        rows=tuple(rows),
        final_w_observed=w_obs,
        final_w_flipped=w_flip,
        observed_labels=y,
        epsilon_clamp=cfg.epsilon_clamp,
        stopped_early=stop_reason != "budget",
        stop_reason=stop_reason,
    )
    return Ensemble(terms=tuple(terms), stopped_at=len(terms)), trace


def assert_replayed(got, want):
    assert got[1].stop_reason == want[1].stop_reason
    assert_identical(got, want)


FOUR = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([-1, -1, 1, 1]))


def gammas(kind, ds, seed):
    rng = np.random.default_rng(seed)
    if kind == "ones":
        return np.ones(ds.n)
    if kind == "knn":
        return estimate_confidence(ds)[0].gamma
    if kind == "off-grid":
        return rng.uniform(size=ds.n)
    # on the grid and off it, with rows that count only as flipped (0) and
    # rows that carry no gap at all (0.5)
    return rng.choice([0.0, 0.3, 0.5, 0.5, 0.8, 1.0], size=ds.n)


@pytest.mark.parametrize("kind", ["ones", "knn", "off-grid", "zero-and-half"])
@pytest.mark.parametrize("mode", ["weighted", "resample"])
@pytest.mark.parametrize("n, seed", [(30, 0), (200, 1), (500, 2)])
def test_replay_matches_eager_engine(kind, mode, n, seed):
    ds = noisy_problem(seed, n)
    g = gammas(kind, ds, seed)
    cfg = BoostConfig(max_iterations=60, learner_mode=mode, seed=seed + 5)
    assert_replayed(train_cb_adaboost(ds, ConfidenceVector(g), cfg), eager_boost(ds, g, cfg))


@pytest.mark.parametrize("kind", ["ones", "knn", "off-grid", "zero-and-half"])
def test_replay_under_consistency_stop_rule(kind):
    ds = noisy_problem(3, 150)
    g = gammas(kind, ds, 3)
    cfg = BoostConfig(max_iterations=200, stop_rule="consistency", consistency_a=0.4)
    got = train_cb_adaboost(ds, ConfidenceVector(g), cfg)
    assert len(got[0]) == 21
    assert_replayed(got, eager_boost(ds, g, cfg))


def test_plain_trainer_matches_eager_engine():
    ds = noisy_problem(4, 300)
    cfg = BoostConfig(max_iterations=80)
    assert_replayed(train_adaboost(ds, cfg), eager_boost(ds, np.ones(ds.n), cfg))


@pytest.mark.parametrize(
    "ds, g, rounds, reason",
    [
        (FOUR, [0.9, 0.8, 0.7, 0.6], 195, "nonpositive vote"),
        (Dataset(np.array([[0.0], [0.0]]), np.array([1, -1])), [0.9, 0.9], 0, "nonpositive vote"),
        # one flipped row: the perfect stump repeats until the weights underflow
        (FOUR, [1.0, 1.0, 0.0, 1.0], 54, "weight mass not finite or zero"),
        # one round leaves every pair balanced, so no gap is left to boost on
        (FOUR, [0.9, 0.9, 0.9, 0.9], 1, "weight mass not finite or zero"),
        (FOUR, [1.0, 1.0, 1.0, 0.5], 200, "budget"),
    ],
)
def test_replay_through_each_stop(ds, g, rounds, reason):
    g = np.array(g)
    cfg = BoostConfig(max_iterations=200)
    got = train_cb_adaboost(ds, ConfidenceVector(g), cfg)
    assert (len(got[0]), got[1].stop_reason) == (rounds, reason)
    assert_replayed(got, eager_boost(ds, g, cfg))


def test_rows_replay_once_and_only_when_read(monkeypatch):
    calls = []
    replay = boost._replay

    def counted(*args):
        calls.append(1)
        return replay(*args)

    monkeypatch.setattr(boost, "_replay", counted)
    ds = noisy_problem(0, 100)
    _, trace = train_adaboost(ds, BoostConfig(max_iterations=12))
    assert (len(trace.rows), trace.iterations, calls) == (12, 12, [])
    first = trace.rows[0]
    assert trace.rows[0] is first and list(trace.rows)[-1] is trace.rows[-1]
    assert calls == [1]
