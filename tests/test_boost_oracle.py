"""Plain AdaBoost through the one engine against the classical recursion.

The oracle below is the original single-weight trainer: one weight per
instance, a stump fitted to the normalized weights, a vote from the
log-odds of its weighted accuracy and a multiplicative exp(-y beta h)
update. Its weak learner fits the weights, or in resample mode the
bootstrap's own copies of the rows. train_adaboost now runs the
confidence-weighted engine with every gamma at 1 and must reproduce the
oracle's ensembles and traces bit for bit.

A second oracle, eager_boost, is the two-weight engine as it was while it
stored every TraceRow as it went. The engine now keeps only what the next
round reads and its traces rebuild their rows by replay; both must match
the eager engine bit for bit, for any gamma.

The third oracle is the term-by-term scoring kernel run on the rows
themselves. Scoring by cell runs the same kernel on one point per cell and
must give every row the kernel's score bit for bit.

The last is the original weight update, an n-long exp of the signed
margin; the engine's two-entry exp table must give the same bits.
"""

import functools
import logging
import math

import numpy as np
import pytest

from cbboost import boost
from cbboost.boost import (
    BoostConfig,
    BoostTrace,
    Ensemble,
    TraceRow,
    empirical_risk,
    predict,
    score,
    train_adaboost,
    train_cb_adaboost,
)
from cbboost.confidence import ConfidenceVector, estimate_confidence
from cbboost.dataset import Dataset, inject_label_noise
from cbboost.stump import Presorted, Stump, train_stump
from cbboost.synth import gen_normal
from cbboost.util import sign_pm


def reference_fit(X, y, D, cfg, rng):
    # the per-sample weak learner: weighted mode fits the weights, resample
    # mode the bootstrap's own copies of the rows, each weighing 1/n; the
    # engine fits its one Presorted by draw counts and must agree
    if cfg.learner_mode == "weighted":
        return train_stump(X, y, D)
    n = X.shape[0]
    idx = rng.choice(n, size=n, replace=True, p=D)
    return train_stump(X[idx], y[idx], np.full(n, 1.0 / n))


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
    stop_reason = "budget"
    for _ in range(cfg.iteration_cap(n)):
        S = float(np.sum(w))
        if not np.isfinite(S) or S <= 0.0:
            stop_reason = "weight mass not finite or zero"
            break
        D = w / S
        stump = reference_fit(X, y, D, cfg, rng)
        h = stump.predict(X)
        wrong = h != y
        right_mass = float(np.sum(w[~wrong]))
        wrong_mass = float(np.sum(w[wrong]))
        beta, raw_err = boost._vote_from_sums(right_mass, wrong_mass, cfg.epsilon_clamp)
        if beta <= 0.0:
            stop_reason = "nonpositive vote"
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
        epsilon_clamp=cfg.epsilon_clamp,
        stop_reason=stop_reason,
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
    for name in ("final_w_observed", "final_w_flipped"):
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
    # stopped_early is derived from stop_reason, so the two cannot disagree
    fields = dict(
        rows=(),
        final_w_observed=np.ones(2),
        final_w_flipped=np.zeros(2),
        epsilon_clamp=1e-12,
    )
    assert not BoostTrace(**fields, stop_reason="budget").stopped_early
    assert BoostTrace(**fields, stop_reason="nonpositive vote").stopped_early
    with pytest.raises(ValueError, match="stop_reason"):
        BoostTrace(**fields, stop_reason="tired")


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
        stump = reference_fit(fit_X, yprime, D, cfg, rng)
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
        epsilon_clamp=cfg.epsilon_clamp,
        stop_reason=stop_reason,
    )
    return Ensemble(terms=tuple(terms), stopped_at=len(terms)), trace


def assert_replayed(got, want):
    assert got[1].stop_reason == want[1].stop_reason
    assert_identical(got, want)


FOUR = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([-1, -1, 1, 1]))
# each x holds a row of either label: under equal gammas every stump's two
# masses are the same sums, so the first vote is exactly zero
PAIRS = Dataset(np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([1, -1, 1, -1]))
# a gamma of 0 flips a row, so the effective labels are -1 at x=0, +1 at x=1
MIRROR = Dataset(np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]]), np.array([-1, 1, -1, 1, -1, 1]))
MIRROR_G = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])


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
        (PAIRS, [0.9, 0.9, 0.6, 0.6], 0, "nonpositive vote"),
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


@pytest.mark.parametrize("nudge", [0.0, np.inf, -np.inf], ids=["exp", "exp an ulp up", "exp an ulp down"])
def test_replay_through_a_later_nonpositive_vote(monkeypatch, nudge):
    # A bootstrap sample holding both x values gives the separating stump, a
    # round with no weighted error, so every weight shrinks by the same
    # clamped factor; one holding a single x gives a constant stump, whose two
    # masses are the same sums. The sample weights stay exactly uniform, so the
    # draws, the stumps and the stop round do not depend on np.exp's last bit.
    if nudge:
        exp = np.exp
        monkeypatch.setattr(np, "exp", lambda x: np.nextafter(exp(x), nudge))
    cfg = BoostConfig(max_iterations=200, learner_mode="resample", seed=2)
    got = train_cb_adaboost(MIRROR, ConfidenceVector(MIRROR_G), cfg)
    assert (len(got[0]), got[1].stop_reason) == (38, "nonpositive vote")
    assert_replayed(got, eager_boost(MIRROR, MIRROR_G, cfg))


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


KERNEL = boost._term_scores


def cell_count(ens):
    features = {s.feature for _, s in ens.terms}
    return math.prod(len({s.threshold for _, s in ens.terms if s.feature == f}) + 1 for f in features)


def random_ensemble(seed, p, size, thresholds=None):
    # dyadic votes; thresholds drawn from the given list, else from N(0, 1)
    rng = np.random.default_rng(seed)
    terms = tuple(
        (
            float(rng.choice([0.25, 0.5, 1.0])),
            Stump(int(rng.integers(p)), float(rng.choice(thresholds) if thresholds else rng.normal()),
                  int(rng.choice([-1, 1]))),
        )
        for _ in range(size)
    )
    return Ensemble(terms=terms, stopped_at=size)


@functools.lru_cache(maxsize=2)
def trained(algo):
    noisy, _ = inject_label_noise(gen_normal(500, 31), 0.2, 32)
    if algo == "adaboost":
        return train_adaboost(noisy)[0]
    return train_cb_adaboost(noisy, estimate_confidence(noisy)[0])[0]


NON_FINITE = np.array([[a, b] for a in (np.nan, np.inf, -np.inf, 0.5) for b in (np.nan, np.inf, -np.inf, -1.0)])
SIGNED_ZEROS = np.array([[a, b] for a in (-0.0, 0.0, -1e-300, 1e-300) for b in (0.0, -0.0, 1.0, -1.0)])
STEPS = [-np.inf, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]

# name: (ensemble, rows) builder, and the path that must score it
SCORING_CASES = {
    "integer grid on its thresholds": (
        lambda: (random_ensemble(0, 2, 120, STEPS),
                 np.random.default_rng(1).integers(-3, 4, size=(2000, 2)).astype(np.float64)),
        "cells",
    ),
    "-inf sentinels": (
        lambda: (random_ensemble(2, 3, 40, [-np.inf, -np.inf, 0.25]), np.random.default_rng(3).normal(size=(500, 3))),
        "cells",
    ),
    "non-finite rows, tiled": (lambda: (random_ensemble(4, 2, 60, STEPS), np.tile(NON_FINITE, (40, 1))), "cells"),
    "non-finite rows": (lambda: (random_ensemble(4, 2, 60, STEPS), NON_FINITE), "rows"),
    "-0.0 and 0.0 thresholds, tiled": (
        lambda: (random_ensemble(5, 2, 60, [-0.0, 0.0]), np.tile(SIGNED_ZEROS, (4, 1))),
        "cells",
    ),
    "p=1, 200 terms": (lambda: (random_ensemble(6, 1, 200), np.random.default_rng(7).normal(size=(1000, 1))), "cells"),
    "p=10, 200 terms": (
        lambda: (random_ensemble(8, 10, 200), np.random.default_rng(9).normal(size=(1000, 10))),
        "rows",
    ),
    "one row": (lambda: (trained("adaboost"), np.array([[0.3, -0.2]])), "rows"),
    "adaboost, 10k rows": (lambda: (trained("adaboost"), gen_normal(10000, 33).features), "cells"),
    "cb, 10k rows": (lambda: (trained("cb"), gen_normal(10000, 33).features), "cells"),
}


@pytest.mark.parametrize("case", SCORING_CASES)
def test_score_by_cell_matches_the_kernel(case, kernel_rows):
    build, path = SCORING_CASES[case]
    ens, X = build()
    want = KERNEL(ens.terms, X)
    got = score(ens, X)
    # the kernel ran once, on one point per cell or on the rows themselves
    assert (cell_count(ens) <= X.shape[0]) == (path == "cells")
    assert kernel_rows == [cell_count(ens) if path == "cells" else X.shape[0]]
    assert got.tobytes() == want.tobytes()
    assert predict(ens, X).tobytes() == sign_pm(want).tobytes()


@pytest.mark.parametrize("gamma", [False, True])
@pytest.mark.parametrize("n, path", [(10000, "cells"), (300, "rows")])
def test_empirical_risk_by_cell_matches_the_kernel(gamma, n, path, kernel_rows):
    ens = trained("cb")
    ds = gen_normal(n, 34)
    margin = ds.labels * KERNEL(ens.terms, ds.features)
    if gamma:
        g = np.random.default_rng(35).choice([0.0, 0.2, 0.5, 0.9, 1.0], size=n)
        want = float(np.mean(g * np.exp(-margin) + (1.0 - g) * np.exp(margin)))
        got = empirical_risk(ens, ds, ConfidenceVector(g))
    else:
        want = float(np.mean(np.exp(-margin)))
        got = empirical_risk(ens, ds)
    assert same_bits(got, want)
    assert kernel_rows == [cell_count(ens) if path == "cells" else n]


# the vote spans many scales: tiny, ordinary, and up to where exp(beta) nears overflow
UPDATE_BETAS = np.concatenate(
    ([1e-8, 0.5, 1.0, 700.0], np.logspace(-8, math.log10(700.0), 40), np.random.default_rng(40).uniform(0.0, 700.0, 60))
)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 500, 5001])
def test_two_value_update_matches_the_n_long_exp(n):
    # the engine scales each weight by one entry of exp([-beta, beta]); the
    # original update took exp of the whole signed margin, bit for bit the same
    rng = np.random.default_rng(n)
    for beta in UPDATE_BETAS.tolist():
        w_obs, w_flip = rng.random(n), rng.random(n)
        hit = rng.random(n) < 0.6
        margin = np.where(hit, beta, -beta)
        got_obs, got_flip = boost._reweighed(w_obs, w_flip, hit, beta)
        assert same_bits(got_obs, w_obs * np.exp(-margin)), beta
        assert same_bits(got_flip, w_flip * np.exp(margin)), beta
        assert boost._reweighed(w_obs, None, hit, beta)[1] is None


@pytest.mark.parametrize("n", [1, 7, 8, 9, 500, 5001])
def test_labels_picked_by_mask_match_np_where(n):
    # the engine takes y's sign by a mask's bytes where the original called
    # np.where(diff >= 0, y, -y); diffs include NaN, both zeros, infinities
    # and subnormals, which only the comparison itself decides
    rng = np.random.default_rng(44 + n)
    specials = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-300, -1.0])
    y = rng.choice([-1, 1], size=n).astype(np.int64)
    for diff in (rng.choice(specials, size=n), rng.normal(size=n), np.full(n, -0.0), np.full(n, np.nan)):
        mask = diff >= 0.0
        got = y * boost._by_mask(np.array([-1, 1], dtype=y.dtype), mask)
        assert got.dtype == y.dtype
        assert got.tobytes() == np.where(mask, y, -y).tobytes()
