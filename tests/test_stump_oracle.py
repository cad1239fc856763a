"""Presorted stump fitting against the per-call sorting reference.

The oracle below is the original trainer: every call sorts each column
again, recomputes its candidate thresholds and split positions, and then
runs the same cumulative-sum bracket and the original exact re-scoring pass,
which predicts and masks each polarity separately. Fitting on a Presorted
matrix, built once and swept many times, must return the same (feature,
threshold, polarity) bit for bit.
"""

import math

import numpy as np
import pytest

from cbboost import boost
from cbboost.boost import BoostConfig, train_adaboost
from cbboost.dataset import inject_label_noise
from cbboost.stump import Presorted, candidate_thresholds, train_stump
from cbboost.synth import gen_normal


def oracle_exact_error(col, t, pol, y, w):
    pred = np.where(col > t, pol, -pol)
    return math.fsum(w[pred != y])


def oracle_train_stump(X, y, w):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    n, p = X.shape
    total = float(np.sum(w))
    slack = 16.0 * np.finfo(np.float64).eps * (n + 4) * total
    wp = w * (y > 0)
    wn = w * (y < 0)
    per_feature = []
    approx_min = np.inf
    for j in range(p):
        col = X[:, j]
        thr = candidate_thresholds(col)
        order = np.argsort(col, kind="stable")
        xs = col[order]
        cp = np.concatenate(([0.0], np.cumsum(wp[order])))
        cn = np.concatenate(([0.0], np.cumsum(wn[order])))
        k = np.searchsorted(xs, thr, side="right")
        err_pos = cp[k] + (cn[-1] - cn[k])
        err_neg = (cp[-1] - cp[k]) + cn[k]
        per_feature.append((thr, err_pos, err_neg))
        approx_min = min(approx_min, float(err_pos.min()), float(err_neg.min()))
    best_err = np.inf
    best = None
    for j in range(p):
        thr, err_pos, err_neg = per_feature[j]
        near = np.flatnonzero(np.minimum(err_pos, err_neg) <= approx_min + slack)
        for i in near:
            t = float(thr[i])
            for pol in (1, -1):
                e = oracle_exact_error(X[:, j], t, pol, y, w)
                if e < best_err:
                    best_err = e
                    best = (j, t, pol)
    return best


def bits(stump_or_tuple):
    if isinstance(stump_or_tuple, tuple):
        j, t, pol = stump_or_tuple
    else:
        j, t, pol = stump_or_tuple.feature, stump_or_tuple.threshold, stump_or_tuple.polarity
    return j, float(t).hex(), pol


def assert_same(X, y, w, ps=None):
    want = bits(oracle_train_stump(X, y, w))
    assert bits(train_stump(Presorted(X) if ps is None else ps, y, w)) == want
    assert bits(train_stump(X, y, w)) == want


def labels_and_weights(rng, n, zero_share=0.0):
    y = rng.choice([-1, 1], size=n)
    w = rng.random(n)
    w[rng.random(n) < zero_share] = 0.0
    if w.sum() == 0.0:
        w[0] = 1.0
    return y, w


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", range(6))
def test_integer_grid_ties_and_duplicated_rows(p, seed):
    rng = np.random.default_rng(100 * p + seed)
    base = rng.integers(-2, 3, size=(int(rng.integers(3, 40)), p)).astype(np.float64)
    X = np.vstack([base, base[rng.integers(0, base.shape[0], size=base.shape[0])]])
    y, w = labels_and_weights(rng, X.shape[0])
    assert_same(X, y, w)
    # uniform weights make many candidates tie exactly
    assert_same(X, y, np.ones(X.shape[0]))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_constant_columns_and_zero_weight_rows(p):
    rng = np.random.default_rng(p)
    for trial in range(20):
        n = int(rng.integers(2, 30))
        X = rng.normal(size=(n, p))
        X[:, rng.random(p) < 0.5] = 1.5
        y, w = labels_and_weights(rng, n, zero_share=0.4)
        assert_same(X, y, w)


@pytest.mark.parametrize("p", [1, 3, 5])
def test_single_row(p):
    X = np.arange(p, dtype=np.float64)[None, :]
    for y in ([1], [-1]):
        assert_same(X, y, [0.25])


@pytest.mark.parametrize("scale", [1e-200, 1e200])
@pytest.mark.parametrize("p", [1, 2, 5])
def test_extreme_weight_scales(scale, p):
    rng = np.random.default_rng(7 + p)
    for trial in range(20):
        n = int(rng.integers(1, 50))
        X = rng.integers(0, 4, size=(n, p)).astype(np.float64)
        y, w = labels_and_weights(rng, n, zero_share=0.2)
        assert_same(X, y, w * scale)


def test_one_presort_serves_fifty_weight_vectors():
    rng = np.random.default_rng(11)
    X = np.round(rng.normal(size=(300, 4)), 1)
    ps = Presorted(X)
    y = rng.choice([-1, 1], size=300)
    for trial in range(50):
        w = rng.random(300) ** (1 + trial % 5)
        w[rng.random(300) < 0.1] = 0.0
        yt = np.where(rng.random(300) < 0.1, -y, y)
        assert_same(X, yt, w, ps=ps)


def test_cache_is_a_read_only_copy():
    X = np.array([[2.0, 0.0], [1.0, 1.0], [3.0, 1.0]])
    ps = Presorted(X)
    X[:] = 0.0
    col, order, thr, split = ps.columns[0]
    assert col.tolist() == [2.0, 1.0, 3.0]
    assert order.tolist() == [1, 0, 2]
    assert thr.tolist() == [-np.inf, 1.5, 2.5]
    assert split.tolist() == [0, 1, 2]
    for arrays in ps.columns:
        for a in arrays:
            assert not a.flags.writeable


def test_presorted_fit_checks_labels_and_weights():
    ps = Presorted(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match="do not match"):
        train_stump(ps, [1, -1, 1], [1.0, 1.0])
    with pytest.raises(ValueError, match="labels must be"):
        train_stump(ps, [1, 0], [1.0, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        train_stump(ps, [1, -1], [1.0, -1.0])
    with pytest.raises(ValueError, match="features must be finite"):
        Presorted(np.array([[np.nan], [0.0]]))


class TestOneSortPerRun:
    """Every Presorted construction is counted, wherever it happens."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = {"presorts": 0, "fits": 0}
        init = Presorted.__init__
        fit = boost.train_stump

        def counting_init(self, features):
            counts["presorts"] += 1
            init(self, features)

        def counting_fit(*args):
            counts["fits"] += 1
            return fit(*args)

        monkeypatch.setattr(Presorted, "__init__", counting_init)
        monkeypatch.setattr(boost, "train_stump", counting_fit)
        return counts

    @pytest.fixture(scope="class")
    def train(self):
        ds, _ = inject_label_noise(gen_normal(200, seed=3), 0.2, seed=4)
        return ds

    def test_weighted_run_presorts_once(self, counts, train):
        ens, _ = train_adaboost(train, BoostConfig(max_iterations=200))
        assert ens.stopped_at == 200
        assert counts == {"presorts": 1, "fits": 200}

    def test_resample_run_presorts_every_round(self, counts, train):
        ens, trace = train_adaboost(train, BoostConfig(max_iterations=40, learner_mode="resample"))
        # a run stopped by a nonpositive vote fitted one stump it did not keep
        assert counts["fits"] == ens.stopped_at + trace.stopped_early > 1
        assert counts["presorts"] == counts["fits"]

