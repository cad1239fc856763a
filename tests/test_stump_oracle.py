"""Presorted stump fitting against the per-call sorting reference.

The oracle below is the original trainer: every call sorts each column
again, recomputes its candidate thresholds and split positions, and then
runs the same cumulative-sum bracket and the original exact re-scoring pass,
which predicts and masks each polarity separately. Fitting on a Presorted
matrix, built once and swept many times, must return the same (feature,
threshold, polarity) bit for bit. So must resample mode's fit of the run's
Presorted by draw counts, against a fit on the bootstrap's own copies.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbboost import boost
from cbboost.boost import BoostConfig, train_adaboost
from cbboost.dataset import inject_label_noise
from cbboost.stump import Presorted, candidate_thresholds, sample_threshold, train_stump
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
    col, order, thr, at = ps.columns[0]
    assert col.tolist() == [2.0, 1.0, 3.0]
    assert order.tolist() == [1, 0, 2]
    assert thr.tolist() == [-np.inf, 1.5, 2.5]
    assert at == slice(0, 2)
    # the tied column's positions are an array
    assert ps.columns[1][3].tolist() == [0]
    for col, order, thr, at in ps.columns:
        for a in (col, order, thr) + (() if isinstance(at, slice) else (at,)):
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


@pytest.mark.parametrize("presort", [False, True])
def test_overflowing_weight_total_is_rejected(presort):
    X = np.arange(10.0)[:, None]
    features = Presorted(X) if presort else X
    y = np.where(X[:, 0] > 4, 1, -1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^total weight must be finite and positive, got inf$"):
            train_stump(features, y, np.full(10, 1e308))


@pytest.fixture()
def fsum_calls(monkeypatch):
    """Lengths of the math.fsum calls made since the last clear()."""
    calls = []
    fsum = math.fsum

    def counting(values):
        calls.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting)
    return calls


def fit_counted(X, y, w, fsum_calls):
    want = bits(oracle_train_stump(X, y, w))
    fsum_calls.clear()
    got = bits(train_stump(X, y, w))
    assert got == want
    return len(fsum_calls)


def test_lone_bracketed_pair_skips_the_exact_pass(fsum_calls):
    rng = np.random.default_rng(21)
    for trial in range(40):
        n, p = int(rng.integers(20, 400)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = np.where(X[:, 0] + rng.normal(size=n) > 0, 1, -1)
        assert fit_counted(X, y, rng.random(n), fsum_calls) == 0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_integer_grid_ties_reach_the_exact_pass(p, fsum_calls):
    # a duplicated column makes every optimum tie across two features
    rng = np.random.default_rng(30 + p)
    for trial in range(10):
        base = rng.integers(-2, 3, size=(int(rng.integers(5, 80)), p)).astype(np.float64)
        X = np.hstack([base, base])
        y = rng.choice([-1, 1], size=X.shape[0])
        assert fit_counted(X, y, np.full(X.shape[0], 0.1), fsum_calls) >= 2


@pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
def test_errors_a_few_ulps_apart_resolve_exactly(ulps, fsum_calls):
    # splitting at 1.5 misclassifies only row 4 on feature 0 and only row 5
    # on feature 1; their weights differ by a few ulps, far inside the slack
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [0.5, 2.5], [2.5, 0.5]])
    y = np.array([-1, -1, 1, 1, 1, 1])
    w = np.array([0.3, 0.3, 0.3, 0.3, 0.1 + ulps * math.ulp(0.1), 0.1])
    assert fit_counted(X, y, w, fsum_calls) == 2
    assert bits(train_stump(X, y, w)) == (int(ulps > 0), (1.5).hex(), 1)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_whole_weights_skip_the_exact_pass(p, fsum_calls):
    # whole weights totalling under 2^53 make the sweep's errors exact, so
    # the same integer-grid ties are decided without fsum; at or above 2^53
    # they are re-scored as before
    rng = np.random.default_rng(60 + p)
    for trial in range(10):
        base = rng.integers(-2, 3, size=(int(rng.integers(5, 80)), p)).astype(np.float64)
        X = np.hstack([base, base])
        y = rng.choice([-1, 1], size=X.shape[0])
        counts = rng.integers(0, 4, size=X.shape[0]).astype(np.float64)
        counts[0] += 1.0
        assert fit_counted(X, y, counts, fsum_calls) == 0
        assert fit_counted(X, y, counts * 2.0**50, fsum_calls) >= 2 * (counts.sum() >= 8)
        assert fit_counted(X, y, counts + 0.5, fsum_calls) >= 2


def test_near_ties_gather_what_boolean_indexing_would(monkeypatch):
    # the exact pass hands fsum each bracketed pair's wrong weights as
    # w[mask] gives them: the same values in the same order
    seen, fsum = [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda values: seen.append(np.array(values)) or fsum(values))
    rng = np.random.default_rng(41)
    for trial in range(30):
        base = rng.integers(-2, 3, size=(int(rng.integers(5, 60)), 2)).astype(np.float64)
        X = np.hstack([base, base])
        y, w = labels_and_weights(rng, X.shape[0])
        seen.clear()
        assert bits(train_stump(X, y, w)) == bits(oracle_train_stump(X, y, w))
        masks = {
            w[(X[:, j] > t) != (y * pol > 0)].tobytes()
            for j in range(X.shape[1])
            for t in candidate_thresholds(X[:, j])
            for pol in (1, -1)
        }
        assert len(seen) >= 2 and all(v.tobytes() in masks for v in seen)


def test_random_fits_match_the_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(1200):
        n, p = int(rng.integers(1, 120)), int(rng.integers(1, 5))
        X = [
            rng.integers(-2, 3, size=(n, p)).astype(np.float64),
            np.round(rng.normal(size=(n, p)), 1),
            rng.normal(size=(n, p)),
        ][trial % 3]
        y, w = labels_and_weights(rng, n, zero_share=0.3 * (trial % 2))
        if trial % 4 == 0:
            # uniform weights make exact ties that the sweep's rounding can split
            w = np.where(w > 0.0, 1.0 / n, 0.0)
        if trial % 7 == 3:
            # every row again with the other label: each pair errs by half the
            # weight, so both polarities tie everywhere
            X, y, w = np.vstack([X, X]), np.concatenate([y, -y]), np.concatenate([w, w])
        scale = (1.0, 1e-200, 1e200, 1e-200, 1e200, 1.0)[trial % 6]
        assert_same(X, y, w * scale)
        if trial % 10 == 0:
            # multiples of the smallest subnormal: the slack rounds to zero
            assert_same(X, y, np.maximum(np.round(w * 4), (w > 0) * 1.0) * 5e-324)


def column(rng, kind, n):
    """One feature column: distinct, tied, constant, a few ulps apart, or one of the bootstrap kinds."""
    if kind == "distinct":
        return rng.normal(size=n)
    if kind == "tied":
        return rng.integers(-2, 3, size=n).astype(np.float64)
    if kind == "constant":
        return np.full(n, 1.5)
    if kind == "repeated rows":
        return rng.normal(size=max(1, n // 4))[rng.integers(0, max(1, n // 4), size=n)]
    if kind == "near the largest double":
        return rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 1.79, size=n) * 1e308
    if kind == "around zero":
        # the smallest subnormals and both zeros: midpoints round to even
        return rng.integers(-3, 4, size=n) * 5e-324 * rng.choice([-1.0, 1.0], size=n)
    # neighbours an ulp or two apart: a midpoint can round onto a value
    return 1.0 + rng.integers(0, 4, size=n) * np.finfo(np.float64).eps


COLUMN_KINDS = ("distinct", "tied", "constant", "ulps")


@given(
    n=st.integers(1, 60),
    kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=4),
    zero_share=st.sampled_from([0.0, 0.3, 0.9]),
    scale=st.sampled_from([1.0, 1e-200, 1e200, "huge", "subnormal"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_fit_matches_the_oracle_on_mixed_columns(n, kinds, zero_share, scale, seed):
    rng = np.random.default_rng(seed)
    X = np.column_stack([column(rng, kind, n) for kind in kinds])
    y, w = labels_and_weights(rng, n, zero_share)
    if scale == "huge":
        # a total near the largest double: the class totals must not overflow
        w = w / w.sum() * 1.5e308
    elif scale == "subnormal":
        # multiples of the smallest subnormal: the slack rounds to zero
        w = np.maximum(np.round(w * 4), (w > 0) * 1.0) * 5e-324
    else:
        w = w * scale
    assert_same(X, y, w)


@pytest.mark.parametrize("kind", COLUMN_KINDS)
@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_sums_at_split_positions_match_the_padded_cumsum(kind, n):
    # run[at] must read, for every finite threshold, the entry the padded
    # cumulative sum gives at that threshold's split position
    rng = np.random.default_rng(n)
    X = np.column_stack([column(rng, kind, n), rng.normal(size=n)])
    ps = Presorted(X)
    sw = rng.random(n) * rng.choice([-1.0, 1.0], size=n)
    for col, order, thr, at in ps.columns:
        split = np.searchsorted(col[order], thr, side="right")
        padded = np.concatenate(([0.0], np.cumsum(sw[order])))[split][1:]
        run = np.add.accumulate(sw.take(order))
        assert run[at].tobytes() == padded.tobytes()
        assert run[at].size == thr.size - 1
    # distinct values read their sums as a view, with no gather
    assert isinstance(ps.columns[1][3], slice)


def test_midpoint_rounded_onto_a_value_splits_at_the_lower_one():
    # (1 + eps + 1 + 2 eps) / 2 rounds to 1 + 2 eps, which x > t cannot tell
    # from the upper value; the lower value splits the two, so the exact
    # optimum, error 0, is found
    eps = np.finfo(np.float64).eps
    X = np.array([[1.0 + eps], [1.0 + 2 * eps]])
    ps = Presorted(X)
    assert ps.columns[0][2].tolist() == [-np.inf, 1.0 + eps]
    assert ps.columns[0][3] == slice(0, 1)
    for features in (X, ps):
        stump = train_stump(features, [-1, 1], [1.0, 1.0])
        assert bits(stump) == (0, (1.0 + eps).hex(), 1)
        assert stump.predict(X).tolist() == [-1, 1]
    assert_same(X, [1, -1], [1.0, 2.0], ps=ps)
    # so do the smallest subnormals around zero, where a midpoint rounds to even
    for a, b in ((5e-324, 1e-323), (-5e-324, 0.0), (-1e-323, -5e-324)):
        assert candidate_thresholds([b, a]).tolist() == [-np.inf, a]
        assert sample_threshold([b, a, b], a) == a


def test_tied_column_reads_its_sums_by_gather():
    # a repeated value ends its run of the sorted column past its rank among
    # the distinct values, so the thresholds' sums are gathered, not viewed
    X = np.array([[2.0], [1.0], [2.0], [3.0]])
    ps = Presorted(X)
    assert ps.columns[0][3].tolist() == [0, 2]
    for y, w in (([-1, 1, 1, -1], [1.0, 2.0, 0.5, 1.5]), ([1, -1, 1, 1], [0.1, 0.2, 0.3, 0.4])):
        assert_same(X, y, w, ps=ps)


def test_midpoint_of_values_near_the_largest_double():
    # the sum of two such values overflows; the midpoint must not, so the
    # separating stump is found (checked by its predictions, since the
    # oracle's thresholds come from the same candidate_thresholds)
    X = np.array([[1.5e308], [1.6e308], [1.7e308], [1.75e308]])
    y = np.array([-1, -1, 1, 1])
    for features in (X, Presorted(X)):
        stump = train_stump(features, y, np.ones(4))
        assert 1.6e308 < stump.threshold < 1.7e308
        assert stump.predict(X).tolist() == y.tolist()
    # every midpoint is the exact one, correctly rounded, as (a + b) / 2 is
    # where the sum does not overflow
    for col in (X[:, 0], [-1.7e308, 0.1, 1.7e308], [-1.75e308, -1.5e308, 5e-324]):
        u = sorted(col)
        want = [float((Fraction(a) + Fraction(b)) / 2) for a, b in zip(u, u[1:])]
        assert candidate_thresholds(col)[1:].tolist() == want


@pytest.mark.parametrize("kind", ["distinct", "tied", "ulps", "around zero"])
def test_sample_threshold_is_the_first_candidate_of_the_same_split(kind):
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(2, 30))
        col = column(rng, kind, n)
        sample = col[(rng.random(n) < 0.6) | (np.arange(n) == 0)]
        xs = np.sort(sample)
        below = lambda t: np.searchsorted(xs, t, side="right")
        for t in candidate_thresholds(col):
            if t == -np.inf or 0 < below(t) < xs.size:
                want = next(c for c in candidate_thresholds(sample) if below(c) == below(t))
                assert float(sample_threshold(sample, t)).hex() == float(want).hex()


def bootstrap_fit(X, y, D, seed):
    # the per-sample reference: the bootstrap's own copies, each weighing 1/n
    n = X.shape[0]
    idx = np.random.default_rng(seed).choice(n, size=n, replace=True, p=D)
    return train_stump(X[idx], y[idx], np.full(n, 1.0 / n))


def count_fit(X, y, D, seed):
    cfg = BoostConfig(learner_mode="resample")
    return boost._fit_weak(Presorted(X), cfg, np.random.default_rng(seed), D, y)


BOOTSTRAP_KINDS = COLUMN_KINDS + ("repeated rows", "near the largest double", "around zero")


@given(
    n=st.integers(2, 80),
    kinds=st.lists(st.sampled_from(BOOTSTRAP_KINDS), min_size=1, max_size=3),
    scale=st.sampled_from([1.0, 1e-150, 1e150]),
    draw=st.sampled_from(["spread", "few rows", "one class"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=400, deadline=None)
def test_count_fit_matches_the_bootstrap_fit(n, kinds, scale, draw, seed):
    rng = np.random.default_rng(seed)
    X = np.column_stack([column(rng, kind, n) * (scale if kind in COLUMN_KINDS else 1.0) for kind in kinds])
    y = rng.choice([-1, 1], size=n)
    D = rng.random(n)
    if draw == "few rows":
        D[rng.random(n) < 0.8] = 0.0
        D[rng.integers(n)] = 1.0
    elif draw == "one class":
        # the draw holds only the rows of one label
        D[y != y[0]] = 0.0
    D = D / D.sum()
    assert bits(count_fit(X, y, D, seed)) == bits(bootstrap_fit(X, y, D, seed))


def test_count_fits_skip_the_exact_pass(fsum_calls):
    # draw counts are whole numbers: their ties are decided without fsum,
    # while the same fits on half counts re-score theirs
    noisy, _ = inject_label_noise(gen_normal(2000, seed=3), 0.2, seed=4)
    X, y = noisy.features, noisy.labels
    rng = np.random.default_rng(8)
    halves = 0
    for seed in range(12):
        D = rng.random(X.shape[0])
        D /= D.sum()
        fsum_calls.clear()
        got = count_fit(X, y, D, seed)
        assert fsum_calls == []
        assert bits(got) == bits(bootstrap_fit(X, y, D, seed))
        counts = np.bincount(np.random.default_rng(seed).choice(X.shape[0], X.shape[0], p=D), minlength=X.shape[0])
        halves += fit_counted(X, y, counts / 2.0, fsum_calls)
    assert halves > 0


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

    def test_resample_run_presorts_once(self, counts, train):
        ens, trace = train_adaboost(train, BoostConfig(max_iterations=40, learner_mode="resample"))
        # a run stopped by a nonpositive vote fitted one stump it did not keep
        assert counts["fits"] == ens.stopped_at + trace.stopped_early > 1
        assert counts["presorts"] == 1

