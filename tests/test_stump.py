"""Exact weighted stump training, checked against a brute-force reference.

The reference implementation below shares no code with the trainer: it walks
every (feature, threshold, polarity) candidate in tie-rule order and keeps the
first strict minimum of a plain python accumulation. Agreement must be exact,
errors included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbboost.stump import Presorted, Stump, candidate_thresholds, train_stump
from cbboost.util import distinct


def brute_force(X, y, w):
    """Reference argmin in (error, feature, threshold, +1-before--1) order.

    Candidate errors are accumulated with math.fsum, which rounds the true
    sum correctly and so resolves ties between candidates more reliably than
    any left-to-right or pairwise scheme.
    """
    n, p = X.shape
    best = None
    best_err = None
    for j in range(p):
        vals = sorted(set(X[:, j]))
        thrs = [-np.inf] + [(a + b) / 2.0 for a, b in zip(vals, vals[1:])]
        for t in thrs:
            for pol in (1, -1):
                err = math.fsum(
                    w[i] for i in range(n) if (pol if X[i, j] > t else -pol) != y[i]
                )
                if best_err is None or err < best_err:
                    best_err = err
                    best = Stump(j, t, pol)
    return best, best_err


def random_instance(rng, n_max=50, p_max=4):
    n = int(rng.integers(1, n_max + 1))
    p = int(rng.integers(1, p_max + 1))
    # duplicate-heavy columns exercise threshold handling and ties
    X = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=(n, p))
    X += rng.normal(scale=0.3, size=(n, p)) * (rng.random(size=(n, p)) < 0.5)
    y = rng.choice([-1, 1], size=n)
    kind = rng.integers(3)
    if kind == 0:
        w = np.ones(n)
    elif kind == 1:
        w = rng.random(n)
    else:
        w = rng.random(n)
        w[rng.random(n) < 0.3] = 0.0
        if w.sum() == 0:
            w[0] = 1.0
    return X, y, w


class TestPredict:
    def test_strictly_greater_semantics(self):
        s = Stump(feature=0, threshold=1.0, polarity=1)
        X = np.array([[0.5], [1.0], [1.5]])
        assert s.predict(X).tolist() == [-1, -1, 1]  # boundary value is NOT above

    def test_polarity_flip(self):
        s = Stump(feature=1, threshold=0.0, polarity=-1)
        X = np.array([[9.0, 1.0], [9.0, -1.0]])
        assert s.predict(X).tolist() == [-1, 1]

    def test_constant_stump(self):
        s = Stump(feature=0, threshold=-np.inf, polarity=1)
        assert s.predict(np.array([[-1e300], [0.0], [1e300]])).tolist() == [1, 1, 1]

    def test_validation(self):
        with pytest.raises(ValueError, match="polarity"):
            Stump(0, 0.0, 2)
        with pytest.raises(ValueError, match="feature index"):
            Stump(-1, 0.0, 1)
        with pytest.raises(ValueError, match="threshold"):
            Stump(0, np.nan, 1)
        with pytest.raises(ValueError, match="threshold"):
            Stump(0, np.inf, 1)
        s = Stump(2, 0.0, 1)
        with pytest.raises(ValueError, match="feature 2"):
            s.predict(np.zeros((1, 2)))
        with pytest.raises(ValueError, match=r"expected a 2-d feature matrix, got shape \(3,\)"):
            s.predict(np.zeros(3))
        with pytest.raises(ValueError, match=r"expected a non-empty 2-d feature matrix, got shape \(3,\)"):
            Presorted(np.zeros(3))


# signed zeros, subnormals, the smallest normal, repeats, infinities and NaN
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1.0, np.inf, -np.inf, np.nan]


class TestCandidates:
    def test_midpoints_plus_sentinel(self):
        thr = candidate_thresholds([3.0, 1.0, 2.0, 1.0])
        assert thr.tolist() == [-np.inf, 1.5, 2.5]

    def test_constant_column(self):
        assert candidate_thresholds([5.0, 5.0]).tolist() == [-np.inf]

    @pytest.mark.parametrize("column", [
        [0.0, -0.0, 0.0, -0.0],
        [-0.0, 0.0],
        [-0.0, 1.0, 0.0, -1.0, -0.0],
        [5e-324, -5e-324, 0.0, -0.0, 2.2250738585072014e-308, 5e-324],
        [2.0, 2.0, 1.0, 2.0, 1.0],
        [np.inf, -np.inf, 0.0, np.inf],
        [7.25],
        [np.nan],
        [np.nan, 1.0, np.nan, -0.0, np.nan, 0.0],
    ])
    def test_distinct_values_match_np_unique(self, column):
        # NaN collapses to one, and the sort decides which zero stands for a mix;
        # a midpoint that rounds onto the upper value (ulp-adjacent subnormals,
        # a finite value below +inf) gives way to the lower one
        with np.errstate(invalid="ignore"):  # -inf and +inf have a NaN midpoint
            want = np.unique(np.asarray(column, dtype=np.float64))
            mid = (want[:-1] + want[1:]) / 2.0
            want = np.concatenate(([-np.inf], np.where(mid == want[1:], want[:-1], mid)))
            assert candidate_thresholds(column).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(EDGE_VALUES), max_size=80), st.lists(st.integers(0, 6), max_size=80))
    def test_distinct_matches_np_unique(self, values, features):
        # the reals a column holds, and the feature indices an ensemble uses
        for a in (np.array(values, dtype=np.float64), np.array(features, dtype=np.intp)):
            assert distinct(a).dtype == np.unique(a).dtype
            assert distinct(a).tobytes() == np.unique(a).tobytes()


class TestTrain:
    def test_separable_four_points(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1, -1, 1, 1])
        s = train_stump(X, y, np.ones(4))
        assert (s.feature, s.threshold, s.polarity) == (0, 1.5, 1)
        assert float(np.sum((s.predict(X) != y))) == 0.0

    def test_xor_like_quarter_error(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, -1, -1, 1])
        s = train_stump(X, y, np.full(4, 0.25))
        pred = s.predict(X)
        assert float(np.sum(0.25 * (pred != y))) == pytest.approx(0.25)

    def test_weights_move_the_split(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, -1, 1])
        # uniform: misclassifying the middle point costs least
        s_u = train_stump(X, y, np.ones(3))
        assert float(np.sum((s_u.predict(X) != y) * 1.0)) == 1.0
        # heavy middle point: a split sacrificing an outer point wins
        w = np.array([0.1, 5.0, 0.1])
        s_w = train_stump(X, y, w)
        assert float(np.sum(w[s_w.predict(X) != y])) == pytest.approx(0.1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        y = rng.choice([-1, 1], size=20)
        w = rng.random(20)
        a = train_stump(X, y, w)
        b = train_stump(X, y, w * 1e-9)
        c = train_stump(X, y, w * 1e9)
        assert a == b == c

    def test_tie_rule_lowest_feature_wins(self):
        # identical columns: every split exists in both features equally
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([-1, 1])
        s = train_stump(X, y, np.ones(2))
        assert (s.feature, s.threshold, s.polarity) == (0, 0.5, 1)

    def test_tie_rule_lowest_threshold_then_positive_polarity(self):
        # single positive point: predicting +1 everywhere and -1 nowhere tie;
        # every threshold achieves error 0 with a suitable polarity, so the
        # -inf sentinel with polarity +1 must be returned
        X = np.array([[0.0], [1.0]])
        y = np.array([1, 1])
        s = train_stump(X, y, np.ones(2))
        assert (s.feature, s.threshold, s.polarity) == (0, -np.inf, 1)

    def test_zero_weight_rows_ignored(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([-1, 1, -1])
        w = np.array([1.0, 1.0, 0.0])
        s = train_stump(X, y, w)
        assert float(np.sum(w[s.predict(X) != y])) == 0.0

    def test_single_row(self):
        s = train_stump(np.array([[7.0]]), np.array([-1]), np.array([2.0]))
        assert s.predict(np.array([[7.0]])).tolist() == [-1]

    def test_validation(self):
        X = np.zeros((2, 1))
        with pytest.raises(ValueError, match="labels must be"):
            train_stump(X, [0, 1], [1.0, 1.0])
        # a fractional label is rejected, not truncated to +-1
        with pytest.raises(ValueError, match="^labels must be -1 or \\+1$"):
            train_stump([[0.0], [1.0]], [1.7, -1.2], [1, 1])
        with pytest.raises(ValueError, match="^labels must be -1 or \\+1$"):
            train_stump(X, [1.0, np.nan], [1.0, 1.0])
        assert train_stump(X, [1.0, -1.0], [1.0, 1.0]) == train_stump(X, [1, -1], [1.0, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            train_stump(X, [1, -1], [1.0, -1.0])
        with pytest.raises(ValueError, match="positive"):
            train_stump(X, [1, -1], [0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            train_stump(X, [1, -1], [np.nan, 1.0])
        with pytest.raises(ValueError, match="features must be finite"):
            train_stump(np.array([[np.inf], [0.0]]), [1, -1], [1.0, 1.0])
        with pytest.raises(ValueError, match="do not match"):
            train_stump(X, [1, -1, 1], [1.0, 1.0])

    def test_oracle_agreement_500_instances(self):
        # acceptance-grade check: exact match with the brute-force argmin,
        # tie rule included, across 500 random weighted instances
        rng = np.random.default_rng(20240501)
        for trial in range(500):
            X, y, w = random_instance(rng)
            got = train_stump(X, y, w)
            want, want_err = brute_force(X, y, w)
            assert got == want, f"trial {trial}: {got} != {want}"
            got_err = float(np.sum(w[got.predict(X) != y]))
            # the engine sums pairwise, the oracle correctly rounds: allow 2 ulps
            assert got_err == pytest.approx(want_err, rel=1e-15, abs=0.0), (
                f"trial {trial}: error mismatch"
            )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_oracle_agreement_property(self, seed):
        X, y, w = random_instance(np.random.default_rng(seed), n_max=25, p_max=3)
        got = train_stump(X, y, w)
        want, _ = brute_force(X, y, w)
        assert got == want

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_returned_error_is_global_min(self, seed):
        X, y, w = random_instance(np.random.default_rng(seed), n_max=30, p_max=3)
        s = train_stump(X, y, w)
        err = float(np.sum(w[s.predict(X) != y]))
        # no candidate on any feature beats it
        for j in range(X.shape[1]):
            for t in candidate_thresholds(X[:, j]):
                for pol in (1, -1):
                    pred = np.where(X[:, j] > t, pol, -pol)
                    assert err <= float(np.sum(w[pred != y])) + 1e-15
