"""Synthetic scenario generators, checked against their analytic distributions."""

import math

import numpy as np
import pytest

from cbboost.synth import (
    SynthSpec,
    bayes_label,
    gen_normal,
    gen_sine,
    generate,
    normal_bayes_error,
    sine_margin,
    sine_positive_prob,
)


class TestNormalScenario:
    def test_class_counts(self):
        ds = gen_normal(501, seed=0)
        assert int(np.sum(ds.labels == -1)) == 250
        assert int(np.sum(ds.labels == 1)) == 251

    def test_class_conditional_moments(self):
        # Monte Carlo oracle: sample means/covariances converge to the
        # analytic parameters at O(1/sqrt(n)); 1e5 points give ~0.005 noise.
        ds = gen_normal(100_000, seed=1)
        neg = ds.features[ds.labels == -1]
        pos = ds.features[ds.labels == 1]
        assert np.allclose(neg.mean(axis=0), [0.0, 0.0], atol=0.05)
        assert np.allclose(pos.mean(axis=0), [2.0, 2.0], atol=0.05)
        assert np.allclose(np.cov(neg.T), np.eye(2), atol=0.05)
        assert np.allclose(np.cov(pos.T), np.eye(2), atol=0.05)

    def test_rows_shuffled(self):
        ds = gen_normal(200, seed=2)
        assert not np.all(ds.labels[:100] == -1)

    def test_deterministic(self):
        a = gen_normal(50, seed=3)
        b = gen_normal(50, seed=3)
        c = gen_normal(50, seed=4)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)

    def test_bayes_rule_boundary(self):
        assert bayes_label("normal", [0.0, 0.0]) == -1
        assert bayes_label("normal", [2.0, 2.0]) == 1
        assert bayes_label("normal", [1.0, 1.0]) == 1  # on the line, tie goes +1
        assert bayes_label("normal", [[3.0, 0.0], [-1.0, 2.0]]).tolist() == [1, -1]

    def test_bayes_error_closed_form(self):
        # the optimal-rule error has the closed form 0.5 (1 + erf(-1))
        assert normal_bayes_error() == pytest.approx(0.0786496035251426, abs=1e-15)

    def test_bayes_error_monte_carlo(self):
        # independent oracle: the optimal rule's empirical error on a fresh
        # million-point sample must sit within 3 sigma of the closed form
        ds = gen_normal(1_000_000, seed=17)
        err = float(np.mean(bayes_label("normal", ds.features) != ds.labels))
        assert err == pytest.approx(normal_bayes_error(), abs=0.002)


class TestSineScenario:
    def test_feature_support(self):
        ds = gen_sine(50_000, seed=5)
        assert ds.features.min() >= -3.0 and ds.features.max() <= 3.0
        # uniform marginals: each octant of the square gets its share
        hist, _, _ = np.histogram2d(ds.features[:, 0], ds.features[:, 1], bins=3)
        assert np.all(np.abs(hist / ds.n - 1 / 9) < 0.01)

    def test_margin_and_prob_formulas(self):
        X = np.array([[0.0, 1.0], [math.pi / 2, 3.0], [0.0, 0.0]])
        assert np.allclose(sine_margin(X), [0.5, 0.0, 0.0])
        g = sine_margin(X)
        assert np.allclose(sine_positive_prob(X), np.exp(g) / (np.exp(g) + np.exp(-g)))

    def test_label_frequency_tracks_probability(self):
        # bin a large sample by the analytic P(+1|x) and compare the observed
        # positive fraction per bin; binomial noise at these sizes is < 0.01
        ds = gen_sine(200_000, seed=6)
        p = sine_positive_prob(ds.features)
        pos = ds.labels == 1
        edges = np.linspace(0.0, 1.0, 11)
        which = np.clip(np.digitize(p, edges) - 1, 0, 9)
        for b in range(10):
            m = which == b
            if m.sum() < 2_000:
                continue
            assert abs(pos[m].mean() - p[m].mean()) < 0.015

    def test_bayes_rule_is_sign_of_margin(self):
        X = np.array([[0.0, 1.0], [0.0, -1.0], [math.pi / 2, 3.0]])
        assert bayes_label("sine", X).tolist() == [1, -1, 1]  # boundary tie -> +1

    def test_deterministic(self):
        a = gen_sine(60, seed=7)
        b = gen_sine(60, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestSpec:
    def test_generate_dispatch(self):
        a = generate(SynthSpec("normal", 40, 9))
        b = gen_normal(40, 9)
        assert np.array_equal(a.features, b.features)
        s = generate(SynthSpec("sine", 40, 9))
        assert np.array_equal(s.features, gen_sine(40, 9).features)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            SynthSpec("circles", 10, 0)
        with pytest.raises(ValueError, match="n >= 2"):
            SynthSpec("normal", 1, 0)
        for gen in (gen_normal, gen_sine):
            with pytest.raises(ValueError, match="need n >= 2, got 1"):
                gen(1, 0)
        with pytest.raises(ValueError, match="unknown scenario"):
            bayes_label("circles", [0.0, 0.0])
