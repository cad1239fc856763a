"""Both boosting engines: hand-checked traces, invariants, and serialization.

The confidence-weighted engine's expected values in TestCbByHand were computed
by hand from the update rules (closed forms in the comments), independently of
the implementation, and frozen here.
"""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cbboost import boost
from cbboost.boost import (
    BoostConfig,
    BoostTrace,
    Ensemble,
    TraceRow,
    check_propositions,
    empirical_risk,
    ensemble_from_json,
    ensemble_to_json,
    load_ensemble,
    predict,
    save_ensemble,
    score,
    train_adaboost,
    train_cb_adaboost,
)
from cbboost.confidence import ConfidenceVector, estimate_confidence
from cbboost.dataset import Dataset, inject_label_noise
from cbboost.stump import Stump
from cbboost.synth import gen_normal


def four_points():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([-1, -1, 1, 1])
    return Dataset(X, y)


def random_problem(seed, n=40, p=2, flip=0.15):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, 1, -1)
    ds = Dataset(X, y)
    if flip:
        ds, _ = inject_label_noise(ds, flip, seed + 1)
    return ds


def grid_gamma(seed, n):
    rng = np.random.default_rng(seed)
    return ConfidenceVector(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n))


class TestConfig:
    def test_defaults(self):
        cfg = BoostConfig()
        assert cfg.max_iterations == 200
        assert cfg.learner_mode == "weighted"
        assert cfg.stop_rule == "fixed"
        assert cfg.epsilon_clamp == 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="max_iterations"):
            BoostConfig(max_iterations=0)
        with pytest.raises(ValueError, match="learner_mode"):
            BoostConfig(learner_mode="bagging")
        with pytest.raises(ValueError, match="stop_rule"):
            BoostConfig(stop_rule="never")
        with pytest.raises(ValueError, match="consistency_a"):
            BoostConfig(consistency_a=1.0)
        with pytest.raises(ValueError, match="epsilon_clamp"):
            BoostConfig(epsilon_clamp=0.5)

    def test_iteration_cap(self):
        fixed = BoostConfig(max_iterations=200)
        assert fixed.iteration_cap(500) == 200
        cons = BoostConfig(max_iterations=200, stop_rule="consistency", consistency_a=0.5)
        assert cons.iteration_cap(100) == 10  # ceil(100^0.5)
        assert cons.iteration_cap(500) == 23  # ceil(500^0.5) = ceil(22.36)
        assert cons.iteration_cap(4) == 2
        small = BoostConfig(max_iterations=5, stop_rule="consistency")
        assert small.iteration_cap(10_000) == 5  # budget still binds


class TestAdaBoostByHand:
    def test_separable_clamp_vote(self):
        ds = four_points()
        ens, trace = train_adaboost(ds, BoostConfig(max_iterations=1))
        beta, stump = ens.terms[0]
        assert stump == Stump(0, 1.5, 1)
        # zero error clamps to 1e-12, so the vote is 0.5 ln((1-1e-12)/1e-12)
        assert beta == pytest.approx(0.5 * math.log((1.0 - 1e-12) / 1e-12), rel=1e-15)
        assert beta == pytest.approx(13.815510557, abs=1e-6)
        assert trace.rows[0].weighted_error == 0.0
        assert np.array_equal(predict(ens, ds.features), ds.labels)

    def test_quarter_error_round(self):
        # y = [+,-,-,+]: two stumps tie at error 1/4; the tie rule picks the
        # lower threshold 0.5 with polarity -1, and the vote is 0.5 ln 3
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, -1, -1, 1])
        ens, trace = train_adaboost(Dataset(X, y), BoostConfig(max_iterations=1))
        beta, stump = ens.terms[0]
        assert stump == Stump(0, 0.5, -1)
        assert trace.rows[0].weighted_error == pytest.approx(0.25, abs=1e-15)
        assert beta == pytest.approx(0.5 * math.log(3.0), rel=1e-15)
        # the missed instance (x=3) triples its relative weight: e^{2 beta}=3
        w = trace.final_w_observed
        assert w[3] / w[0] == pytest.approx(3.0, rel=1e-12)
        # post-round mass is 2 sqrt(e (1-e)) = sqrt(3)/2
        assert trace.rows[0].risk_after == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)

    def test_immediate_abort_on_chance_error(self):
        # two identical points with opposite labels: every stump has error
        # exactly 1/2, the vote is 0, training stops with nothing
        X = np.array([[0.0], [0.0]])
        y = np.array([1, -1])
        ens, trace = train_adaboost(Dataset(X, y))
        assert len(ens) == 0 and ens.stopped_at == 0
        assert trace.stopped_early
        assert trace.iterations == 0

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError, match="single class"):
            train_adaboost(Dataset(np.zeros((3, 1)), [1, 1, 1]))
        with pytest.raises(ValueError, match="at least 2"):
            train_adaboost(Dataset(np.zeros((1, 1)), [1]))


class TestCbByHand:
    """Two rounds on four points, gamma = (0.9, 0.8, 0.7, 0.6), checked by hand.

    Round 1: w_obs = gamma/4, w_flip = (1-gamma)/4; gaps (0.2,.15,.1,.05),
    D = (.4,.3,.2,.1); effective labels equal observed; the exact stump is
    x > 1.5 with polarity +1 and classifies every effective label right, so
    the observed-mass vote is 0.5 ln(0.75/0.25) = 0.5 ln 3 and the post-round
    mass is 0.75 e^{-b} + 0.25 e^{b} = sqrt(3)/2.

    Round 2: the correct rows shrank their observed mass by 1/sqrt(3) and the
    flipped mass grew by sqrt(3); gaps become (.0866,.0289,.0289,.0866) with
    signs (+,+,-,-), so D = (.375,.125,.125,.375) and every effective label is
    -1. The exact stump is the constant -1 (threshold -inf, polarity -1, via
    the tie rule), its observed-mass ratio is (0.95/sqrt3) : (0.55/sqrt3),
    vote 0.5 ln(19/11), and the post-round mass is 2 sqrt(0.95*0.55/3).
    """

    def run(self, m=2):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1, -1, 1, 1])
        gamma = ConfidenceVector(np.array([0.9, 0.8, 0.7, 0.6]))
        return train_cb_adaboost(Dataset(X, y), gamma, BoostConfig(max_iterations=m))

    def test_round_one(self):
        ens, trace = self.run(1)
        row = trace.rows[0]
        assert np.allclose(row.w_observed, [0.225, 0.2, 0.175, 0.15], rtol=0, atol=1e-16)
        assert np.allclose(row.w_flipped, [0.025, 0.05, 0.075, 0.1], rtol=0, atol=1e-16)
        assert np.allclose(row.sample_weights, [0.4, 0.3, 0.2, 0.1], rtol=1e-14)
        assert row.effective_labels.tolist() == [-1, -1, 1, 1]
        assert ens.terms[0][1] == Stump(0, 1.5, 1)
        assert ens.terms[0][0] == pytest.approx(0.5 * math.log(3.0), rel=1e-15)
        assert row.weighted_error == 0.0
        assert row.risk_after == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)

    def test_round_two(self):
        ens, trace = self.run(2)
        row = trace.rows[1]
        s3 = math.sqrt(3.0)
        assert np.allclose(row.w_observed, np.array([0.225, 0.2, 0.175, 0.15]) / s3, rtol=1e-14)
        assert np.allclose(row.w_flipped, np.array([0.025, 0.05, 0.075, 0.1]) * s3, rtol=1e-14)
        assert np.allclose(row.sample_weights, [0.375, 0.125, 0.125, 0.375], rtol=1e-12)
        assert row.effective_labels.tolist() == [-1, -1, -1, -1]
        assert ens.terms[1][1] == Stump(0, -np.inf, -1)
        assert ens.terms[1][0] == pytest.approx(0.5 * math.log(19.0 / 11.0), rel=1e-13)
        assert row.weighted_error == 0.0  # constant -1 matches every effective label
        assert row.risk_after == pytest.approx(2.0 * math.sqrt(0.95 * 0.55 / 3.0), rel=1e-13)

    def test_trace_risk_matches_risk_function(self):
        # the recorded post-round mass must equal the two-sided empirical risk
        # of the partial ensemble, evaluated independently from scores
        ens, trace = self.run(2)
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1, -1, 1, 1])
        ds = Dataset(X, y)
        gamma = ConfidenceVector(np.array([0.9, 0.8, 0.7, 0.6]))
        for m in (1, 2):
            part = Ensemble(terms=ens.terms[:m], stopped_at=m)
            assert empirical_risk(part, ds, gamma) == pytest.approx(
                trace.rows[m - 1].risk_after, rel=1e-12
            )

    def test_rejects_uninformative_gamma(self):
        ds = four_points()
        with pytest.raises(ValueError, match="0.5"):
            train_cb_adaboost(ds, ConfidenceVector(np.full(4, 0.5)))

    def test_rejects_length_mismatch(self):
        ds = four_points()
        with pytest.raises(ValueError, match="does not match"):
            train_cb_adaboost(ds, ConfidenceVector(np.array([0.9, 0.9])))

    def test_immediate_abort_when_no_stump_helps(self):
        # identical points, opposite labels, confident gammas: the best stump
        # still has gap-weighted effective error 1/2, so the vote is 0
        X = np.array([[0.0], [0.0]])
        y = np.array([1, -1])
        gamma = ConfidenceVector(np.array([0.9, 0.9]))
        ens, trace = train_cb_adaboost(Dataset(X, y), gamma)
        assert len(ens) == 0
        assert trace.stopped_early
        assert np.allclose(trace.final_w_observed, [0.45, 0.45])


class TestReductionToPlain:
    def test_gamma_one_bitwise_identical(self):
        for seed in range(5):
            ds = random_problem(seed, n=30)
            cfg = BoostConfig(max_iterations=25)
            ens_a, tr_a = train_adaboost(ds, cfg)
            ens_c, tr_c = train_cb_adaboost(ds, ConfidenceVector(np.ones(ds.n)), cfg)
            assert len(ens_a) == len(ens_c)
            for (ba, sa), (bc, sc) in zip(ens_a.terms, ens_c.terms):
                assert ba == bc and sa == sc  # bitwise, no tolerance
            for ra, rc in zip(tr_a.rows, tr_c.rows):
                assert np.array_equal(ra.w_observed, rc.w_observed)
                assert np.array_equal(ra.sample_weights, rc.sample_weights)
                assert np.all(rc.w_flipped == 0.0)
                assert ra.beta == rc.beta
                assert ra.weighted_error == rc.weighted_error
                assert ra.risk_after == rc.risk_after

    def test_near_one_gamma_differs(self):
        # negative control: the reduction is specific to gamma identically 1
        ds = random_problem(11, n=30)
        cfg = BoostConfig(max_iterations=25)
        _, tr_a = train_adaboost(ds, cfg)
        g = np.ones(ds.n)
        g[0] = 0.6
        _, tr_c = train_cb_adaboost(ds, ConfidenceVector(g), cfg)
        betas_a = [r.beta for r in tr_a.rows]
        betas_c = [r.beta for r in tr_c.rows]
        assert betas_a != betas_c


class TestInvariantsOnRandomTraces:
    def traces(self):
        out = []
        cfg = BoostConfig(max_iterations=40)
        for seed in range(8):
            ds = random_problem(seed + 100, n=25)
            gam = grid_gamma(seed, ds.n)
            if float(np.sum(np.abs(2.0 * gam.gamma - 1.0))) == 0.0:
                continue
            out.append(("cb", train_cb_adaboost(ds, gam, cfg)[1], gam))
            out.append(("ada", train_adaboost(ds, cfg)[1], None))
            rng = np.random.default_rng(seed)
            smooth = ConfidenceVector(rng.uniform(0.05, 0.95, size=ds.n))
            out.append(("cb", train_cb_adaboost(ds, smooth, cfg)[1], smooth))
        return out

    def test_sample_weights_normalized(self):
        for _, trace, _ in self.traces():
            for row in trace.rows:
                assert float(np.sum(row.sample_weights)) == pytest.approx(1.0, abs=1e-9)
                assert np.all(row.sample_weights >= 0.0)

    def test_weights_stay_nonnegative_and_zero_products(self):
        for kind, trace, gam in self.traces():
            if kind != "cb":
                continue
            certain = np.isin(gam.gamma, (0.0, 1.0))
            for row in trace.rows:
                assert np.all(row.w_observed >= 0.0)
                assert np.all(row.w_flipped >= 0.0)
                prod = row.w_observed * row.w_flipped
                assert np.array_equal(prod == 0.0, certain)

    def test_risk_never_increases(self):
        for _, trace, _ in self.traces():
            risks = [r.risk_after for r in trace.rows]
            prev = 1.0  # empty ensemble mass
            for r in risks:
                assert r < prev + 1e-9
                prev = r

    def test_all_votes_positive(self):
        cfg = BoostConfig(max_iterations=40)
        for seed in range(8):
            ds = random_problem(seed + 200, n=25)
            ens, _ = train_adaboost(ds, cfg)
            assert all(beta > 0 for beta, _ in ens.terms)
            gam = grid_gamma(seed + 7, ds.n)
            if float(np.sum(np.abs(2.0 * gam.gamma - 1.0))) > 0.0:
                ens2, _ = train_cb_adaboost(ds, gam, cfg)
                assert all(beta > 0 for beta, _ in ens2.terms)

    def test_propositions_hold(self):
        for kind, trace, _ in self.traces():
            if kind != "cb" or trace.iterations == 0:
                continue
            report = check_propositions(trace)
            assert report.ok, report.violations[:3]

    def test_vote_bound_equality_at_gamma_one(self):
        # with gamma identically 1 no instance carries two-sided mass and the
        # vote equals the plain log-odds bound exactly
        ds = random_problem(301, n=25)
        _, trace = train_cb_adaboost(
            ds, ConfidenceVector(np.ones(ds.n)), BoostConfig(max_iterations=20)
        )
        assert check_propositions(trace).ok


class TestEngineBudget:
    """Training holds O(n) memory and fits exactly one stump per round."""

    @pytest.fixture()
    def counted_fits(self, monkeypatch):
        # perfbench's stump.* metrics time every call made through boost.train_stump
        calls = []
        fit = boost.train_stump

        def counted(*args):
            calls.append(1)
            return fit(*args)

        monkeypatch.setattr(boost, "train_stump", counted)
        return calls

    def test_train_memory_with_rows_unread(self):
        noisy, _ = inject_label_noise(gen_normal(5000, 3), 0.2, 4)
        gamma, _ = estimate_confidence(noisy)
        # a first train makes one-time allocations a later one reuses; warm
        # them up so the bound does not depend on which tests ran before
        train_cb_adaboost(noisy, gamma, BoostConfig(max_iterations=2))
        tracemalloc.start()
        try:
            _, trace = train_cb_adaboost(noisy, gamma, BoostConfig(max_iterations=200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.rows) == 200
        assert peak < 2_000_000, f"tracemalloc peak {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize(
        "ds, g, fits",
        [
            (random_problem(0, n=200), np.ones(200), 200),
            # no term: the first fit's vote is exactly zero (each x holds a
            # row of either label under equal gammas)
            (Dataset(np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([1, -1, 1, -1])),
             np.array([0.9, 0.9, 0.6, 0.6]), 1),
        ],
    )
    def test_one_stump_fit_per_round(self, counted_fits, ds, g, fits):
        train_cb_adaboost(ds, ConfidenceVector(g), BoostConfig(max_iterations=200))
        assert len(counted_fits) == fits

    def test_one_stump_fit_per_resampled_round(self, counted_fits):
        # 38 terms, then a 39th fit whose vote is exactly zero; the stop round
        # does not depend on np.exp's last bit (test_boost_oracle's MIRROR)
        ds = Dataset(np.repeat([[0.0], [1.0]], 3, axis=0), np.array([-1, 1, -1, 1, -1, 1]))
        g = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        cfg = BoostConfig(max_iterations=200, learner_mode="resample", seed=2)
        ens, _ = train_cb_adaboost(ds, ConfidenceVector(g), cfg)
        assert (len(ens), len(counted_fits)) == (38, 39)

    @pytest.mark.parametrize("mode", ["weighted", "resample"])
    def test_reading_rows_fits_no_stump(self, counted_fits, mode):
        # the replay reruns the training loop with the recorded stumps
        ds = random_problem(5, n=150)
        g = np.random.default_rng(5).uniform(size=ds.n)
        _, trace = train_cb_adaboost(ds, ConfidenceVector(g), BoostConfig(max_iterations=30, learner_mode=mode))
        assert len(counted_fits) == 30
        counted_fits.clear()
        assert len(list(trace.rows)) == trace.iterations == 30
        assert counted_fits == []


class TestPropositionChecker:
    def corrupt_trace(self):
        # fabricated one-round trace violating all three guarantees: the
        # missed instance 0 keeps its gap, the correct lopsided instance 1
        # keeps its gap, and the vote exceeds the log-odds bound
        row = TraceRow(
            w_observed=np.array([0.6, 0.4]),
            w_flipped=np.array([0.1, 0.2]),
            sample_weights=np.array([0.5, 0.5]),
            effective_labels=np.array([1, -1]),
            predictions=np.array([-1, -1]),
            beta=0.3,
            weighted_error=0.5,
            risk_after=1.0,
        )
        return BoostTrace(
            rows=(row,),
            final_w_observed=np.array([0.6, 0.4]),
            final_w_flipped=np.array([0.1, 0.2]),
            epsilon_clamp=1e-12,
            stop_reason="budget",
        )

    def test_corrupted_trace_reported(self):
        report = check_propositions(self.corrupt_trace())
        kinds = {v[0] for v in report.violations}
        assert kinds == {"miss-grows", "hit-shrinks", "vote-bound"}
        assert not report.ok

    def test_one_sided_vote_must_equal_the_bound(self):
        # no instance carries two-sided mass, so the vote must equal the
        # log-odds bound; the weights move as beta = 0.3 moves them, leaving
        # the vote as the only violation
        beta, w_obs = 0.3, np.array([0.6, 0.4])
        row = TraceRow(
            w_observed=w_obs,
            w_flipped=np.zeros(2),
            sample_weights=w_obs,
            effective_labels=np.array([1, -1]),
            predictions=np.array([1, 1]),
            beta=beta,
            weighted_error=0.4,
            risk_after=1.0,
        )
        trace = BoostTrace(
            rows=(row,),
            final_w_observed=w_obs * np.exp([-beta, beta]),
            final_w_flipped=np.zeros(2),
            epsilon_clamp=1e-12,
            stop_reason="budget",
        )
        bound = 0.5 * math.log(0.6 / 0.4)
        assert check_propositions(trace).violations == (
            ("vote-bound", 0, -1, f"beta 0.3 != log-odds bound {bound!r} with no two-sided mass"),
        )


class TestModesAndStopRules:
    def test_resample_deterministic_in_seed(self):
        ds = random_problem(400, n=60)
        a = train_adaboost(ds, BoostConfig(max_iterations=15, learner_mode="resample", seed=5))
        b = train_adaboost(ds, BoostConfig(max_iterations=15, learner_mode="resample", seed=5))
        assert [t[0] for t in a[0].terms] == [t[0] for t in b[0].terms]
        assert [t[1] for t in a[0].terms] == [t[1] for t in b[0].terms]

    def test_resample_seed_matters(self):
        ds = random_problem(401, n=60)
        a = train_adaboost(ds, BoostConfig(max_iterations=15, learner_mode="resample", seed=5))
        b = train_adaboost(ds, BoostConfig(max_iterations=15, learner_mode="resample", seed=6))
        assert [t for t in a[0].terms] != [t for t in b[0].terms]

    def test_resample_cb_runs(self):
        ds = random_problem(402, n=60)
        rng = np.random.default_rng(0)
        gam = ConfidenceVector(rng.uniform(0.3, 1.0, size=ds.n))
        ens, trace = train_cb_adaboost(
            ds, gam, BoostConfig(max_iterations=15, learner_mode="resample", seed=1)
        )
        assert len(ens) == trace.iterations
        assert all(beta > 0 for beta, _ in ens.terms)

    def test_consistency_rule_caps_iterations(self):
        ds = random_problem(403, n=100, flip=0.0)
        ens, trace = train_adaboost(
            ds, BoostConfig(max_iterations=200, stop_rule="consistency", consistency_a=0.5)
        )
        assert trace.iterations <= 10
        # the data is noiseless and splittable: the cap is what stopped it
        assert trace.iterations == 10
        assert not trace.stopped_early


class TestEnsembleApi:
    def test_single_term_score(self):
        ens = Ensemble(terms=((1.0, Stump(0, 0.0, 1)),), stopped_at=1)
        X = np.array([[1.0], [-1.0]])
        assert score(ens, X).tolist() == [1.0, -1.0]
        assert predict(ens, X).tolist() == [1, -1]

    def test_zero_score_tie_goes_positive(self):
        ens = Ensemble(
            terms=((1.0, Stump(0, 0.0, 1)), (1.0, Stump(0, 0.0, -1))), stopped_at=2
        )
        X = np.array([[5.0]])
        assert score(ens, X).tolist() == [0.0]
        assert predict(ens, X).tolist() == [1]

    def test_vote_scaling_invariance(self):
        ds = random_problem(500, n=30)
        ens, _ = train_adaboost(ds, BoostConfig(max_iterations=10))
        scaled = Ensemble(
            terms=tuple((3.0 * b, s) for b, s in ens.terms), stopped_at=len(ens)
        )
        assert np.array_equal(predict(ens, ds.features), predict(scaled, ds.features))

    def test_empty_ensemble_behavior(self):
        ens = Ensemble(terms=(), stopped_at=0)
        with pytest.raises(ValueError, match="empty ensemble"):
            predict(ens, np.zeros((1, 1)))
        with pytest.raises(ValueError, match="empty ensemble"):
            score(ens, np.zeros((1, 1)))
        ds = four_points()
        assert empirical_risk(ens, ds) == 1.0  # exactly, e^0 both sides
        g = ConfidenceVector(np.array([0.9, 0.1, 0.5, 1.0]))
        assert empirical_risk(ens, ds, g) == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_score_equals_term_by_term_sum(self, seed, kernel_rows):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 5))
        # integer rows sit exactly on integer thresholds, and dyadic votes
        # cancel exactly, so zero scores occur; the last three rows hold NaN,
        # +inf and -inf in every column, and -0.0 and 0.0 thresholds are one cut
        X = rng.integers(-3, 4, size=(400, p)).astype(np.float64)
        X = np.vstack([X, np.repeat([[np.nan], [np.inf], [-np.inf]], p, axis=1)])
        for votes in ([0.25, 0.5, 1.0], rng.random(8) + 1e-3):
            terms = tuple(
                (
                    float(rng.choice(votes)),
                    Stump(int(rng.integers(p)), float(rng.choice([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0])),
                          int(rng.choice([-1, 1]))),
                )
                for _ in range(int(rng.integers(1, 80)))
            )
            ens = Ensemble(terms=terms, stopped_at=len(terms))
            features = {s.feature for _, s in terms}
            cells = math.prod(len({s.threshold for _, s in terms if s.feature == f}) + 1 for f in features)
            # all rows, the non-finite rows and one row: by cell where the cells are no more than the rows
            for rows in (X, X[-3:], X[:1]):
                want = np.zeros(rows.shape[0])
                for beta, stump in terms:
                    want += beta * stump.predict(rows)
                kernel_rows.clear()
                assert score(ens, rows).tobytes() == want.tobytes()
                assert kernel_rows == [min(cells, rows.shape[0])]
                assert predict(ens, rows).tolist() == np.where(want >= 0.0, 1, -1).tolist()

    def test_cancelling_votes_score_zero_and_predict_positive(self, kernel_rows):
        terms = ((1.0, Stump(0, 0.0, 1)), (0.5, Stump(1, 0.0, 1)), (0.5, Stump(1, 0.0, 1)))
        ens = Ensemble(terms=terms, stopped_at=3)
        X = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
        assert score(ens, X).tolist() == [0.0, 2.0, 0.0, -2.0]
        assert predict(ens, X).tolist() == [1, 1, 1, -1]
        assert predict(ens, X[:1]).tolist() == [1]
        # 2 x 2 cells: four rows are scored by cell, one row directly
        assert kernel_rows == [4, 4, 1]

    @pytest.mark.parametrize("thresholds", [
        [0.0, -0.0, 0.0, -0.0],
        [-0.0, 0.0, 1.5, -0.0],
        [5e-324, -5e-324, 0.0, -0.0, 2.2250738585072014e-308, 5e-324],
        [-np.inf, 2.0, -np.inf, 2.0, -3.0],
        [0.25],
    ])
    def test_cuts_are_np_unique(self, monkeypatch, thresholds):
        # the sorted distinct features and thresholds that cut the space are
        # np.unique's, bit for bit, signed zeros included
        seen, real = [], boost.distinct

        def spy(values):
            seen.append((np.array(values), real(values)))
            return seen[-1][1]

        monkeypatch.setattr(boost, "distinct", spy)
        terms = tuple((1.0, Stump(f, t, 1 - 2 * (i % 2))) for i, t in enumerate(thresholds) for f in (2, 0))
        X = np.random.default_rng(0).normal(size=(50, 3))
        score(Ensemble(terms=terms, stopped_at=len(terms)), X)
        assert len(seen) == 3  # the used features, then each one's thresholds
        for values, got in seen:
            assert got.tobytes() == np.unique(values).tobytes()

    def test_wrong_width_names_the_first_stump_out_of_range(self):
        terms = ((1.0, Stump(0, 0.0, 1)), (1.0, Stump(3, 0.0, 1)), (1.0, Stump(5, 0.0, 1)))
        ens = Ensemble(terms=terms, stopped_at=3)
        X = np.zeros((4, 2))
        with pytest.raises(ValueError) as term_err:
            terms[1][1].predict(X)
        for fn in (score, predict):
            with pytest.raises(ValueError) as err:
                fn(ens, X)
            assert str(err.value) == str(term_err.value) == "stump uses feature 3 but matrix has 2 columns"
        for fn in (score, predict):
            with pytest.raises(ValueError, match=r"expected a 2-d feature matrix, got shape \(4,\)"):
                fn(ens, np.zeros(4))

    def test_ensemble_validation(self):
        with pytest.raises(ValueError, match="positive and finite"):
            Ensemble(terms=((0.0, Stump(0, 0.0, 1)),), stopped_at=1)
        with pytest.raises(ValueError, match="positive and finite"):
            Ensemble(terms=((-1.0, Stump(0, 0.0, 1)),), stopped_at=1)
        with pytest.raises(ValueError, match="pair a vote with a Stump"):
            Ensemble(terms=((1.0, "stump"),), stopped_at=1)
        with pytest.raises(ValueError, match="stopped_at"):
            Ensemble(terms=((1.0, Stump(0, 0.0, 1)),), stopped_at=2)

    def test_risk_gamma_reduction(self):
        # gamma identically 1 reduces the two-sided risk to the plain one
        ds = random_problem(501, n=30)
        ens, _ = train_adaboost(ds, BoostConfig(max_iterations=8))
        plain = empirical_risk(ens, ds)
        two_sided = empirical_risk(ens, ds, ConfidenceVector(np.ones(ds.n)))
        assert two_sided == plain

    def test_risk_gamma_length_check(self):
        ds = four_points()
        ens = Ensemble(terms=((1.0, Stump(0, 0.0, 1)),), stopped_at=1)
        with pytest.raises(ValueError, match="does not match"):
            empirical_risk(ens, ds, ConfidenceVector(np.array([0.5, 0.6])))


class TestSerialization:
    def build(self):
        terms = (
            (13.815510557964274, Stump(0, -np.inf, -1)),
            (0.5493061443340549, Stump(3, 1.5, 1)),
            (1e-7, Stump(1, -2.3e-13, -1)),
        )
        return Ensemble(terms=terms, stopped_at=3)

    def test_round_trip_exact(self):
        ens = self.build()
        text = ensemble_to_json(ens, {"scenario": "normal", "k": 5})
        back, cfg = ensemble_from_json(text)
        assert back.stopped_at == 3
        for (b1, s1), (b2, s2) in zip(ens.terms, back.terms):
            assert b1 == b2  # exact through the 17-digit decimal route
            assert s1 == s2  # -inf threshold included
        assert cfg == {"scenario": "normal", "k": 5}

    def test_file_round_trip(self, tmp_path):
        ens = self.build()
        path = tmp_path / "model.json"
        save_ensemble(ens, path, {"note": "x"})
        back, cfg = load_ensemble(path)
        assert back.terms == ens.terms
        assert cfg == {"note": "x"}

    def test_format_fields_present(self):
        import json

        obj = json.loads(ensemble_to_json(self.build()))
        assert obj["format"] == "cbboost-ensemble"
        assert obj["version"] == 1
        assert isinstance(obj["terms"][0]["beta"], str)  # decimal strings

    def test_trained_model_round_trip(self):
        ds = random_problem(502, n=40)
        ens, _ = train_adaboost(ds, BoostConfig(max_iterations=20))
        back, _ = ensemble_from_json(ensemble_to_json(ens))
        assert back.terms == ens.terms
        assert np.array_equal(predict(back, ds.features), predict(ens, ds.features))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            ensemble_from_json("{nope")
        with pytest.raises(ValueError, match="missing format tag"):
            ensemble_from_json('{"version": 1}')
        with pytest.raises(ValueError, match="version"):
            ensemble_from_json('{"format": "cbboost-ensemble", "version": 2}')
        with pytest.raises(ValueError, match="malformed term 0"):
            ensemble_from_json(
                '{"format": "cbboost-ensemble", "version": 1, "stopped_at": 1,'
                ' "terms": [{"beta": "1.0", "feature": 0}]}'
            )
        head = '{"format": "cbboost-ensemble", "version": 1, '
        with pytest.raises(ValueError, match="terms must be a JSON list"):
            ensemble_from_json(head + '"stopped_at": 0, "terms": 5}')
        with pytest.raises(ValueError, match="malformed term 1: not a JSON object"):
            ensemble_from_json(
                head + '"stopped_at": 2, "terms": [{"beta": "1.0", "feature": 0, "threshold": "0.5",'
                ' "polarity": 1}, [1.0, 0, 0.5, 1]]}'
            )
        for stopped_at in ("null", '"0"', "0.5", "true"):
            with pytest.raises(ValueError, match="stopped_at must be a whole number"):
                ensemble_from_json(head + f'"stopped_at": {stopped_at}, "terms": []}}')
        # version reads as the term fields do: true and "1" are not 1
        for version in ("true", '"1"'):
            with pytest.raises(ValueError, match="version must be a whole number"):
                ensemble_from_json(f'{{"format": "cbboost-ensemble", "version": {version}, "terms": []}}')
        # int() would read 1.5, true and "1" as feature 1; float() would read true as 1.0
        good = {"beta": '"0.5"', "feature": "1", "threshold": '"0.25"', "polarity": "-1"}

        def one_term(stopped_at="1", **raw):
            term = ", ".join(f'"{k}": {v}' for k, v in {**good, **raw}.items())
            return ensemble_from_json(head + f'"stopped_at": {stopped_at}, "terms": [{{{term}}}]}}')

        for key, value, kind in [
            ("feature", "1.5", "a whole number"),
            ("feature", "true", "a whole number"),
            ("feature", '"1"', "a whole number"),
            ("polarity", '"-1"', "a whole number"),
            ("polarity", "-1.5", "a whole number"),
            ("polarity", "false", "a whole number"),
            ("beta", "true", "a number"),
            ("threshold", "false", "a number"),
        ]:
            with pytest.raises(ValueError, match=f"malformed term 0: {key} must be {kind}, got"):
                one_term(**{key: value})
        # the writer's 17-digit strings load, and so does a whole float
        assert one_term()[0].terms == ((0.5, Stump(1, 0.25, -1)),)
        assert one_term(feature="1.0", polarity="-1.0")[0].terms == ((0.5, Stump(1, 0.25, -1)),)
        assert one_term(stopped_at="1.0")[0].stopped_at == 1
        with pytest.raises(ValueError, match="config block"):
            ensemble_from_json(
                '{"format": "cbboost-ensemble", "version": 1, "stopped_at": 0,'
                ' "terms": [], "config": [1]}'
            )


def test_training_and_scoring_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma (~9 ms, ~0.85 MB) in numpy 2.x; presorting,
    # training, predicting and scoring take their distinct values without it
    code = (
        "import sys\n"
        "import numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from cbboost import boost, confidence\n"
        "from cbboost.stump import Presorted\n"
        "from cbboost.synth import gen_normal\n"
        "ds = gen_normal(200, seed=1)\n"
        "Presorted(ds.features)\n"
        "gamma, _ = confidence.estimate_confidence(ds)\n"
        "cfg = boost.BoostConfig(max_iterations=10)\n"
        "ens, trace = boost.train_cb_adaboost(ds, gamma, cfg)\n"
        "boost.train_adaboost(ds, cfg)\n"
        "boost.predict(ens, ds.features)\n"
        "boost.score(ens, ds.features)\n"
        "boost.empirical_risk(ens, ds, gamma)\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    # numpy before 2.0 imports numpy.ma itself; the library adds no import of it
    assert after == before
