"""Neighborhood filter, KNN and Gaussian label-confidence, and gamma CSV IO."""

import math
import subprocess
import sys

import numpy as np
import pytest

from cbboost import confidence
from cbboost.confidence import (
    ConfidenceVector,
    FilterReport,
    FilterRound,
    bayes_confidence,
    confidence_quality,
    estimate_confidence,
    knn_confidence,
    noise_filter,
    read_gamma_csv,
    write_gamma_csv,
)
from cbboost.dataset import Dataset, NoiseMask, inject_label_noise
from cbboost.synth import gen_normal


def line_dataset():
    # five agreeing points on a line plus one far-away dissenter
    X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [100.0]])
    y = np.array([1, 1, 1, 1, 1, -1])
    return Dataset(X, y)


def keep_all(n):
    return FilterReport(n=n, kept=np.arange(n), rounds=(), aborted=False)


class TestConfidenceVector:
    def test_bounds(self):
        with pytest.raises(ValueError, match=r"gamma\[1\] = 1.5"):
            ConfidenceVector(np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match="finite"):
            ConfidenceVector(np.array([np.nan]))
        with pytest.raises(ValueError, match="1-d"):
            ConfidenceVector(np.zeros((2, 2)))

    def test_frozen(self):
        g = ConfidenceVector(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            g.gamma[0] = 0.0


class TestNoiseFilter:
    def test_outlier_removed_first_round(self):
        report = noise_filter(line_dataset(), k=2)
        assert report.kept.tolist() == [0, 1, 2, 3, 4]
        assert report.rounds[0].removed.tolist() == [5]
        assert report.rounds[1].removed.tolist() == []
        assert report.rounds[2].removed.tolist() == []
        assert not report.aborted

    def test_clean_set_untouched(self):
        ds = gen_normal(200, seed=0)
        report = noise_filter(ds)
        # well-separated Gaussians: almost everything agrees with neighbors
        assert report.n_kept >= 190

    def test_agreement_strictly_below_threshold(self):
        # two tight opposite-label pairs: every point has agreement 1/2 with
        # k=2 (one neighbor from each pair); 0.5 is not below 0.45 so all stay
        X = np.array([[0.0], [0.1], [10.0], [10.1]])
        y = np.array([1, 1, -1, -1])
        report = noise_filter(Dataset(X, y), k=2, thresholds=(0.45,))
        assert report.kept.tolist() == [0, 1, 2, 3]
        # at 0.55 the same agreement now falls below the bar: everyone goes
        report2 = noise_filter(Dataset(X, y), k=2, thresholds=(0.55,))
        assert report2.kept.tolist() == []

    def test_abort_when_too_few_survive(self):
        ds = line_dataset()
        report = noise_filter(ds, k=6)  # k >= n - never able to run
        assert report.aborted
        assert report.kept.tolist() == list(range(6))
        assert report.rounds == ()

    def test_abort_mid_schedule(self):
        # round one removes only the isolated point, round two sweeps out the
        # rest (every survivor splits its neighborhood 1/2), and round three
        # finds nobody left to divide
        X = np.array([[0.0], [0.1], [10.0], [10.1], [20.0]])
        y = np.array([1, 1, -1, -1, 1])
        report = noise_filter(Dataset(X, y), k=2, thresholds=(0.4, 0.6, 0.8))
        assert report.rounds[0].removed.tolist() == [4]
        assert report.rounds[1].removed.tolist() == [0, 1, 2, 3]
        assert len(report.rounds) == 2
        assert report.aborted
        assert report.n_kept == 0

    def test_neighborhoods_recomputed_per_round(self):
        # after the far dissenter leaves, point 4's neighborhood is unchanged
        # but the schedule climbing to 0.6 still keeps all agreeing points
        report = noise_filter(line_dataset(), k=2, thresholds=(0.07, 0.6))
        assert report.kept.tolist() == [0, 1, 2, 3, 4]

    def test_validation(self):
        ds = line_dataset()
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            noise_filter(ds, thresholds=(0.0, 0.5))
        with pytest.raises(ValueError, match="strictly increasing"):
            noise_filter(ds, thresholds=(0.3, 0.3))
        with pytest.raises(ValueError, match="k >= 1"):
            noise_filter(ds, k=0)

    def test_report_partition_enforced(self):
        with pytest.raises(ValueError, match="partition"):
            FilterReport(n=3, kept=np.array([0, 1]), rounds=(), aborted=False)
        with pytest.raises(ValueError, match="partition"):
            FilterReport(
                n=3,
                kept=np.array([0, 1]),
                rounds=(FilterRound(0.1, np.array([2, 2])),),
            )


class TestKnnConfidence:
    def test_line_case_by_hand(self):
        ds = line_dataset()
        report = noise_filter(ds, k=2)
        g = knn_confidence(ds, report, k=2).gamma
        # rows 0-4: both nearest kept neighbors share the + label
        assert g[:5].tolist() == [1.0] * 5
        # the dissenter's neighbors (rows 3, 4) both disagree with its label
        assert g[5] == 0.0

    def test_self_exclusion(self):
        # two tight pairs; with self included row 0's nearest would be itself
        X = np.array([[0.0], [0.01], [1.0], [1.01]])
        y = np.array([1, -1, 1, 1])
        g = knn_confidence(Dataset(X, y), keep_all(4), k=1).gamma
        assert g[0] == 0.0  # nearest other row is the opposite-label row 1
        assert g[1] == 0.0
        assert g[2] == 1.0

    def test_distance_tie_lower_index(self):
        # row 1 sits exactly between rows 0 and 2; the tie must resolve to
        # row 0, whose label disagrees
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([-1, 1, 1])
        g = knn_confidence(Dataset(X, y), keep_all(3), k=1, standardize=False).gamma
        assert g[1] == 0.0

    def test_grid_values(self):
        ds = gen_normal(120, seed=1)
        noisy, _ = inject_label_noise(ds, 0.2, seed=2)
        report = noise_filter(noisy)
        g = knn_confidence(noisy, report, k=5).gamma
        assert np.all(np.isin(np.round(g * 5), np.arange(6)))

    def test_label_complement_symmetry(self):
        # flipping a query row's label maps its confidence to 1 - gamma when
        # the reference set stays fixed
        ds = gen_normal(80, seed=3)
        report = noise_filter(ds)
        g = knn_confidence(ds, report, k=5).gamma
        j = int(report.kept[0])
        y2 = ds.labels.copy()
        y2[j] = -y2[j]
        flipped = Dataset(ds.features, y2)
        g2 = knn_confidence(flipped, report, k=5).gamma
        assert g2[j] == pytest.approx(1.0 - g[j])

    def test_requires_reference_bigger_than_k(self):
        ds = line_dataset()
        small = FilterReport(
            n=6,
            kept=np.array([0, 1]),
            rounds=(FilterRound(0.07, np.array([2, 3, 4, 5])),),
        )
        with pytest.raises(ValueError, match="need more than k=2"):
            knn_confidence(ds, small, k=2)

    def test_report_from_another_dataset(self, monkeypatch):
        # a report of the first 100 rows must not serve all 200, nor the
        # reverse, and is rejected before a neighbour table is searched
        big = gen_normal(200, seed=1)
        small = Dataset(big.features[:100], big.labels[:100])
        reports = {ds.n: noise_filter(ds) for ds in (big, small)}
        monkeypatch.setattr(confidence, "Neighbours", None)
        for ds, other in ((big, small), (small, big)):
            report = reports[other.n]
            with pytest.raises(ValueError, match=f"covers {other.n} rows but the dataset has {ds.n}"):
                knn_confidence(ds, report)
            with pytest.raises(ValueError, match=f"covers {other.n} rows but the dataset has {ds.n}"):
                bayes_confidence(ds, report, 0.1)

    def test_standardize_knob_changes_geometry(self):
        # second feature dominates raw distances; z-scoring rebalances them
        rng = np.random.default_rng(4)
        X = np.column_stack([rng.normal(size=40), rng.normal(size=40) * 1000])
        y = np.where(X[:, 0] > 0, 1, -1)
        ds = Dataset(X, y)
        g_std = knn_confidence(ds, keep_all(40), k=3, standardize=True).gamma
        g_raw = knn_confidence(ds, keep_all(40), k=3, standardize=False).gamma
        assert not np.array_equal(g_std, g_raw)

    def test_deterministic(self):
        ds = gen_normal(100, seed=5)
        r1 = noise_filter(ds)
        r2 = noise_filter(ds)
        assert np.array_equal(r1.kept, r2.kept)
        g1 = knn_confidence(ds, r1).gamma
        g2 = knn_confidence(ds, r2).gamma
        assert np.array_equal(g1, g2)


def normal_pdf(x, mu, var):
    return math.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2 * math.pi * var)


class TestBayesConfidence:
    def hand_dataset(self):
        # class +1 at {0, 1, 2}: mu 1, population var 2/3;
        # class -1 at {5, 6, 7}: mu 6, population var 2/3
        X = np.array([[0.0], [1.0], [2.0], [5.0], [6.0], [7.0]])
        y = np.array([1, 1, 1, -1, -1, -1])
        return Dataset(X, y)

    def hand_expected(self, ds, e, form):
        mus = {1: 1.0, -1: 6.0}
        var = 2.0 / 3.0
        out = []
        for i in range(ds.n):
            x = ds.features[i, 0]
            yy = int(ds.labels[i])
            f_y = normal_pdf(x, mus[yy], var)
            f_o = normal_pdf(x, mus[-yy], var)
            a = 0.5 - e
            b = (1.0 - 0.5 - e) if form == "consistent" else e
            out.append(a * f_y / (a * f_y + b * f_o))
        return np.array(out)

    def test_hand_computation_both_forms(self):
        ds = self.hand_dataset()
        report = keep_all(6)
        for form in ("consistent", "paper-literal"):
            got = bayes_confidence(ds, report, 0.1, form=form).gamma
            want = self.hand_expected(ds, 0.1, form)
            assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_forms_coincide_at_balanced_quarter(self):
        # with balanced priors the two mixture weights agree exactly when
        # e = 0.25: 1 - 0.5 - e == e
        ds = self.hand_dataset()
        g1 = bayes_confidence(ds, keep_all(6), 0.25, form="consistent").gamma
        g2 = bayes_confidence(ds, keep_all(6), 0.25, form="paper-literal").gamma
        assert np.array_equal(g1, g2)

    def test_population_variance_in_fit(self):
        # the class variance is fitted with 1/n, not 1/(n-1): the expected
        # values below bake in var = 2/3 and match only under that convention
        ds = self.hand_dataset()
        got = bayes_confidence(ds, keep_all(6), 0.0, form="consistent").gamma
        want = self.hand_expected(ds, 0.0, "consistent")
        assert np.allclose(got, want, rtol=1e-12)

    def test_affine_invariance(self):
        # densities are fitted on raw features; rescaling and shifting every
        # column rescales both densities identically, so gamma is unchanged
        rng = np.random.default_rng(6)
        ds = gen_normal(200, seed=7)
        report = noise_filter(ds)
        g1 = bayes_confidence(ds, report, 0.1).gamma
        moved = Dataset(ds.features * np.array([3.0, 0.25]) + 10.0, ds.labels)
        g2 = bayes_confidence(moved, report, 0.1).gamma
        assert np.allclose(g1, g2, rtol=1e-9)

    def test_removed_rows_still_scored(self):
        ds = gen_normal(100, seed=8)
        noisy, _ = inject_label_noise(ds, 0.2, seed=9)
        report = noise_filter(noisy)
        assert report.n_kept < 100
        g = bayes_confidence(noisy, report, 0.2).gamma
        assert g.shape == (100,)
        assert np.all(np.isfinite(g))

    def test_singular_covariance_ridged(self):
        X = np.column_stack([np.arange(8.0), np.arange(8.0)])  # rank 1
        y = np.array([1, 1, 1, 1, -1, -1, -1, -1])
        ds = Dataset(X, y)
        with pytest.warns(RuntimeWarning, match="singular covariance"):
            g = bayes_confidence(ds, keep_all(8), 0.1).gamma
        assert np.all(np.isfinite(g))

    def test_extreme_points_stay_in_range(self):
        X = np.array([[0.0], [1.0], [2.0], [5.0], [6.0], [7.0], [1e6]])
        y = np.array([1, 1, 1, -1, -1, -1, 1])
        g = bayes_confidence(Dataset(X, y), keep_all(7), 0.1).gamma
        assert np.all((g >= 0.0) & (g <= 1.0)) and np.all(np.isfinite(g))

    def test_validation(self):
        ds = self.hand_dataset()
        with pytest.raises(ValueError, match="form must be"):
            bayes_confidence(ds, keep_all(6), 0.1, form="other")
        with pytest.raises(ValueError, match=r"\[0, 0.5\)"):
            bayes_confidence(ds, keep_all(6), 0.5)
        # unbalanced classes: the smaller prior 3/7 caps the legal flip rate
        X = np.array([[0.0], [1.0], [2.0], [3.0], [5.0], [6.0], [7.0]])
        y = np.array([1, 1, 1, 1, -1, -1, -1])
        skew = Dataset(X, y)
        with pytest.raises(ValueError, match="below the smaller class proportion"):
            bayes_confidence(skew, keep_all(7), 0.45)
        # kept set with only two + rows cannot support a univariate Gaussian
        thin = FilterReport(
            n=6,
            kept=np.array([0, 1, 3, 4, 5]),
            rounds=(FilterRound(0.1, np.array([2])),),
        )
        with pytest.raises(ValueError, match="need at least p\\+2"):
            bayes_confidence(ds, thin, 0.1)


class TestStandardized:
    def test_zero_mean_unit_sd(self):
        ds = gen_normal(40, seed=9)
        z = confidence._standardized(ds, True)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_passthrough(self):
        X = np.column_stack([np.full(5, 3.5), np.arange(5.0)])
        z = confidence._standardized(Dataset(X, [1, -1, 1, -1, 1]), True)
        assert np.array_equal(z[:, 0], np.zeros(5))

    def test_population_std(self):
        z = confidence._standardized(Dataset(np.array([[0.0], [2.0]]), [1, -1]), True)
        assert np.array_equal(z[:, 0], [-1.0, 1.0])  # ddof=0, not 2/sqrt(2)

    def test_overflow_rejected(self):
        ds = Dataset(np.array([[1e308], [1e308], [0.0]]), [1, -1, 1])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="mean or standard deviation overflows"):
            confidence._standardized(ds, True)


class TestPipeline:
    def test_dispatch_matches_stages(self):
        ds = gen_normal(150, seed=10)
        noisy, _ = inject_label_noise(ds, 0.1, seed=11)
        g, report = estimate_confidence(noisy, method="knn")
        report2 = noise_filter(noisy)
        assert np.array_equal(report.kept, report2.kept)
        assert np.array_equal(g.gamma, knn_confidence(noisy, report2).gamma)

    def test_bayes_requires_noise_level(self):
        ds = gen_normal(100, seed=12)
        with pytest.raises(ValueError, match="requires a noise_level"):
            estimate_confidence(ds, method="bayes")

    def test_unknown_method(self):
        ds = gen_normal(100, seed=13)
        with pytest.raises(ValueError, match="unknown confidence method"):
            estimate_confidence(ds, method="svm")

    def test_clean_normal_scores_high(self):
        ds = gen_normal(500, seed=14)
        g, _ = estimate_confidence(ds, method="knn")
        assert float(g.gamma.mean()) > 0.85

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"method": "svm"}, "unknown confidence method"), ({"method": "bayes"}, "requires a noise_level")],
    )
    def test_bad_method_rejected_before_the_table_search(self, monkeypatch, kwargs, message):
        builds = []

        class Counting(confidence.Neighbours):
            def __init__(self, *args, **kw):
                builds.append(args)
                super().__init__(*args, **kw)

        monkeypatch.setattr(confidence, "Neighbours", Counting)
        ds = gen_normal(100, seed=15)
        estimate_confidence(ds)
        assert len(builds) == 1
        with pytest.raises(ValueError, match=message):
            estimate_confidence(ds, **kwargs)
        assert len(builds) == 1


class TestQuality:
    def test_group_stats(self):
        g = ConfidenceVector(np.array([0.9, 0.8, 0.1, 0.2]))
        mask = NoiseMask(np.array([False, False, True, True]), 0.5 - 1e-9)
        q = confidence_quality(g, mask)
        assert q["clean"].mean == pytest.approx(0.85)
        assert q["clean"].count == 2
        assert q["mislabeled"].mean == pytest.approx(0.15)

    def test_empty_group_is_none(self):
        g = ConfidenceVector(np.array([0.9, 0.8]))
        mask = NoiseMask(np.array([False, False]), 0.0)
        q = confidence_quality(g, mask)
        assert q["mislabeled"] is None
        assert q["clean"].count == 2

    def test_length_mismatch(self):
        g = ConfidenceVector(np.array([0.9]))
        mask = NoiseMask(np.array([False, False]), 0.0)
        with pytest.raises(ValueError, match="does not match"):
            confidence_quality(g, mask)


class TestGammaCsv:
    def test_round_trip_exact(self, tmp_path):
        g = ConfidenceVector(np.array([0.0, 1.0, 1 / 3, 0.07]))
        path = tmp_path / "g.csv"
        write_gamma_csv(g, path)
        back = read_gamma_csv(path)
        assert np.array_equal(back.gamma, g.gamma)

    def test_header_line(self, tmp_path):
        path = tmp_path / "g.csv"
        write_gamma_csv(ConfidenceVector(np.array([0.5])), path)
        assert path.read_text().splitlines()[0] == "gamma"

    def test_errors(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_gamma_csv(path)
        path.write_text("conf\n0.5\n")
        with pytest.raises(ValueError, match="single column named 'gamma'"):
            read_gamma_csv(path)
        path.write_text("gamma\n0.5,0.6\n")
        with pytest.raises(ValueError, match="row 1 must hold exactly one value"):
            read_gamma_csv(path)
        path.write_text("gamma\nabc\n")
        with pytest.raises(ValueError, match="unparseable value 'abc' at row 1"):
            read_gamma_csv(path)
        path.write_text("gamma\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_gamma_csv(path)
        path.write_text("gamma\n1.7\n")
        with pytest.raises(ValueError, match=r"g.csv: gamma '1.7' at row 1 outside \[0, 1\]"):
            read_gamma_csv(path)
        path.write_text("gamma\n0.5\nnan\n")
        with pytest.raises(ValueError, match=r"g.csv: gamma 'nan' at row 2 outside \[0, 1\]"):
            read_gamma_csv(path)
        path.write_text("gamma\n0.5\n0.5\n-inf\n")
        with pytest.raises(ValueError, match=r"g.csv: gamma '-inf' at row 3 outside \[0, 1\]"):
            read_gamma_csv(path)


def test_imports_nothing_outside_stdlib_and_numpy():
    # scipy is installed in some environments but is not a dependency; the
    # exact neighbour search must not reach for it (or anything else)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import numpy as np\n"
        "import cbboost\n"
        "from cbboost.confidence import estimate_confidence\n"
        "from cbboost.dataset import inject_label_noise\n"
        "from cbboost.synth import gen_normal\n"
        "noisy, _ = inject_label_noise(gen_normal(300, seed=1), 0.2, seed=2)\n"
        "estimate_confidence(noisy)\n"
        "allowed = set(sys.stdlib_module_names) | {'numpy', 'cbboost'}\n"
        "# modules loaded from a file; Cython's runtime registers file-less ones\n"
        "loaded = {m for m in set(sys.modules) - before if getattr(sys.modules[m], '__file__', None)}\n"
        "print(sorted({m.split('.')[0] for m in loaded} - allowed), 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] False"
