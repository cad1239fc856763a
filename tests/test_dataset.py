"""CSV ingestion, splitting, and label-noise injection."""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbboost.dataset import (
    Dataset,
    NoiseMask,
    inject_label_noise,
    load_csv,
    save_csv,
    split,
)


def toy(n=6, p=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = rng.choice([-1, 1], size=n)
    if np.all(y == y[0]):
        y[0] = -y[0]
    return Dataset(X, y)


class TestDataset:
    def test_basic_shape_and_freeze(self):
        ds = toy()
        assert ds.n == 6 and ds.p == 2
        assert not ds.features.flags.writeable
        assert not ds.labels.flags.writeable
        with pytest.raises(ValueError):
            ds.features[0, 0] = 3.0

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="expected -1 or \\+1"):
            Dataset(np.zeros((3, 1)), [1, 0, -1])
        # a fractional label is rejected, not truncated to +-1
        with pytest.raises(ValueError, match="^label at row 0 is 1.5, expected -1 or \\+1$"):
            Dataset(np.zeros((2, 1)), np.array([1.5, -1.9]))
        with pytest.raises(ValueError, match="^label at row 1 is nan, expected -1 or \\+1$"):
            Dataset(np.zeros((2, 1)), [1.0, np.nan])
        assert Dataset(np.zeros((2, 1)), [1.0, -1.0]).labels.dtype == np.int64

    def test_rejects_nonfinite_features(self):
        X = np.zeros((2, 2))
        X[1, 0] = np.inf
        with pytest.raises(ValueError, match="row 1, column 0"):
            Dataset(X, [1, -1])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            Dataset(np.zeros((3, 2)), [1, -1])
        with pytest.raises(ValueError, match="2-d"):
            Dataset(np.zeros(3), [1, -1, 1])

    def test_take_keeps_order(self):
        ds = toy()
        sub = ds.take([4, 1])
        assert np.array_equal(sub.features, ds.features[[4, 1]])
        assert np.array_equal(sub.labels, ds.labels[[4, 1]])


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        ds = toy(n=20, p=3, seed=5)
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_round_trip_awkward_floats(self, tmp_path):
        X = np.array([[0.1, 1e-300], [1 / 3, -1e300]])
        ds = Dataset(X, [1, -1])
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        assert np.array_equal(load_csv(path).features, X)

    @pytest.mark.parametrize("label_column", ["label", "my,label"])
    def test_bytes_match_csv_writer(self, tmp_path, label_column):
        # the row writer joins reprs itself; csv.writer on the same cells is the reference
        X = np.array([[-0.0, 5e-324], [1e300, 123456789.0], [0.1, -1 / 3]])
        ds = Dataset(X, [1, -1, 1])
        path = tmp_path / "d.csv"
        save_csv(ds, path, label_column=label_column)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", label_column])
            for row, label in zip(X, [1, -1, 1]):
                writer.writerow([repr(float(v)) for v in row] + [str(label)])
        assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert np.array_equal(load_csv(path, label_column=label_column).features, X)

    def test_custom_label_mapping(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,outcome\n1,2,yes\n3,4,no\n")
        ds = load_csv(path, label_column="outcome", positive_label="yes")
        assert ds.labels.tolist() == [1, -1]
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_label_column_position_free(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,a\n1,2.5\n-1,3.5\n")
        ds = load_csv(path)
        assert ds.features.tolist() == [[2.5], [3.5]]
        assert ds.labels.tolist() == [1, -1]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="no column named 'label'"):
            load_csv(path)

    @pytest.mark.parametrize("header", ["x1,x2,x1", "x1,x1,x2", " x1,x2,x1 "])
    def test_repeated_label_column(self, tmp_path, header):
        path = tmp_path / "d.csv"
        path.write_text(f"{header}\n0.5,1.5,1\n2.5,3.5,-1\n")
        with pytest.raises(ValueError, match="label column 'x1' appears more than once in header"):
            load_csv(path, label_column="x1")

    @pytest.mark.parametrize("label", ["x1", "x2"])
    def test_save_rejects_label_named_like_a_feature(self, tmp_path, label):
        path = tmp_path / "d.csv"
        with pytest.raises(ValueError, match=f"label column '{label}' clashes with a feature name"):
            save_csv(toy(), path, label_column=label)
        assert not path.exists()

    def test_no_feature_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label\n1\n-1\n")
        with pytest.raises(ValueError, match="no feature columns"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,1\n2\n")
        with pytest.raises(ValueError, match="row 2 has 1 cells, expected 2"):
            load_csv(path)

    def test_missing_value_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,1\n3,,−1\n")
        with pytest.raises(ValueError, match="missing value at row 2, column 'b'"):
            load_csv(path)
        path.write_text("a,label\n1,1\n2, \n")
        with pytest.raises(ValueError, match="missing value at row 2, column 'label'"):
            load_csv(path)

    def test_unparseable_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\noops,1\n")
        with pytest.raises(ValueError, match="unparseable cell 'oops' at row 1, column 'a'"):
            load_csv(path)

    def test_nonfinite_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\nnan,1\n2,-1\n")
        with pytest.raises(ValueError, match="non-finite value 'nan' at row 1"):
            load_csv(path)

    def test_label_cardinality(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,1\n2,-1\n3,2\n")
        with pytest.raises(ValueError, match="label cardinality 3, expected 2"):
            load_csv(path)
        path.write_text("a,label\n1,1\n2,1\n")
        with pytest.raises(ValueError, match="label cardinality 1, expected 2"):
            load_csv(path)

    def test_positive_label_must_occur(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,yes\n2,no\n")
        with pytest.raises(ValueError, match="positive label '1' not among"):
            load_csv(path)

    def test_whitespace_tolerated(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a , label\n 1.5 , 1 \n2.5, -1\n")
        ds = load_csv(path)
        assert ds.features.tolist() == [[1.5], [2.5]]
        assert ds.labels.tolist() == [1, -1]


class TestSplit:
    def test_partition_and_order(self):
        ds = toy(n=10, seed=3)
        tr, te = split(ds, 0.6, seed=11)
        assert tr.n == 6 and te.n == 4
        joined = np.concatenate([tr.features, te.features])
        assert {tuple(r) for r in joined} == {tuple(r) for r in ds.features}
        # each part keeps the original relative row order
        def positions(part):
            return [int(np.flatnonzero((ds.features == r).all(axis=1))[0]) for r in part.features]

        assert positions(tr) == sorted(positions(tr))
        assert positions(te) == sorted(positions(te))

    def test_rounds_half_to_even(self):
        ds = toy(n=5)
        tr, te = split(ds, 0.5, seed=0)
        assert (tr.n, te.n) == (2, 3)  # round(2.5) == 2

    def test_deterministic_in_seed(self):
        ds = toy(n=12, seed=2)
        a1 = split(ds, 0.5, seed=9)
        a2 = split(ds, 0.5, seed=9)
        b = split(ds, 0.5, seed=10)
        assert np.array_equal(a1[0].features, a2[0].features)
        assert not np.array_equal(a1[0].features, b[0].features)

    def test_rejects_degenerate(self):
        ds = toy(n=4)
        with pytest.raises(ValueError, match="strictly inside"):
            split(ds, 1.0, seed=0)
        with pytest.raises(ValueError, match="leaves one part empty"):
            split(ds, 0.05, seed=0)
        with pytest.raises(ValueError, match="need at least 2 rows to split"):
            split(toy(n=1), 0.5, seed=0)

    @given(n=st.integers(2, 40), frac=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sizes_property(self, n, frac, seed):
        ds = toy(n=n, seed=1)
        want = int(round(frac * n))
        if want in (0, n):
            with pytest.raises(ValueError):
                split(ds, frac, seed)
        else:
            tr, te = split(ds, frac, seed)
            assert tr.n == want and te.n == n - want


class TestNoise:
    def test_flip_count_exact(self):
        ds = toy(n=100, seed=7)
        noisy, mask = inject_label_noise(ds, 0.1, seed=42)
        assert mask.count == 10
        assert int(np.sum(noisy.labels != ds.labels)) == 10
        assert np.array_equal(noisy.labels[~mask.flipped], ds.labels[~mask.flipped])
        assert np.array_equal(noisy.labels[mask.flipped], -ds.labels[mask.flipped])

    def test_zero_rate_identity(self):
        ds = toy(n=9)
        noisy, mask = inject_label_noise(ds, 0.0, seed=1)
        assert mask.count == 0
        assert np.array_equal(noisy.labels, ds.labels)

    def test_flip_is_involution(self):
        ds = toy(n=30, seed=4)
        noisy, mask = inject_label_noise(ds, 0.2, seed=5)
        restored = noisy.labels.copy()
        restored[mask.flipped] = -restored[mask.flipped]
        assert np.array_equal(restored, ds.labels)

    def test_deterministic(self):
        ds = toy(n=50, seed=6)
        _, m1 = inject_label_noise(ds, 0.3, seed=8)
        _, m2 = inject_label_noise(ds, 0.3, seed=8)
        assert np.array_equal(m1.flipped, m2.flipped)

    def test_rejects_half_or_more(self):
        ds = toy()
        with pytest.raises(ValueError, match=r"\[0, 0.5\)"):
            inject_label_noise(ds, 0.5, seed=0)

    def test_mask_validates_count(self):
        with pytest.raises(ValueError, match="implies"):
            NoiseMask(np.array([True, True, False, False]), 0.25)
        for flipped in (np.zeros((2, 2), dtype=bool), np.zeros(0, dtype=bool)):
            with pytest.raises(ValueError, match=re.escape(f"non-empty 1-d bool array, got shape {flipped.shape}")):
                NoiseMask(flipped, 0.0)
        with pytest.raises(ValueError, match=r"noise rate must lie in \[0, 0.5\), got 0.5"):
            NoiseMask(np.array([True, False]), 0.5)

    @given(n=st.integers(1, 60), rate=st.floats(0.0, 0.49), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_count_property(self, n, rate, seed):
        ds = toy(n=n, seed=0)
        noisy, mask = inject_label_noise(ds, rate, seed)
        assert mask.count == int(round(rate * n))
        assert int(np.sum(noisy.labels != ds.labels)) == mask.count
