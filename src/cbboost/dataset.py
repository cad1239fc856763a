"""Dataset container plus CSV ingestion, splitting and noise injection.

Every type here is a frozen dataclass wrapping read-only numpy arrays, and
every operation is a pure function of its inputs and an explicit seed, so a
pipeline rerun with the same arguments reproduces its outputs byte for byte.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .util import frozen

__all__ = [
    "Dataset",
    "NoiseMask",
    "load_csv",
    "save_csv",
    "split",
    "inject_label_noise",
]


@dataclass(frozen=True)
class Dataset:
    """An n x p float feature matrix with labels in {-1, +1}.

    Validation happens at construction: features must be finite, labels must
    match the row count and take no value outside {-1, +1}.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels)
        # real labels are checked as given, so 1.5 is rejected rather than cast to 1
        if y.dtype.kind != "f":
            y = np.asarray(self.labels, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"features must be a non-empty 2-d matrix, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"labels shape {y.shape} does not match {X.shape[0]} feature rows")
        if not np.all(np.isfinite(X)):
            i, j = np.argwhere(~np.isfinite(X))[0]
            raise ValueError(f"non-finite feature value at row {int(i)}, column {int(j)}")
        bad = np.flatnonzero((y != 1) & (y != -1))
        if bad.size:
            raise ValueError(f"label at row {int(bad[0])} is {y[bad[0]]}, expected -1 or +1")
        object.__setattr__(self, "features", frozen(X))
        object.__setattr__(self, "labels", frozen(y, dtype=np.int64))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def take(self, idx) -> "Dataset":
        """Row subset, keeping the order given by idx."""
        idx = np.asarray(idx)
        return Dataset(self.features[idx], self.labels[idx])


@dataclass(frozen=True)
class NoiseMask:
    """Which rows had their label flipped, together with the nominal rate."""

    flipped: np.ndarray
    rate: float

    def __post_init__(self):
        f = np.asarray(self.flipped, dtype=bool)
        if f.ndim != 1 or f.size < 1:
            raise ValueError(f"flipped must be a non-empty 1-d bool array, got shape {f.shape}")
        if not (0.0 <= self.rate < 0.5):
            raise ValueError(f"noise rate must lie in [0, 0.5), got {self.rate}")
        want = int(round(self.rate * f.size))
        got = int(f.sum())
        if got != want:
            raise ValueError(f"{got} rows flagged but rate {self.rate} over {f.size} rows implies {want}")
        object.__setattr__(self, "flipped", frozen(f))

    @property
    def count(self) -> int:
        return int(self.flipped.sum())


def load_csv(path, label_column: str = "label", positive_label: str = "1") -> Dataset:
    """Read a headered CSV into a Dataset.

    All columns except `label_column` are parsed as float features. The label
    column must contain exactly two distinct values; rows whose label equals
    `positive_label` map to +1 and the other value maps to -1. Any missing or
    unparseable cell fails loudly with its data row (1-based, header excluded)
    and column name; nothing is imputed or dropped silently.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r} in header {header}")
        if header.count(label_column) > 1:
            raise ValueError(f"{path}: label column {label_column!r} appears more than once in header {header}")
        li = header.index(label_column)
        feat_idx = [j for j in range(len(header)) if j != li]
        if not feat_idx:
            raise ValueError(f"{path}: no feature columns besides {label_column!r}")
        rows: list[list[float]] = []
        tokens: list[str] = []
        for r, rec in enumerate(reader, start=1):
            if len(rec) != len(header):
                raise ValueError(f"{path}: row {r} has {len(rec)} cells, expected {len(header)}")
            vals = []
            for j in feat_idx:
                cell = rec[j].strip()
                if cell == "":
                    raise ValueError(f"{path}: missing value at row {r}, column {header[j]!r}")
                try:
                    v = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: unparseable cell {cell!r} at row {r}, column {header[j]!r}"
                    ) from None
                if not math.isfinite(v):
                    raise ValueError(f"{path}: non-finite value {cell!r} at row {r}, column {header[j]!r}")
                vals.append(v)
            lab = rec[li].strip()
            if lab == "":
                raise ValueError(f"{path}: missing value at row {r}, column {label_column!r}")
            rows.append(vals)
            tokens.append(lab)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    distinct = sorted(set(tokens))
    if len(distinct) != 2:
        raise ValueError(f"{path}: label cardinality {len(distinct)}, expected 2 (values {distinct[:6]})")
    if positive_label not in distinct:
        raise ValueError(f"{path}: positive label {positive_label!r} not among observed labels {distinct}")
    y = np.where(np.asarray(tokens) == positive_label, 1, -1)
    return Dataset(np.asarray(rows, dtype=np.float64), y)


def save_csv(ds: Dataset, path, label_column: str = "label") -> None:
    """Write a Dataset to CSV with a header row x1..xp, then the label column.

    Floats are written with repr so that load_csv(save_csv(ds)) round-trips
    every value exactly; labels are written as 1 / -1.
    """
    feature_names = [f"x{j + 1}" for j in range(ds.p)]
    # load_csv could not tell the label from a feature of the same name
    if label_column in feature_names:
        raise ValueError(f"label column {label_column!r} clashes with a feature name in {feature_names}")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(feature_names + [label_column])
        # a float's repr or an int never needs quoting, so each row is the
        # cells joined by commas and csv.writer's line ending
        rows = zip(ds.features.tolist(), ds.labels.tolist())
        fh.writelines(f"{','.join(map(repr, row))},{label}\r\n" for row, label in rows)


def split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Random partition into (train, test) with round(train_fraction * n) train rows.

    Deterministic in (ds, train_fraction, seed); within each part the original
    row order is kept. Fractions that would leave either part empty are
    rejected rather than silently clamped.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValueError(f"train_fraction must lie strictly inside (0, 1), got {train_fraction}")
    if ds.n < 2:
        raise ValueError("need at least 2 rows to split")
    n_train = int(round(train_fraction * ds.n))
    if n_train in (0, ds.n):
        raise ValueError(f"train_fraction {train_fraction} over {ds.n} rows leaves one part empty")
    perm = np.random.default_rng(seed).permutation(ds.n)
    return ds.take(np.sort(perm[:n_train])), ds.take(np.sort(perm[n_train:]))


def inject_label_noise(ds: Dataset, rate: float, seed: int) -> tuple[Dataset, NoiseMask]:
    """Flip the labels of round(rate * n) rows chosen uniformly without replacement."""
    if not (0.0 <= rate < 0.5):
        raise ValueError(f"noise rate must lie in [0, 0.5), got {rate}")
    count = int(round(rate * ds.n))
    flipped = np.zeros(ds.n, dtype=bool)
    if count:
        idx = np.random.default_rng(seed).choice(ds.n, size=count, replace=False)
        flipped[idx] = True
    labels = ds.labels.copy()
    labels[flipped] = -labels[flipped]
    return Dataset(ds.features, labels), NoiseMask(flipped, rate)
