"""Decision stumps trained to exact minimum weighted 0-1 error.

The trainer scans all axis-aligned splits. Candidate thresholds per feature
are the midpoints between consecutive distinct sorted values plus a -inf
sentinel (constant prediction); comparisons are strict `>`. A presort
(Presorted), built once per matrix, holds each column's stable sort order,
thresholds and their split positions; a boosting run fits every round from
one. Each fit gathers the weights in sorted order, a vectorized
cumulative-sum sweep brackets the optimum, then every candidate within a
small slack of that bracket is re-scored with a correctly rounded masked
sum so equal-error candidates genuinely tie. Ties are broken
deterministically: lowest error, then lowest feature index, then lowest
threshold, then polarity +1 before -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import frozen

__all__ = ["Stump", "Presorted", "train_stump", "predict_stump", "candidate_thresholds"]


@dataclass(frozen=True)
class Stump:
    """One-level tree: predict `polarity` where x[feature] > threshold, else -polarity."""

    feature: int
    threshold: float
    polarity: int

    def __post_init__(self):
        if self.feature < 0:
            raise ValueError(f"feature index must be >= 0, got {self.feature}")
        if self.polarity not in (-1, 1):
            raise ValueError(f"polarity must be -1 or +1, got {self.polarity}")
        if not (np.isfinite(self.threshold) or self.threshold == -np.inf):
            raise ValueError(f"threshold must be finite or -inf, got {self.threshold}")

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"expected a 2-d feature matrix, got shape {X.shape}")
        if self.feature >= X.shape[1]:
            raise ValueError(f"stump uses feature {self.feature} but matrix has {X.shape[1]} columns")
        return np.where(X[:, self.feature] > self.threshold, self.polarity, -self.polarity).astype(np.int64)


def predict_stump(stump: Stump, x) -> int:
    """Predicted label for a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d feature vector, got shape {x.shape}")
    return int(stump.predict(x[None, :])[0])


def candidate_thresholds(column) -> np.ndarray:
    """-inf plus midpoints of consecutive distinct sorted values of one column."""
    u = np.unique(np.asarray(column, dtype=np.float64))
    return np.concatenate(([-np.inf], (u[:-1] + u[1:]) / 2.0))


class Presorted:
    """A feature matrix presorted for repeated stump fits.

    columns[j] holds column j's values, the stable order that sorts them,
    candidate_thresholds of the column and, for each threshold, the number
    of sorted values at or below it. The arrays are read-only copies, so the
    cache cannot fall out of step with the values it was built from.
    """

    def __init__(self, features):
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError(f"expected a non-empty 2-d feature matrix, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        self.n = X.shape[0]
        columns = []
        for j in range(X.shape[1]):
            col = X[:, j]
            order = np.argsort(col, kind="stable")
            thr = candidate_thresholds(col)
            split = np.searchsorted(col[order], thr, side="right")
            columns.append(tuple(frozen(a) for a in (col, order, thr, split)))
        self.columns = tuple(columns)


def train_stump(features, labels, weights) -> Stump:
    """Exact weighted-error minimizer over all stump hypotheses.

    features is a matrix or its Presorted form; a matrix is presorted on
    entry. weights must be nonnegative with positive total; any common
    rescaling of the weights leaves the result unchanged.
    """
    ps = features if isinstance(features, Presorted) else Presorted(features)
    y = np.asarray(labels, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    n = ps.n
    if y.shape != (n,) or w.shape != (n,):
        raise ValueError(f"labels {y.shape} / weights {w.shape} do not match {n} rows")
    if not np.all((y == 1) | (y == -1)):
        raise ValueError("labels must be -1 or +1")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = float(np.sum(w))
    if total <= 0.0:
        raise ValueError("total weight must be positive")

    # Pass 1: cumulative-sum sweep per feature to bracket the minimum error.
    # Cumulative sums can drift by ~n*eps*total from direct summation, so the
    # bracket carries that much slack before the exact pass decides.
    slack = 16.0 * np.finfo(np.float64).eps * (n + 4) * total
    wp = w * (y > 0)
    wn = w * (y < 0)
    per_feature = []
    approx_min = np.inf
    for col, order, thr, k in ps.columns:
        cp = np.concatenate(([0.0], np.cumsum(wp[order])))
        cn = np.concatenate(([0.0], np.cumsum(wn[order])))
        # predicting +1 strictly above thr misclassifies positives at or below
        # it and negatives above it
        err_pos = cp[k] + (cn[-1] - cn[k])
        err_neg = (cp[-1] - cp[k]) + cn[k]
        per_feature.append((err_pos, err_neg))
        approx_min = min(approx_min, float(err_pos.min()), float(err_neg.min()))

    # Pass 2: exact re-scoring of every bracketed candidate, visited in
    # tie-rule order so the first strict improvement wins. Polarity +1 is
    # wrong exactly where (x > t) disagrees with (y > 0), and -1 on the rest.
    # fsum rounds the true sum correctly, so equal-error candidates compare
    # equal and the visit order becomes the real tie rule.
    best_err = np.inf
    best = None
    pos = y > 0
    for j, (col, _, thr, _) in enumerate(ps.columns):
        err_pos, err_neg = per_feature[j]
        near = np.flatnonzero(np.minimum(err_pos, err_neg) <= approx_min + slack)
        for i in near:
            t = float(thr[i])
            wrong = (col > t) != pos
            for pol, e in ((1, math.fsum(w[wrong])), (-1, math.fsum(w[~wrong]))):
                if e < best_err:
                    best_err = e
                    best = (j, t, pol)
    assert best is not None
    return Stump(feature=best[0], threshold=best[1], polarity=best[2])
