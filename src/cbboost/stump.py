"""Decision stumps trained to exact minimum weighted 0-1 error.

The trainer scans all axis-aligned splits. Candidate thresholds per feature
are the midpoints between consecutive distinct sorted values plus a -inf
sentinel (constant prediction); comparisons are strict `>`. A presort
(Presorted), built once per matrix, holds each column's stable sort order,
thresholds and their split positions; a boosting run fits every round from
one. Each fit runs one signed cumulative-sum sweep per feature, which scores
both polarities of every candidate to within a rounding drift and brackets
the optimum. A (candidate, polarity) pair alone in the bracket is the exact
optimum; near-ties, and only they, are re-scored with a correctly rounded
sum (math.fsum) so equal-error candidates genuinely tie. Ties are broken
deterministically: lowest error, then lowest feature index, then lowest
threshold, then polarity +1 before -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import frozen

__all__ = ["Stump", "Presorted", "train_stump", "candidate_thresholds"]


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


def _reject(y, w, total):
    # the detailed checks, in order, for inputs the one-pass check refused
    if not np.all((y == 1) | (y == -1)):
        raise ValueError("labels must be -1 or +1")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    raise ValueError(f"total weight must be finite and positive, got {total}")


def train_stump(features, labels, weights) -> Stump:
    """Exact weighted-error minimizer over all stump hypotheses.

    features is a matrix or its Presorted form; a matrix is presorted on
    entry. weights must be nonnegative with a finite positive total; any
    common rescaling of the weights leaves the result unchanged.
    """
    ps = features if isinstance(features, Presorted) else Presorted(features)
    y = np.asarray(labels, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    n = ps.n
    if y.shape != (n,) or w.shape != (n,):
        raise ValueError(f"labels {y.shape} / weights {w.shape} do not match {n} rows")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    # a finite total over a nonnegative minimum also rules out inf and nan
    # weights; only inputs that fail this pass are checked one by one
    if not (math.isfinite(total) and total > 0.0 and w.min() >= 0.0 and (np.abs(y) == 1).all()):
        _reject(y, w, total)

    # One signed sweep per feature: cs[i] is the positive minus the negative
    # weight at or below thr[i], so predicting +1 strictly above thr[i] errs
    # by neg_total + cs[i] and predicting -1 by pos_total - cs[i]. The cumsum,
    # the class totals and one add leave each entry within ~2 * n * eps *
    # total of its exact error; the slack exceeds twice that, so every exact
    # minimum lies within the cut, and a pair alone there beats every other
    # pair exactly.
    slack = 16.0 * np.finfo(np.float64).eps * (n + 4) * total
    pos = y > 0
    sw = w * y
    pos_total = float(w @ pos)
    neg_total = total - pos_total
    sweeps = []
    for _, order, _, k in ps.columns:
        cs = np.concatenate(([0.0], np.cumsum(sw[order])))[k]
        # rounding is monotone, so these are the minima of the two error arrays
        sweeps.append((cs, min(neg_total + float(cs.min()), pos_total - float(cs.max()))))
    cut = min(low for _, low in sweeps) + slack

    # The bracketed pairs in tie-rule order: feature, threshold, +1 before -1.
    near = []
    for j, (cs, low) in enumerate(sweeps):
        if low <= cut:
            err = np.column_stack((neg_total + cs, pos_total - cs))
            near += [(j, f // 2, (1, -1)[f % 2]) for f in np.flatnonzero(err <= cut)]
    # Near-ties are re-scored exactly: polarity pol is wrong where (x > t)
    # disagrees with (y * pol > 0). fsum rounds the true sum correctly, so
    # equal-error pairs compare equal and the first in visit order wins.
    best = near[0]
    if len(near) > 1:
        errs = [math.fsum(w[(ps.columns[j][0] > ps.columns[j][2][i]) != (y * pol > 0)]) for j, i, pol in near]
        best = near[errs.index(min(errs))]
    j, i, pol = best
    return Stump(feature=j, threshold=float(ps.columns[j][2][i]), polarity=pol)
