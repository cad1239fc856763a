"""Decision stumps trained to exact minimum weighted 0-1 error.

The trainer scans all axis-aligned splits. Candidate thresholds per feature
are the midpoints between consecutive distinct sorted values plus a -inf
sentinel (constant prediction); comparisons are strict `>`. A presort
(Presorted), built once per matrix, holds each column's stable sort order,
thresholds and, per finite threshold, the position in the column's sorted
running sum where its rows end; both modes of a boosting run fit every round
from the run's one presort (resample mode weighs each row by its draw count).
Each fit runs one running sum of the signed weights per feature. The sums
at those positions score both polarities of every candidate to within a
rounding drift, the sum's last entry gives the class totals, and the two
together bracket the optimum. A (candidate, polarity) pair alone in the
bracket is the exact optimum; near-ties, and only they, are re-scored with
a correctly rounded sum (math.fsum) so equal-error candidates genuinely tie.
Whole-number weights (draw counts) totalling under 2^53 need no re-scoring:
the sweep's own sums are then exact.
Ties are broken deterministically: lowest error, then lowest feature index,
then lowest threshold, then polarity +1 before -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import distinct, frozen

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
        if not (math.isfinite(self.threshold) or self.threshold == -math.inf):
            raise ValueError(f"threshold must be finite or -inf, got {self.threshold}")

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"expected a 2-d feature matrix, got shape {X.shape}")
        if self.feature >= X.shape[1]:
            raise ValueError(f"stump uses feature {self.feature} but matrix has {X.shape[1]} columns")
        return np.where(X[:, self.feature] > self.threshold, self.polarity, -self.polarity).astype(np.int64)


def _midpoint(a, b) -> np.ndarray:
    """A threshold that splits a < b: their midpoint, or a where it rounds onto b.

    Where the sum is finite, (a + b) / 2 rounds the exact midpoint correctly
    and is kept bit for bit. Where it overflows, a and b are too large for
    halving to round, so a / 2 + b / 2 rounds the same midpoint correctly.
    Only ulp-adjacent a and b (or an infinite b) have a midpoint that rounds
    onto b, which x > t could not tell from b; a splits them instead.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    with np.errstate(over="ignore"):
        m = (a + b) / 2.0
    with np.errstate(invalid="ignore"):
        halves = a / 2.0 + b / 2.0
    m = np.where(np.isinf(m), halves, m)
    return np.where(m == b, a, m)


def candidate_thresholds(column) -> np.ndarray:
    """-inf plus midpoints of consecutive distinct sorted values of one column."""
    u = distinct(np.asarray(column, dtype=np.float64))
    return np.concatenate(([-np.inf], _midpoint(u[:-1], u[1:])))


def sample_threshold(values, t: float) -> float:
    """The one of candidate_thresholds(values) that splits values where t does.

    values is not empty, and t is -inf, returned as is, or leaves values on
    both sides of it. Each finite candidate lies in [a, b) for the two
    consecutive distinct values it comes from, so this one is that of the
    values either side of t.
    """
    if t == -np.inf:
        return t
    values = np.asarray(values, dtype=np.float64)
    return float(_midpoint(values[values <= t].max(), values[values > t].min()))


class Presorted:
    """A feature matrix presorted for repeated stump fits.

    columns[j] holds column j's values, the stable order that sorts them,
    candidate_thresholds of the column and `at`, which picks out of a running
    sum in that order the entry of each finite threshold: that of the last
    value at or below it. `at` is an index array, or slice(0, n - 1), which
    reads a view, when those entries are 0 .. n - 2, as they are on distinct
    values. The arrays are read-only copies, so the cache cannot fall out of
    step with the values it was built from.
    """

    def __init__(self, features):
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError(f"expected a non-empty 2-d feature matrix, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        self.n = n = X.shape[0]
        columns = []
        for j in range(X.shape[1]):
            col = X[:, j]
            order = np.argsort(col, kind="stable")
            thr = candidate_thresholds(col)
            at = np.searchsorted(col[order], thr[1:], side="right") - 1
            at = slice(0, n - 1) if np.array_equal(at, np.arange(n - 1)) else frozen(at)
            columns.append((frozen(col), frozen(order), frozen(thr), at))
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


_EPS = float(np.finfo(np.float64).eps)


def train_stump(features, labels, weights) -> Stump:
    """Exact weighted-error minimizer over all stump hypotheses.

    features is a matrix or its Presorted form; a matrix is presorted on
    entry. weights must be nonnegative with a finite positive total; any
    common rescaling of the weights leaves the result unchanged.
    """
    ps = features if isinstance(features, Presorted) else Presorted(features)
    y = np.asarray(labels)
    # real labels are checked as given, so 1.5 is rejected rather than cast to 1
    if y.dtype.kind != "f":
        y = np.asarray(y, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    n = ps.n
    if y.shape != (n,) or w.shape != (n,):
        raise ValueError(f"labels {y.shape} / weights {w.shape} do not match {n} rows")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    # a finite total over a nonnegative minimum also rules out inf and nan
    # weights; only inputs that fail this pass are checked one by one
    if not (math.isfinite(total) and total > 0.0 and np.minimum.reduce(w) >= 0.0 and (np.abs(y) == 1).all()):
        _reject(y, w, total)

    # One running sum of the signed weights per feature, in sorted order.
    # cs = run[at] holds, for each finite threshold thr[i], the positive minus
    # the negative weight at or below it (the -inf sentinel's is 0), so
    # predicting +1 strictly above thr[i] errs by neg + cs[i - 1] and -1 by
    # pos - cs[i - 1]. The sum's last entry, the whole positive minus negative
    # weight, gives the class totals with the total: the lighter class holds
    # half their difference, a form that cannot overflow. The running sum, the
    # totals and one add leave each entry within ~1.5 * n * eps * total of its
    # exact error; the slack is more than twice that and also covers the
    # rounding of the bracket's bounds, so every exact minimum lies within the
    # cut, and a pair alone there beats every other pair exactly.
    slack = 16.0 * _EPS * (n + 4) * total
    sw = w * y
    sweeps = []
    for _, order, _, at in ps.columns:
        run = np.add.accumulate(sw.take(order))
        r = float(run[-1])
        light = 0.5 * (total - abs(r))
        pos, neg = (total - light, light) if r >= 0.0 else (light, total - light)
        cs = run[at]
        # rounding is monotone, so these are the least errors of each polarity
        low_plus = neg + float(np.minimum.reduce(cs, initial=0.0))
        low_minus = pos - float(np.maximum.reduce(cs, initial=0.0))
        sweeps.append((cs, neg, low_plus, pos, low_minus))
    cut = min(min(s[2], s[4]) for s in sweeps) + slack

    # The bracketed pairs in tie-rule order: feature, threshold, +1 before -1.
    near = []
    for j, (cs, neg, low_plus, pos, low_minus) in enumerate(sweeps):
        pairs = []
        if low_plus <= cut:
            pairs += [(0, 1)] * (neg <= cut) + [(i + 1, 1) for i in (cs <= cut - neg).nonzero()[0].tolist()]
        if low_minus <= cut:
            pairs += [(0, -1)] * (pos <= cut) + [(i + 1, -1) for i in (cs >= pos - cut).nonzero()[0].tolist()]
        near += [(j, i, pol) for i, pol in sorted(pairs, key=lambda pair: (pair[0], -pair[1]))]
    # Near-ties are scored exactly, so equal-error pairs compare equal and the
    # first in visit order wins. With whole weights totalling under 2^53 every
    # sum above is an integer below 2^53 and so exact (the lighter class is
    # half the even total - |r|): the sweep's errors are the true ones.
    # Otherwise they are re-scored: polarity pol is wrong where (x > t)
    # disagrees with (y * pol > 0), and fsum rounds the true sum correctly.
    # take on the ascending positions gathers what w[mask] would, in order.
    best = near[0]
    if len(near) > 1:
        if total < 2.0**53 and (np.floor(w) == w).all():
            errs = [
                (sweeps[j][1] if pol == 1 else sweeps[j][3]) + (pol * float(sweeps[j][0][i - 1]) if i else 0.0)
                for j, i, pol in near
            ]
        else:
            errs = [
                math.fsum(w.take(((ps.columns[j][0] > ps.columns[j][2][i]) != (y * pol > 0)).nonzero()[0]))
                for j, i, pol in near
            ]
        best = near[errs.index(min(errs))]
    j, i, pol = best
    return Stump(feature=j, threshold=float(ps.columns[j][2][i]), polarity=pol)
