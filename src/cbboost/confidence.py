"""Per-label confidence estimation for training sets with suspect labels.

The pipeline has two stages. A neighborhood filter repeatedly removes
instances whose k nearest surviving neighbors disagree with their label too
often, under a round-by-round schedule of rising agreement thresholds; the
surviving rows form a cleaner reference set. Confidence for every original
instance (removed ones included) is then estimated against that reference
set, either as the fraction of its k nearest reference neighbors sharing its
label, or from class-conditional Gaussians fitted on the reference set behind
a prior that accounts for a known flip rate.

Distances are Euclidean on z-scored features; the scaler is fitted once on
the full dataset so filtering never shifts the geometry. Neighbor ties at
equal distance resolve to the lower row index.

Neighbors are found exactly, by query blocks of about a million pairwise
differences, so no n x n matrix is ever held. The filter searches every
row's 4k nearest rows once and serves all its rounds from that table,
searching again only for a row with fewer than k table entries left (in
practice, rows whose entire neighbourhood the filter removed); the kNN vote
is one more pass over n x kept. Cost is O(n^2) time and O(block*n + n*k)
memory, with the same tie rule. CBBOOST_LOG=DEBUG logs one line per filter
round: threshold, survivors in, rows removed, and re-searched rows.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, NoiseMask, apply_scaler, fit_scaler
from .util import frozen

__all__ = [
    "ConfidenceVector",
    "FilterRound",
    "FilterReport",
    "noise_filter",
    "knn_confidence",
    "bayes_confidence",
    "estimate_confidence",
    "confidence_quality",
    "GroupStats",
    "write_gamma_csv",
    "read_gamma_csv",
    "check_settings",
    "DEFAULT_THRESHOLDS",
    "DEFAULT_K",
    "FORMS",
]

DEFAULT_THRESHOLDS = (0.07, 0.14, 0.21)
DEFAULT_K = 5
FORMS = ("consistent", "paper-literal")

# doubles in one query block's pairwise temporary (8 MB)
_BLOCK = 1 << 20

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConfidenceVector:
    """gamma[i] = estimated probability that observed label i is correct."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim != 1 or g.size < 1:
            raise ValueError(f"gamma must be a non-empty 1-d array, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("gamma must be finite")
        if np.any(g < 0.0) or np.any(g > 1.0):
            bad = int(np.flatnonzero((g < 0.0) | (g > 1.0))[0])
            raise ValueError(f"gamma[{bad}] = {g[bad]} outside [0, 1]")
        object.__setattr__(self, "gamma", frozen(g))

    @property
    def n(self) -> int:
        return self.gamma.size


@dataclass(frozen=True)
class FilterRound:
    """One filtering round: its agreement threshold and the rows it removed."""

    threshold: float
    removed: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.removed, dtype=np.int64)
        object.__setattr__(self, "removed", frozen(np.sort(r)))


@dataclass(frozen=True)
class FilterReport:
    """Outcome of the iterative neighborhood filter.

    kept and the union of per-round removals partition range(n). aborted is
    set when a round could not run because too few rows survived.
    """

    n: int
    kept: np.ndarray
    rounds: tuple[FilterRound, ...]
    aborted: bool = False

    def __post_init__(self):
        kept = np.sort(np.asarray(self.kept, dtype=np.int64))
        removed = [r.removed for r in self.rounds]
        allidx = np.concatenate([kept] + removed) if removed else kept
        if not np.array_equal(np.sort(allidx), np.arange(self.n)):
            raise ValueError("kept plus removed rows must partition range(n) exactly")
        object.__setattr__(self, "kept", frozen(kept))
        object.__setattr__(self, "rounds", tuple(self.rounds))

    @property
    def n_kept(self) -> int:
        return self.kept.size


def _sq_dists(queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    # exact per-pair differences; the usual |a|^2 + |b|^2 - 2ab expansion is
    # faster but its rounding can split true distance ties, which would break
    # the lower-index tie rule. d is filled one feature at a time for long
    # inner loops; the reduction stays one einsum over the contiguous
    # (q, m, p) array, so every pair's sum runs in the same fixed order.
    d = np.empty((queries.shape[0],) + refs.shape)
    for j in range(refs.shape[1]):
        np.subtract(queries[:, j, None], refs[None, :, j], out=d[:, :, j])
    return np.einsum("ijk,ijk->ij", d, d)


def _k_nearest(queries: np.ndarray, refs: np.ndarray, k: int, exclude: np.ndarray) -> np.ndarray:
    """Reference positions of each query's k nearest refs, in (distance, position) order.

    exclude[i] >= 0 names a reference position query i may not pick (itself);
    -1 excludes nothing. Queries run in blocks so the pairwise temporary stays
    near _BLOCK doubles. A row is ordered by sorting its argpartition top-k;
    a row where ties straddle the k-th distance is redone from all candidates
    at or below it, so equal distances always resolve to the lower position.
    """
    m, p = refs.shape
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    step = max(1, _BLOCK // (m * p))
    for s in range(0, queries.shape[0], step):
        d2 = _sq_dists(queries[s : s + step], refs)
        ex = exclude[s : s + step]
        own = np.flatnonzero(ex >= 0)
        d2[own, ex[own]] = np.inf
        top = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
        td = np.take_along_axis(d2, top, axis=1)
        nearest = np.take_along_axis(top, np.argsort(td, axis=1, kind="stable"), axis=1)
        kth = td.max(axis=1, keepdims=True)
        for r in np.flatnonzero(np.count_nonzero(d2 <= kth, axis=1) > k):
            cand = np.flatnonzero(d2[r] <= kth[r])
            nearest[r] = cand[np.argsort(d2[r, cand], kind="stable")[:k]]
        out[s : s + step] = nearest
    return out


def check_settings(k: int = DEFAULT_K, thresholds=DEFAULT_THRESHOLDS, form: str = "consistent") -> tuple:
    """Reject a bad neighbour count, filter schedule or Bayes form.

    Returns the thresholds as floats. noise_filter, bayes_confidence and a
    benchmark grid's config all check here, so a grid fails before it runs.
    """
    thresholds = tuple(float(t) for t in thresholds)
    if any(not (0.0 < t < 1.0) for t in thresholds):
        raise ValueError(f"thresholds must lie in (0, 1), got {thresholds}")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError(f"thresholds must be strictly increasing, got {thresholds}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if form not in FORMS:
        raise ValueError(f"form must be 'consistent' or 'paper-literal', got {form!r}")
    return thresholds


def _standardized(ds: Dataset, standardize: bool) -> np.ndarray:
    if not standardize:
        return ds.features
    return apply_scaler(fit_scaler(ds), ds).features


def noise_filter(
    ds: Dataset,
    k: int = DEFAULT_K,
    thresholds=DEFAULT_THRESHOLDS,
    standardize: bool = True,
) -> FilterReport:
    """Iteratively remove rows whose neighborhood agreement falls below a rising bar.

    Each round recomputes k-nearest neighborhoods among current survivors
    (self excluded) and removes every row whose fraction of label-agreeing
    neighbors is strictly below that round's threshold. If at any round the
    survivor count is k or fewer the filter stops and flags the report
    aborted rather than divide up a too-small set.
    """
    thresholds = check_settings(k=k, thresholds=thresholds)
    X = _standardized(ds, standardize)
    y = ds.labels
    surv = np.arange(ds.n)
    # every row's 4k nearest others, searched once: the table is a prefix of
    # the row's (distance, index) order over all rows, so its first k
    # survivors are exactly the row's k nearest survivors
    if ds.n > k:
        table = _k_nearest(X, X, min(4 * k, ds.n - 1), surv)
    rounds: list[FilterRound] = []
    aborted = False
    for r, t in enumerate(thresholds, start=1):
        if surv.size <= k:
            aborted = True
            break
        alive = np.zeros(ds.n, dtype=bool)
        alive[surv] = True
        cand = table[surv]
        live = alive[cand]
        take = live & (np.cumsum(live, axis=1) <= k)
        short = np.count_nonzero(take, axis=1) < k
        nbr = np.empty((surv.size, k), dtype=np.int64)
        nbr[~short] = cand[~short][take[~short]].reshape(-1, k)
        # rows with fewer than k table entries left: search the survivors again
        redo = np.flatnonzero(short)
        if redo.size:
            nbr[redo] = surv[_k_nearest(X[surv[redo]], X[surv], k, redo)]
        agree = (y[nbr] == y[surv][:, None]).mean(axis=1)
        out = agree < t
        log.debug(
            "filter round %d: threshold %g, %d survivors in, %d removed, %d exact re-searches",
            r, t, surv.size, np.count_nonzero(out), redo.size,
        )
        rounds.append(FilterRound(t, surv[out]))
        surv = surv[~out]
    return FilterReport(n=ds.n, kept=surv, rounds=tuple(rounds), aborted=aborted)


def knn_confidence(
    ds: Dataset,
    reduced: FilterReport,
    k: int = DEFAULT_K,
    standardize: bool = True,
) -> ConfidenceVector:
    """Fraction of the k nearest kept-set neighbors sharing each row's label.

    Confidence is produced for every row of ds, removed rows included. A kept
    row never counts itself among its neighbors. Values land on the grid
    {0, 1/k, ..., 1}, and relabeling a row to the opposite class maps its
    confidence g to 1 - g.
    """
    kept = reduced.kept
    if kept.size <= k:
        raise ValueError(f"reference set has {kept.size} rows, need more than k={k}")
    X = _standardized(ds, standardize)
    pos = np.full(ds.n, -1, dtype=np.int64)
    pos[kept] = np.arange(kept.size)
    nbr = _k_nearest(X, X[kept], k, pos)
    gamma = (ds.labels[kept][nbr] == ds.labels[:, None]).mean(axis=1)
    return ConfidenceVector(gamma)


def bayes_confidence(
    ds: Dataset,
    reduced: FilterReport,
    noise_level: float,
    form: str = "consistent",
) -> ConfidenceVector:
    """Confidence from class-conditional Gaussians behind a flip-aware prior.

    Gaussians with full covariance are fitted by maximum likelihood on the
    kept rows of each class; class priors are sample proportions over the
    full dataset. With e = noise_level, f_y the fitted density under the
    observed label's class and f_o under the other class, confidence is

        (P(y) - e) f_y / [ (P(y) - e) f_y + b f_o ]

    where b = 1 - P(y) - e under form="consistent" (both mixture weights
    discount the flip rate) and b = e under form="paper-literal"; the forms
    coincide exactly where 1 - P(y) - e equals e. Densities are evaluated in
    log space; a singular covariance is ridged with 1e-6 I under a
    RuntimeWarning.
    """
    check_settings(form=form)
    if not (0.0 <= noise_level < 0.5):
        raise ValueError(f"noise_level must lie in [0, 0.5), got {noise_level}")
    kept = reduced.kept
    Xr = ds.features[kept]
    yr = ds.labels[kept]
    p = ds.p
    params = {}
    for c in (1, -1):
        Xc = Xr[yr == c]
        if Xc.shape[0] < p + 2:
            raise ValueError(
                f"class {c:+d} has {Xc.shape[0]} kept rows, need at least p+2={p + 2} to fit a Gaussian"
            )
        mu = Xc.mean(axis=0)
        Z = Xc - mu
        cov = Z.T @ Z / Xc.shape[0]
        try:
            L = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            warnings.warn(
                f"singular covariance for class {c:+d}, adding ridge 1e-6", RuntimeWarning
            )
            cov = cov + 1e-6 * np.eye(p)
            L = np.linalg.cholesky(cov)
        params[c] = (mu, L)
    prior_pos = float(np.mean(ds.labels == 1))
    prior = {1: prior_pos, -1: 1.0 - prior_pos}
    if noise_level >= min(prior.values()):
        raise ValueError(
            f"noise_level {noise_level} must be below the smaller class proportion "
            f"{min(prior.values()):.6g}"
        )

    def logpdf(X, mu, L):
        z = np.linalg.solve(L, (X - mu).T)
        maha = np.sum(z * z, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        return -0.5 * (p * np.log(2.0 * np.pi) + logdet + maha)

    lp = {c: logpdf(ds.features, *params[c]) for c in (1, -1)}
    is_pos = ds.labels == 1
    log_f_y = np.where(is_pos, lp[1], lp[-1])
    log_f_o = np.where(is_pos, lp[-1], lp[1])
    p_y = np.where(is_pos, prior[1], prior[-1])
    a_coef = p_y - noise_level
    if form == "consistent":
        b_coef = 1.0 - p_y - noise_level
    else:
        b_coef = np.full(ds.n, noise_level)
    with np.errstate(divide="ignore"):
        log_a = np.log(a_coef) + log_f_y
        log_b = np.log(b_coef) + log_f_o
    with np.errstate(over="ignore"):
        gamma = 1.0 / (1.0 + np.exp(log_b - log_a))
    return ConfidenceVector(np.clip(gamma, 0.0, 1.0))


def estimate_confidence(
    ds: Dataset,
    method: str = "knn",
    k: int = DEFAULT_K,
    thresholds=DEFAULT_THRESHOLDS,
    noise_level: float | None = None,
    form: str = "consistent",
    standardize: bool = True,
) -> tuple[ConfidenceVector, FilterReport]:
    """Filter then score: the standard two-stage confidence pipeline."""
    report = noise_filter(ds, k=k, thresholds=thresholds, standardize=standardize)
    if method == "knn":
        return knn_confidence(ds, report, k=k, standardize=standardize), report
    if method == "bayes":
        if noise_level is None:
            raise ValueError("bayes confidence requires a noise_level")
        return bayes_confidence(ds, report, noise_level, form=form), report
    raise ValueError(f"unknown confidence method {method!r}, expected 'knn' or 'bayes'")


@dataclass(frozen=True)
class GroupStats:
    mean: float
    std: float
    count: int


def confidence_quality(gamma: ConfidenceVector, mask: NoiseMask) -> dict:
    """Mean/std of confidence over clean rows and over flipped rows.

    An empty group maps to None rather than NaN statistics.
    """
    g = gamma.gamma
    f = mask.flipped
    if g.size != f.size:
        raise ValueError(f"confidence length {g.size} does not match mask length {f.size}")
    out = {}
    for name, sel in (("clean", ~f), ("mislabeled", f)):
        if not sel.any():
            out[name] = None
        else:
            out[name] = GroupStats(float(g[sel].mean()), float(g[sel].std()), int(sel.sum()))
    return out


def write_gamma_csv(gamma: ConfidenceVector, path) -> None:
    """One column named gamma, one row per instance, repr floats (exact round-trip)."""
    with open(path, "w", newline="") as fh:
        fh.write("gamma\n")
        for v in gamma.gamma:
            fh.write(repr(float(v)) + "\n")


def read_gamma_csv(path) -> ConfidenceVector:
    import csv as _csv

    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a 'gamma' header") from None
        if [h.strip() for h in header] != ["gamma"]:
            raise ValueError(f"{path}: expected a single column named 'gamma', got {header}")
        vals = []
        for r, rec in enumerate(reader, start=1):
            if len(rec) != 1 or rec[0].strip() == "":
                raise ValueError(f"{path}: row {r} must hold exactly one value")
            try:
                vals.append(float(rec[0]))
            except ValueError:
                raise ValueError(f"{path}: unparseable value {rec[0]!r} at row {r}") from None
    if not vals:
        raise ValueError(f"{path}: no data rows")
    return ConfidenceVector(np.asarray(vals))
