"""Exponential-loss boosting over decision stumps, confidence-weighted.

One loop serves both trainers and the trace replay. It keeps two weights per
instance, one behind each reading of its label: w_observed tracks "the
recorded label is right" and w_flipped "it is wrong", initialized from a
per-label confidence gamma as gamma / n and (1 - gamma) / n. Each round
trains the stump on effective labels sign(w_observed - w_flipped) * y with
sampling weights proportional to the gap between the two readings, votes by
the log-odds of a correctness mass crediting w_observed where the stump
matches the observed label and w_flipped where it disagrees, then scales
w_observed by exp(-y * beta * h) and w_flipped by the reciprocal factor.

train_cb_adaboost runs the engine on a given gamma. train_adaboost is plain
AdaBoost, the engine with gamma identically 1: w_flipped stays 0, the
effective labels are the observed ones, and every quantity reduces term by
term to the classical single-weight recursion, bitwise.

Training stops early when the vote would be nonpositive (the weak learner no
longer beats weighted chance) or the weight mass underflows or overflows. A
round keeps only the two weight vectors and its (beta, stump) term; the
returned trace records why the run stopped and, for diagnostics and
invariant checks, rebuilds the per-iteration rows on demand by rerunning
the loop with the recorded stumps; the loop records each row itself.

Scoring is by cell. The sorted distinct thresholds an ensemble uses on each
feature cut the input space into cells, and every row of a cell passes the
same stump tests, so the term-by-term sum runs once per cell, on one
representative point, and each row gathers its cell's score. Each row thus
adds the same terms in the same order as summing it directly would, and its
score is bit-identical. An input with more cells than rows is summed row by
row.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .confidence import ConfidenceVector
from .dataset import Dataset
from .stump import Presorted, Stump, train_stump
from .util import frozen, real_number, sign_pm, whole_number

__all__ = [
    "BoostConfig",
    "LEARNER_MODES",
    "STOP_RULES",
    "STOP_REASONS",
    "TraceRow",
    "BoostTrace",
    "Ensemble",
    "train_adaboost",
    "train_cb_adaboost",
    "predict",
    "score",
    "empirical_risk",
    "check_propositions",
    "PropositionReport",
    "ensemble_to_json",
    "ensemble_from_json",
    "save_ensemble",
    "load_ensemble",
]

log = logging.getLogger(__name__)

# how each round fits its stump, and what caps a run's rounds (BoostConfig)
LEARNER_MODES = ("weighted", "resample")
STOP_RULES = ("fixed", "consistency")

# why a run ended: its iteration cap, a vote that no longer beats chance, or
# a weight mass that underflowed to zero or overflowed
STOP_REASONS = ("budget", "nonpositive vote", "weight mass not finite or zero")


@dataclass(frozen=True)
class BoostConfig:
    """Knobs shared by both trainers.

    learner_mode "weighted" fits each stump exactly on the weighted sample;
    "resample" draws n instances with replacement from the weights and fits
    on the bootstrap (seeded). stop_rule "fixed" runs max_iterations unless
    the vote dies; "consistency" additionally caps iterations at
    ceil(n ** (1 - consistency_a)). epsilon_clamp keeps the weighted error
    away from 0 and 1 so votes stay finite.
    """

    max_iterations: int = 200
    learner_mode: str = "weighted"
    seed: int = 0
    stop_rule: str = "fixed"
    consistency_a: float = 0.5
    epsilon_clamp: float = 1e-12

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.learner_mode not in LEARNER_MODES:
            raise ValueError(f"learner_mode must be {' or '.join(map(repr, LEARNER_MODES))}, got {self.learner_mode!r}")
        if self.stop_rule not in STOP_RULES:
            raise ValueError(f"stop_rule must be {' or '.join(map(repr, STOP_RULES))}, got {self.stop_rule!r}")
        if not (0.0 < self.consistency_a < 1.0):
            raise ValueError(f"consistency_a must lie in (0, 1), got {self.consistency_a}")
        if not (0.0 < self.epsilon_clamp < 0.5):
            raise ValueError(f"epsilon_clamp must lie in (0, 0.5), got {self.epsilon_clamp}")

    def iteration_cap(self, n: int) -> int:
        cap = self.max_iterations
        if self.stop_rule == "consistency":
            cap = min(cap, max(1, math.ceil(n ** (1.0 - self.consistency_a))))
        return cap


@dataclass(frozen=True)
class TraceRow:
    """State at the start of one boosting round plus what the round did.

    w_observed[i] is the exponential-loss mass behind reading label i as
    recorded, w_flipped[i] the mass behind reading it flipped; both are the
    pre-update state the round trained on, as are sample_weights (the
    normalized distribution handed to the weak learner) and effective_labels.
    predictions are the fitted stump's outputs on the training rows;
    risk_after is the total weight mass after the round's update, which is
    the ensemble's mean two-sided exponential loss so far (the weights start
    at gamma / n and (1 - gamma) / n). For the plain trainer w_flipped is
    identically zero.
    """

    w_observed: np.ndarray
    w_flipped: np.ndarray
    sample_weights: np.ndarray
    effective_labels: np.ndarray
    predictions: np.ndarray
    beta: float
    weighted_error: float
    risk_after: float

    def __post_init__(self):
        for name in ("w_observed", "w_flipped", "sample_weights"):
            object.__setattr__(self, name, frozen(getattr(self, name), dtype=np.float64))
        for name in ("effective_labels", "predictions"):
            object.__setattr__(self, name, frozen(getattr(self, name), dtype=np.int64))


@dataclass(frozen=True)
class BoostTrace:
    """Every round of one training run and the state it ended in.

    A trainer's trace rebuilds its rows on first access, by replaying the
    run's rounds bit for bit from its features, labels, gamma and terms, so
    training itself holds O(n) memory; len(rows) needs no replay. A trace
    built by hand takes its rows as given.

    The final weights are those after the last kept round, epsilon_clamp is
    the run's error clamp, and stop_reason is one of STOP_REASONS.
    """

    rows: Sequence[TraceRow]
    final_w_observed: np.ndarray
    final_w_flipped: np.ndarray
    epsilon_clamp: float
    stop_reason: str

    def __post_init__(self):
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"stop_reason must be one of {STOP_REASONS}, got {self.stop_reason!r}")
        object.__setattr__(self, "final_w_observed", frozen(self.final_w_observed, dtype=np.float64))
        object.__setattr__(self, "final_w_flipped", frozen(self.final_w_flipped, dtype=np.float64))

    @property
    def iterations(self) -> int:
        return len(self.rows)

    @property
    def stopped_early(self) -> bool:
        """True when the run ended before its iteration cap."""
        return self.stop_reason != "budget"

    @property
    def final_risk(self) -> float:
        """Total weight mass at the end: the ensemble's mean two-sided exponential loss."""
        return float((self.final_w_observed + self.final_w_flipped).sum())


@dataclass(frozen=True)
class Ensemble:
    """Weighted vote over stumps: f(x) = sum_m beta_m h_m(x), label sign(f)."""

    terms: tuple
    stopped_at: int

    def __post_init__(self):
        for beta, stump in self.terms:
            if not (np.isfinite(beta) and beta > 0):
                raise ValueError(f"every vote must be positive and finite, got {beta}")
            if not isinstance(stump, Stump):
                raise ValueError("ensemble terms must pair a vote with a Stump")
        if self.stopped_at != len(self.terms):
            raise ValueError(f"stopped_at {self.stopped_at} != {len(self.terms)} terms")
        object.__setattr__(self, "terms", tuple(self.terms))

    def __len__(self) -> int:
        return len(self.terms)


def _term_scores(terms, X: np.ndarray) -> np.ndarray:
    # the scoring arithmetic: each row adds its terms' signed votes in order
    out = np.zeros(X.shape[0], dtype=np.float64)
    for beta, stump in terms:
        # beta * +-1 == +-beta exactly, so this adds what beta * stump.predict(X) would
        v = beta * stump.polarity
        out += np.where(X[:, stump.feature] > stump.threshold, v, -v)
    return out


def _raw_score(ensemble: Ensemble, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {X.shape}")
    bad = next((s.feature for _, s in ensemble.terms if s.feature >= X.shape[1]), None)
    if bad is not None:
        raise ValueError(f"stump uses feature {bad} but matrix has {X.shape[1]} columns")
    # the sorted distinct thresholds on each used feature cut the space into
    # cells; every row of a cell meets the same side of every stump
    feature = np.array([s.feature for _, s in ensemble.terms], dtype=np.intp)
    threshold = np.array([s.threshold for _, s in ensemble.terms], dtype=np.float64)
    used = np.unique(feature)
    cuts = [np.unique(threshold[feature == f]) for f in used]
    shape = tuple(c.size + 1 for c in cuts)
    cells = math.prod(shape)
    # more cells than rows (wide p, few rows) or no terms at all: score the rows
    if cells > X.shape[0] or not cuts:
        return _term_scores(ensemble.terms, X)
    # a cell's representative sits on its upper threshold on each used feature
    # (+inf above the last), so it passes exactly the tests its rows pass
    reps = np.zeros((cells, X.shape[1]))
    for f, axis in zip(used, np.meshgrid(*(np.append(c, np.inf) for c in cuts), indexing="ij")):
        reps[:, f] = axis.ravel()
    # NaN fails every x > t, as -inf does; searchsorted would put it above them all
    at = [np.searchsorted(c, np.where(np.isnan(X[:, f]), -np.inf, X[:, f]), side="left") for f, c in zip(used, cuts)]
    return _term_scores(ensemble.terms, reps)[np.ravel_multi_index(at, shape)]


def score(ensemble: Ensemble, X) -> np.ndarray:
    """Additive score f(X) for a matrix of feature rows."""
    if len(ensemble) == 0:
        raise ValueError("empty ensemble has no score")
    return _raw_score(ensemble, X)


def predict(ensemble: Ensemble, X) -> np.ndarray:
    """sign(f(X)) with zero scores sent to +1."""
    if len(ensemble) == 0:
        raise ValueError("empty ensemble cannot predict")
    return sign_pm(_raw_score(ensemble, X))


def empirical_risk(ensemble: Ensemble, ds: Dataset, gamma: ConfidenceVector | None = None) -> float:
    """Mean confidence-weighted exponential loss of the ensemble's score.

    With gamma omitted this is mean(exp(-y f(x))); with gamma it is
    mean(gamma exp(-y f) + (1 - gamma) exp(y f)), which charges each
    instance under both readings of its label. An empty ensemble scores 0
    everywhere, so its risk is exactly 1 for any gamma.
    """
    f = _raw_score(ensemble, ds.features)
    margin = ds.labels * f
    with np.errstate(over="ignore"):
        if gamma is None:
            return float(np.mean(np.exp(-margin)))
        g = gamma.gamma
        if g.size != ds.n:
            raise ValueError(f"gamma length {g.size} does not match {ds.n} rows")
        return float(np.mean(g * np.exp(-margin) + (1.0 - g) * np.exp(margin)))


def _vote_from_sums(right: float, wrong: float, clamp: float) -> tuple[float, float]:
    # beta = 0.5 ln((1-e)/e) with e = wrong/(right+wrong); the raw e is
    # reported, the clamped e keeps the vote finite on separable rounds.
    total = right + wrong
    raw = wrong / total
    e = min(max(raw, clamp), 1.0 - clamp)
    return 0.5 * math.log((1.0 - e) / e), raw


def _fit_weak(X, labels, D, cfg: BoostConfig, rng) -> Stump:
    # weighted mode fits on the run's one Presorted; train_stump presorts each bootstrap
    if cfg.learner_mode == "weighted":
        return train_stump(X, labels, D)
    n = X.shape[0]
    idx = rng.choice(n, size=n, replace=True, p=D)
    return train_stump(X[idx], labels[idx], np.full(n, 1.0 / n))


def _check_trainable(ds: Dataset):
    if ds.n < 2:
        raise ValueError(f"need at least 2 training rows, got {ds.n}")
    if np.all(ds.labels == ds.labels[0]):
        raise ValueError("training data contains a single class")


def _reweighed(w_obs, w_flip, hit, beta):
    # w_obs * exp(-margin) and w_flip * exp(margin), where the margin
    # (y * beta) * h is exactly +beta on hits and -beta on misses: each weight
    # picks its factor from a two-entry exp, which holds the bits an n-long
    # exp of the margin would (np.exp is elementwise; the tests check it at
    # each SIMD dispatch level they run on)
    shrink, grow = np.exp(np.array([-beta, beta]))
    return w_obs * np.where(hit, shrink, grow), None if w_flip is None else w_flip * np.where(hit, grow, shrink)


def _rounds(X, y, g, fit, cap: int, clamp: float, rows=None):
    # the one boosting loop, run by training and by the trace replay alike.
    # fit(D, yprime) supplies each round's stump; the loop records each kept
    # round's TraceRow into rows when handed a list. Returns the kept
    # (beta, stump) terms, the stop reason and the final weights.
    # w_flip is None when every gamma is 1: it would start as exact zeros and
    # stay so (the clamped vote keeps exp(margin) finite). Then w_obs - 0 is
    # w_obs bit for bit and every sum over w_flip is +0.0, so the round skips
    # them and plain AdaBoost is the classical single-weight recursion, bitwise.
    y_pos, y_neg = y > 0, -y
    # one contiguous copy of the columns, so each round's hit mask reads its
    # feature without a strided pass over X
    columns = np.ascontiguousarray(X.T)
    w_obs, w_flip = g / y.size, (1.0 - g) / y.size
    w_flip = w_flip if w_flip.any() else None
    terms: list[tuple[float, Stump]] = []
    for m in range(cap):
        if w_flip is None:
            absdiff, yprime = w_obs, y
        else:
            diff = w_obs - w_flip
            absdiff, yprime = np.abs(diff), np.where(diff >= 0.0, y, y_neg)
        # ndarray.sum is np.sum without its dispatch cost, same reduction and bits
        S = float(absdiff.sum())
        if not math.isfinite(S) or S <= 0.0:
            if m == 0 and S <= 0.0:
                raise ValueError("every gamma equals 0.5: no informative instance to boost on")
            return terms, "weight mass not finite or zero", w_obs, w_flip
        D = absdiff / S
        stump = fit(D, yprime)
        # hit: the stump's prediction matches the observed label
        above = columns[stump.feature] > stump.threshold
        hit = above == y_pos if stump.polarity == 1 else above != y_pos
        # take on the ascending positions gathers what boolean indexing would,
        # in the same order; the positions serve both weight vectors
        hits, misses = hit.nonzero()[0], (~hit).nonzero()[0]
        right_mass = float(w_obs.take(hits).sum())
        wrong_mass = float(w_obs.take(misses).sum())
        if w_flip is not None:
            right_mass += float(w_flip.take(misses).sum())
            wrong_mass += float(w_flip.take(hits).sum())
        beta, _ = _vote_from_sums(right_mass, wrong_mass, clamp)
        if beta <= 0.0:
            return terms, "nonpositive vote", w_obs, w_flip
        terms.append((beta, stump))
        w_obs_new, w_flip_new = _reweighed(w_obs, w_flip, hit, beta)
        if rows is not None:
            # h is stump.predict(X) bit for bit; the stump's own error is
            # measured against the effective labels it was trained on
            h = np.where(hit, y, y_neg)
            wrong_eff = h != yprime
            _, raw_err = _vote_from_sums(float(absdiff[~wrong_eff].sum()), float(absdiff[wrong_eff].sum()), clamp)
            rows.append(
                TraceRow(
                    w_observed=w_obs,
                    w_flipped=np.zeros(y.size) if w_flip is None else w_flip,
                    sample_weights=D,
                    effective_labels=yprime,
                    predictions=h,
                    beta=beta,
                    weighted_error=raw_err,
                    risk_after=float(w_obs_new.sum() if w_flip is None else (w_obs_new + w_flip_new).sum()),
                )
            )
        w_obs, w_flip = w_obs_new, w_flip_new
    return terms, "budget", w_obs, w_flip


def _boost(train: Dataset, g: np.ndarray, cfg: BoostConfig) -> tuple[Ensemble, BoostTrace]:
    X, y = train.features, train.labels
    rng = np.random.default_rng(cfg.seed)
    fit_X = Presorted(X) if cfg.learner_mode == "weighted" else X

    def fit(D, yprime):
        return _fit_weak(fit_X, yprime, D, cfg, rng)

    terms, stop_reason, w_obs, w_flip = _rounds(X, y, g, fit, cfg.iteration_cap(train.n), cfg.epsilon_clamp)
    ensemble = Ensemble(terms=tuple(terms), stopped_at=len(terms))
    trace = BoostTrace(
        rows=_Replay(X, y, g, ensemble.terms, cfg.epsilon_clamp),
        final_w_observed=w_obs,
        final_w_flipped=np.zeros(train.n) if w_flip is None else w_flip,
        epsilon_clamp=cfg.epsilon_clamp,
        stop_reason=stop_reason,
    )
    log.debug(
        "boost: %d rounds, stop reason %s, final risk_after %.17g", len(terms), stop_reason, trace.final_risk
    )
    return ensemble, trace


class _Replay(Sequence):
    """A run's TraceRows, rebuilt on first access and then kept.

    It holds only the run's read-only features, labels and initial gamma,
    its terms and the clamp, and reruns the training loop with the recorded
    stumps, so every field comes out bit for bit as training had it. Its
    length is known without replaying.
    """

    def __init__(self, X, y, g, terms, epsilon_clamp):
        self._args = (X, y, g, terms, epsilon_clamp)

    def __len__(self) -> int:
        return len(self._args[3])

    @cached_property
    def _rows(self) -> tuple[TraceRow, ...]:
        return tuple(_replay(*self._args))

    def __getitem__(self, i):
        return self._rows[i]


def _replay(X, y, g, terms, clamp) -> list[TraceRow]:
    rows, stumps = [], (stump for _, stump in terms)
    _rounds(X, y, g, lambda D, yprime: next(stumps), len(terms), clamp, rows)
    return rows


def train_adaboost(train: Dataset, cfg: BoostConfig = BoostConfig()) -> tuple[Ensemble, BoostTrace]:
    """Plain exponential-loss boosting; stops when no stump beats weighted chance."""
    _check_trainable(train)
    return _boost(train, np.ones(train.n), cfg)


def train_cb_adaboost(
    train: Dataset, gamma: ConfidenceVector, cfg: BoostConfig = BoostConfig()
) -> tuple[Ensemble, BoostTrace]:
    """Confidence-weighted boosting minimizing the two-sided exponential objective.

    gamma[i] is the trust in observed label i. Rounds stop as soon as the
    vote is nonpositive, which unlike the plain algorithm can happen well
    before the iteration budget when the informative weight mass thins out.
    """
    _check_trainable(train)
    if gamma.n != train.n:
        raise ValueError(f"gamma length {gamma.n} does not match {train.n} rows")
    return _boost(train, gamma.gamma, cfg)


# slack for rounding: a vote and its log-odds bound sum the same weights in
# different orders (the trainer sums w_observed and w_flipped apart)
_VOTE_TOL = 1e-9


@dataclass(frozen=True)
class PropositionReport:
    """Violations of the three per-round weight-dynamics guarantees.

    Each violation is (check, iteration, instance, detail); instance is -1
    for the aggregate vote-bound check. ok means there are none: every
    guarantee held on every round of the trace.
    """

    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def check_propositions(trace: BoostTrace) -> PropositionReport:
    """Verify the weight dynamics promised for the confidence-weighted trainer.

    Per recorded round m (with next-round weights taken from the following
    row or the trace's final state):

    1. every instance the round's stump got wrong, judged against its
       effective label, ends the round with a strictly larger weight gap
       |w_observed - w_flipped|;
    2. every instance the stump got right whose weight pair is already
       lopsided, max(pair) > exp(beta) * min(pair), ends with a strictly
       smaller gap. This symmetric premise covers the one-sided reading
       w_observed > exp(beta) * w_flipped: every pair that reading calls
       lopsided, this one does too;
    3. the round's vote never exceeds the plain log-odds vote
       0.5 ln((1 - e') / e') of its effective-label error e', with equality
       only when no instance carries mass on both label readings at once.
       The reference clamps e' exactly as the trainer clamps its own error.

    Checks only report; nothing raises on violation.
    """
    violations = []
    rows = trace.rows
    for m, row in enumerate(rows):
        nxt_obs = rows[m + 1].w_observed if m + 1 < len(rows) else trace.final_w_observed
        nxt_flip = rows[m + 1].w_flipped if m + 1 < len(rows) else trace.final_w_flipped
        gap = np.abs(row.w_observed - row.w_flipped)
        gap_next = np.abs(nxt_obs - nxt_flip)
        missed = row.predictions != row.effective_labels
        grew = gap_next > gap
        for i in np.flatnonzero(missed & ~grew):
            violations.append(
                ("miss-grows", m, int(i), f"gap {gap[i]:.6g} -> {gap_next[i]:.6g} not larger")
            )
        lopsided = np.maximum(row.w_observed, row.w_flipped) > math.exp(row.beta) * np.minimum(row.w_observed, row.w_flipped)
        shrank = gap_next < gap
        for i in np.flatnonzero(~missed & lopsided & ~shrank):
            violations.append(
                ("hit-shrinks", m, int(i), f"gap {gap[i]:.6g} -> {gap_next[i]:.6g} not smaller")
            )
        right = float(np.sum(gap[~missed]))
        wrong = float(np.sum(gap[missed]))
        ref_beta, _ = _vote_from_sums(right, wrong, trace.epsilon_clamp)
        two_sided = float(np.sum(np.minimum(row.w_observed, row.w_flipped)))
        if two_sided > 0.0:
            if not row.beta < ref_beta + _VOTE_TOL:
                violations.append(
                    ("vote-bound", m, -1, f"beta {row.beta!r} not below log-odds bound {ref_beta!r}")
                )
        else:
            if not abs(row.beta - ref_beta) <= _VOTE_TOL:
                violations.append(
                    ("vote-bound", m, -1, f"beta {row.beta!r} != log-odds bound {ref_beta!r} with no two-sided mass")
                )
    return PropositionReport(violations=tuple(violations))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def ensemble_to_json(ensemble: Ensemble, config: dict | None = None) -> str:
    """Serialize with 17-significant-digit decimal floats so parsing round-trips exactly."""
    obj = {
        "format": "cbboost-ensemble",
        "version": 1,
        "stopped_at": ensemble.stopped_at,
        "terms": [
            {
                "beta": _fmt(beta),
                "feature": stump.feature,
                "threshold": _fmt(stump.threshold),
                "polarity": stump.polarity,
            }
            for beta, stump in ensemble.terms
        ],
        "config": dict(config) if config else {},
    }
    return json.dumps(obj, indent=2, sort_keys=True)


def ensemble_from_json(text: str) -> tuple[Ensemble, dict]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or obj.get("format") != "cbboost-ensemble":
        raise ValueError("not an ensemble file: missing format tag 'cbboost-ensemble'")
    if whole_number(obj.get("version"), "version") != 1:
        raise ValueError(f"unsupported ensemble file version {obj['version']!r}")
    raw_terms = obj.get("terms", [])
    if not isinstance(raw_terms, list):
        raise ValueError("terms must be a JSON list")
    terms = []
    for i, t in enumerate(raw_terms):
        if not isinstance(t, dict):
            raise ValueError(f"malformed term {i}: not a JSON object")
        try:
            terms.append(
                (
                    real_number(t["beta"], "beta"),
                    Stump(
                        feature=whole_number(t["feature"], "feature"),
                        threshold=real_number(t["threshold"], "threshold"),
                        polarity=whole_number(t["polarity"], "polarity"),
                    ),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed term {i}: {exc}") from None
    ensemble = Ensemble(terms=tuple(terms), stopped_at=whole_number(obj.get("stopped_at", len(terms)), "stopped_at"))
    config = obj.get("config", {})
    if not isinstance(config, dict):
        raise ValueError("config block must be a JSON object")
    return ensemble, config


def save_ensemble(ensemble: Ensemble, path, config: dict | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(ensemble_to_json(ensemble, config))
        fh.write("\n")


def load_ensemble(path) -> tuple[Ensemble, dict]:
    with open(path) as fh:
        return ensemble_from_json(fh.read())
