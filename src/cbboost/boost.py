"""Exponential-loss boosting over decision stumps, confidence-weighted.

One engine serves both trainers. It keeps two weights per instance, one
behind each reading of its label: w_observed tracks "the recorded label is
right" and w_flipped "it is wrong", initialized from a per-label confidence
gamma as gamma / n and (1 - gamma) / n. Each round trains the stump on
effective labels sign(w_observed - w_flipped) * y with sampling weights
proportional to the gap between the two readings, votes by the log-odds of a
correctness mass crediting w_observed where the stump matches the observed
label and w_flipped where it disagrees, then scales w_observed by
exp(-y * beta * h) and w_flipped by the reciprocal factor.

train_cb_adaboost runs the engine on a given gamma. train_adaboost is plain
AdaBoost, the engine with gamma identically 1: w_flipped stays 0, the
effective labels are the observed ones, and every quantity reduces term by
term to the classical single-weight recursion, bitwise.

Training stops early when the vote would be nonpositive (the weak learner no
longer beats weighted chance) and records a full per-iteration trace for
diagnostics and invariant checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .confidence import ConfidenceVector
from .dataset import Dataset
from .stump import Stump, train_stump
from .util import frozen, sign_pm

__all__ = [
    "BoostConfig",
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
        if self.learner_mode not in ("weighted", "resample"):
            raise ValueError(f"learner_mode must be 'weighted' or 'resample', got {self.learner_mode!r}")
        if self.stop_rule not in ("fixed", "consistency"):
            raise ValueError(f"stop_rule must be 'fixed' or 'consistency', got {self.stop_rule!r}")
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
    n times the ensemble's mean two-sided exponential loss so far. For the
    plain trainer w_flipped is identically zero.
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
    rows: tuple[TraceRow, ...]
    final_w_observed: np.ndarray
    final_w_flipped: np.ndarray
    observed_labels: np.ndarray
    epsilon_clamp: float
    stopped_early: bool

    def __post_init__(self):
        object.__setattr__(self, "final_w_observed", frozen(self.final_w_observed, dtype=np.float64))
        object.__setattr__(self, "final_w_flipped", frozen(self.final_w_flipped, dtype=np.float64))
        object.__setattr__(self, "observed_labels", frozen(self.observed_labels, dtype=np.int64))

    @property
    def iterations(self) -> int:
        return len(self.rows)


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


def _raw_score(ensemble: Ensemble, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {X.shape}")
    out = np.zeros(X.shape[0], dtype=np.float64)
    for beta, stump in ensemble.terms:
        out += beta * stump.predict(X)
    return out


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


def _boost(train: Dataset, g: np.ndarray, cfg: BoostConfig) -> tuple[Ensemble, BoostTrace]:
    # the one boosting loop; plain AdaBoost is the call with g identically 1,
    # where w_flip stays 0, every extra term adds exact zeros and the result
    # equals the classical single-weight recursion bit for bit
    X = train.features
    y = train.labels
    n = train.n
    w_obs = g / n
    w_flip = (1.0 - g) / n
    if float(np.abs(w_obs - w_flip).sum()) <= 0.0:
        raise ValueError("every gamma equals 0.5: no informative instance to boost on")
    rng = np.random.default_rng(cfg.seed)
    rows: list[TraceRow] = []
    terms: list[tuple[float, Stump]] = []
    stopped_early = False
    for _ in range(cfg.iteration_cap(n)):
        diff = w_obs - w_flip
        absdiff = np.abs(diff)
        # ndarray.sum is np.sum without its dispatch cost, same reduction and bits
        S = float(absdiff.sum())
        if not math.isfinite(S) or S <= 0.0:
            stopped_early = True
            break
        D = absdiff / S
        yprime = np.where(diff >= 0.0, y, -y)
        stump = _fit_weak(X, yprime, D, cfg, rng)
        h = stump.predict(X)
        wrong = h != y
        right = ~wrong
        right_mass = float(w_obs[right].sum()) + float(w_flip[wrong].sum())
        wrong_mass = float(w_obs[wrong].sum()) + float(w_flip[right].sum())
        beta, _ = _vote_from_sums(right_mass, wrong_mass, cfg.epsilon_clamp)
        # the stump's own error is measured against the effective labels it
        # was trained on
        wrong_eff = h != yprime
        _, raw_err = _vote_from_sums(
            float(absdiff[~wrong_eff].sum()), float(absdiff[wrong_eff].sum()), cfg.epsilon_clamp
        )
        if beta <= 0.0:
            stopped_early = True
            break
        # -(a * h) == (-a) * h exactly, so one product serves both factors
        margin = (y * beta) * h
        w_obs_new = w_obs * np.exp(-margin)
        w_flip_new = w_flip * np.exp(margin)
        rows.append(
            TraceRow(
                w_observed=w_obs,
                w_flipped=w_flip,
                sample_weights=D,
                effective_labels=yprime,
                predictions=h,
                beta=beta,
                weighted_error=raw_err,
                risk_after=float((w_obs_new + w_flip_new).sum()),
            )
        )
        terms.append((beta, stump))
        w_obs, w_flip = w_obs_new, w_flip_new
    trace = BoostTrace(
        rows=tuple(rows),
        final_w_observed=w_obs,
        final_w_flipped=w_flip,
        observed_labels=y,
        epsilon_clamp=cfg.epsilon_clamp,
        stopped_early=stopped_early,
    )
    return Ensemble(terms=tuple(terms), stopped_at=len(terms)), trace


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


@dataclass(frozen=True)
class PropositionReport:
    """Violations of the three per-round weight-dynamics guarantees.

    Each violation is (check, iteration, instance, detail); instance is -1
    for the aggregate vote-bound check. An empty list means every guarantee
    held on every round of the trace.
    """

    iterations: int
    violations: tuple = ()
    mode: str = "symmetric"

    @property
    def ok(self) -> bool:
        return not self.violations


def check_propositions(trace: BoostTrace, mode: str = "symmetric", tol: float = 1e-9) -> PropositionReport:
    """Verify the weight dynamics promised for the confidence-weighted trainer.

    Per recorded round m (with next-round weights taken from the following
    row or the trace's final state):

    1. every instance the round's stump got wrong, judged against its
       effective label, ends the round with a strictly larger weight gap
       |w_observed - w_flipped|;
    2. every instance the stump got right whose weight pair is already
       lopsided, max(pair) > exp(beta) * min(pair), ends with a strictly
       smaller gap (mode="literal" instead reads the lopsidedness premise
       one-sidedly as w_observed > exp(beta) * w_flipped);
    3. the round's vote never exceeds the plain log-odds vote
       0.5 ln((1 - e') / e') of its effective-label error e', with equality
       only when no instance carries mass on both label readings at once.
       The reference clamps e' exactly as the trainer clamps its own error.

    Checks only report; nothing raises on violation.
    """
    if mode not in ("symmetric", "literal"):
        raise ValueError(f"mode must be 'symmetric' or 'literal', got {mode!r}")
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
        if mode == "symmetric":
            lopsided = np.maximum(row.w_observed, row.w_flipped) > math.exp(row.beta) * np.minimum(
                row.w_observed, row.w_flipped
            )
        else:
            lopsided = row.w_observed > math.exp(row.beta) * row.w_flipped
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
            if not row.beta < ref_beta + tol:
                violations.append(
                    ("vote-bound", m, -1, f"beta {row.beta!r} not below log-odds bound {ref_beta!r}")
                )
        else:
            if not abs(row.beta - ref_beta) <= tol:
                violations.append(
                    ("vote-bound", m, -1, f"beta {row.beta!r} != log-odds bound {ref_beta!r} with no two-sided mass")
                )
    return PropositionReport(iterations=len(rows), violations=tuple(violations), mode=mode)


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
    if obj.get("version") != 1:
        raise ValueError(f"unsupported ensemble file version {obj.get('version')!r}")
    terms = []
    for i, t in enumerate(obj.get("terms", [])):
        try:
            terms.append(
                (
                    float(t["beta"]),
                    Stump(
                        feature=int(t["feature"]),
                        threshold=float(t["threshold"]),
                        polarity=int(t["polarity"]),
                    ),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed term {i}: {exc}") from None
    ensemble = Ensemble(terms=tuple(terms), stopped_at=int(obj.get("stopped_at", len(terms))))
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
