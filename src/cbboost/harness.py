"""Benchmark orchestration: repeated synthetic runs, baselines and summaries.

A run draws fresh train/test data per repetition, injects label noise,
estimates confidence once per (repetition, noise level), and hands the same
confidence vector to every method that needs it, so method comparisons never
diverge through their preprocessing. Noise flips labels only, so all noise
levels of a repetition read one neighbour table built from its features.
Seeds for every random stage derive from (base_seed, repetition, stage tag)
through SHA-256, making each stage independent of scheduling and of which
other stages exist.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .boost import BoostConfig, BoostTrace, Ensemble, predict, train_adaboost, train_cb_adaboost
from .confidence import (
    DEFAULT_K,
    DEFAULT_THRESHOLDS,
    ConfidenceVector,
    Neighbours,
    check_settings,
    estimate_confidence,
)
from .dataset import Dataset, inject_label_noise
from .synth import SCENARIOS, SynthSpec, generate
from .util import whole_number

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "ResultsTable",
    "derive_seed",
    "test_error",
    "run_disc",
    "run_corr",
    "METHODS",
    "fit_method",
    "run_experiment",
    "check_conf_cut",
    "weight_trace_groups",
    "table_to_json",
    "config_from_echo",
    "table_to_csv",
    "parse_method",
]


class Method(NamedTuple):
    needs_gamma: bool
    takes_threshold: bool


# every method the grid and the CLI train, in the CLI's listing order
METHODS = {
    "stump": Method(needs_gamma=False, takes_threshold=False),
    "adaboost": Method(needs_gamma=False, takes_threshold=False),
    "cb": Method(needs_gamma=True, takes_threshold=False),
    "disc": Method(needs_gamma=True, takes_threshold=True),
    "corr": Method(needs_gamma=True, takes_threshold=True),
}


def derive_seed(base_seed: int, rep: int, stage: str) -> int:
    """Stable 64-bit seed for one random stage of one repetition."""
    digest = hashlib.sha256(f"{base_seed}|{rep}|{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def parse_method(spec: str) -> tuple[str, float | None]:
    """'adaboost' -> ('adaboost', None); 'disc:0.5' -> ('disc', 0.5)."""
    name, _, arg = spec.partition(":")
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}, expected one of {tuple(METHODS)}")
    if METHODS[name].takes_threshold:
        if not arg:
            raise ValueError(f"method {name!r} needs a threshold, e.g. {name}:0.5")
        try:
            thr = float(arg)
        except ValueError:
            raise ValueError(f"cannot parse method {spec!r}, expected a threshold as in {name}:0.5") from None
        if not (0.0 < thr < 1.0):
            raise ValueError(f"threshold for {name!r} must lie in (0, 1), got {thr}")
        return name, thr
    if arg:
        raise ValueError(f"method {name!r} takes no argument, got {spec!r}")
    return name, None


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark grid: scenario x noise levels x methods x repetitions.

    The fields are the keys of a results.json config echo and the dests of
    `cbboost bench`'s flags. No noise level or method spec may repeat, and
    train_n must exceed k when a method needs confidence.
    """

    scenario: str = "normal"
    train_n: int = 500
    test_n: int = 10000
    noise_levels: tuple = (0.0, 0.1, 0.2, 0.3)
    methods: tuple = ("adaboost", "cb")
    repetitions: int = 30
    base_seed: int = 20240501
    confidence_method: str = "knn"
    confidence_form: str = "consistent"
    k: int = DEFAULT_K
    filter_thresholds: tuple = DEFAULT_THRESHOLDS
    boost: BoostConfig = field(default_factory=BoostConfig)
    jobs: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be {' or '.join(map(repr, SCENARIOS))}, got {self.scenario!r}")
        if self.train_n < 2 or self.test_n < 2:
            raise ValueError(f"need train_n >= 2 and test_n >= 2, got {self.train_n}/{self.test_n}")
        if self.repetitions < 1:
            raise ValueError(f"need at least 1 repetition, got {self.repetitions}")
        if not self.noise_levels or not self.methods:
            raise ValueError("the grid needs at least one noise level and one method")
        for lv in self.noise_levels:
            if not (0.0 <= lv < 0.5):
                raise ValueError(f"noise levels must lie in [0, 0.5), got {lv}")
        # a repeated entry would run its cells twice and keep one of them
        if len(set(self.noise_levels)) < len(self.noise_levels):
            raise ValueError(f"noise levels must not repeat, got {self.noise_levels}")
        # every level is valid here; bayes needs one, and each cell passes its own
        check_settings(self.k, self.filter_thresholds, self.confidence_form,
                       method=self.confidence_method, noise_level=self.noise_levels[0])
        specs = [parse_method(m) for m in self.methods]
        if len(set(specs)) < len(specs):
            raise ValueError(f"methods must not repeat, got {self.methods}")
        # the noise filter's first round and the kNN vote both need more rows than neighbours
        if self.train_n <= self.k and any(METHODS[name].needs_gamma for name, _ in specs):
            raise ValueError(f"train_n must exceed k={self.k} when a method needs confidence, got {self.train_n}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


@dataclass(frozen=True)
class CellResult:
    """Per-repetition outcomes for one (method, noise level) cell.

    values holds one test error per repetition, None where that repetition
    failed for this method (the error message lands in errors); stops holds
    the ensemble length per repetition (None on failure; 1 for 'stump').
    """

    values: tuple
    stops: tuple
    errors: tuple

    @property
    def ok_values(self) -> list:
        return [v for v in self.values if v is not None]

    @property
    def mean(self) -> float | None:
        vals = self.ok_values
        return float(np.mean(vals)) if vals else None

    @property
    def std(self) -> float | None:
        # sample std over repetitions; a single value has spread 0 by convention
        vals = self.ok_values
        if not vals:
            return None
        return float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0


@dataclass(frozen=True)
class ResultsTable:
    config: ExperimentConfig
    cells: dict

    def cell(self, method: str, level: float) -> CellResult:
        return self.cells[(method, float(level))]


def test_error(ensemble: Ensemble, test: Dataset) -> float:
    """Fraction of test rows whose predicted sign disagrees with the label."""
    return float(np.mean(predict(ensemble, test.features) != test.labels))


def _check_baseline(train: Dataset, gamma: ConfidenceVector, threshold: float) -> None:
    if gamma.n != train.n:
        raise ValueError(f"gamma length {gamma.n} does not match {train.n} rows")
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")


def run_disc(train: Dataset, gamma: ConfidenceVector, threshold: float, cfg: BoostConfig):
    """Baseline: drop every row with confidence below threshold, then boost plainly."""
    _check_baseline(train, gamma, threshold)
    keep = gamma.gamma >= threshold
    n_keep = int(keep.sum())
    if n_keep < 2:
        raise ValueError(f"discarding below {threshold} keeps only {n_keep} rows")
    sub = Dataset(train.features[keep], train.labels[keep])
    return train_adaboost(sub, cfg)


def run_corr(train: Dataset, gamma: ConfidenceVector, threshold: float, cfg: BoostConfig):
    """Baseline: flip the label of every row with confidence below threshold, then boost."""
    _check_baseline(train, gamma, threshold)
    flip = gamma.gamma < threshold
    labels = np.where(flip, -train.labels, train.labels)
    return train_adaboost(Dataset(train.features, labels), cfg)


def fit_method(name: str, thr: float | None, train: Dataset, gamma: ConfidenceVector | None,
               cfg: BoostConfig) -> tuple[Ensemble, BoostTrace]:
    """Train method `name` of METHODS; the grid and the CLI both train here.

    Returns the trainer's own (ensemble, trace). The trainers are read from
    this module's globals at call time, so a wrapper installed on
    harness.train_adaboost and friends sees every call.
    """
    if name == "stump":
        cfg = replace(cfg, max_iterations=1)
    if not METHODS[name].needs_gamma:
        return train_adaboost(train, cfg)
    if name == "cb":
        return train_cb_adaboost(train, gamma, cfg)
    if name == "disc":
        return run_disc(train, gamma, thr, cfg)
    return run_corr(train, gamma, thr, cfg)


def _run_repetition(cfg: ExperimentConfig, rep: int) -> dict:
    """All cells of one repetition: {(method, level): (value, stop, error)}."""
    out = {}
    test = generate(SynthSpec(cfg.scenario, cfg.test_n, derive_seed(cfg.base_seed, rep, "test")))
    train = generate(SynthSpec(cfg.scenario, cfg.train_n, derive_seed(cfg.base_seed, rep, "train")))
    specs = [(mspec, *parse_method(mspec)) for mspec in cfg.methods]
    needs_gamma = any(METHODS[name].needs_gamma for _, name, _ in specs)
    nb = None
    for level in cfg.noise_levels:
        level = float(level)
        noisy, _mask = inject_label_noise(
            train, level, derive_seed(cfg.base_seed, rep, f"noise@{level!r}")
        )
        gamma = None
        gamma_err = None
        if needs_gamma:
            try:
                if nb is None:
                    nb = Neighbours(train.features, cfg.k)
                gamma, _report = estimate_confidence(
                    noisy,
                    method=cfg.confidence_method,
                    k=cfg.k,
                    thresholds=cfg.filter_thresholds,
                    noise_level=level,
                    form=cfg.confidence_form,
                    neighbours=nb,
                )
            except (ValueError, np.linalg.LinAlgError) as exc:
                gamma_err = f"confidence failed: {exc}"
        for mspec, name, thr in specs:
            if METHODS[name].needs_gamma and gamma is None:
                out[(mspec, level)] = (None, None, gamma_err)
                continue
            bcfg = replace(cfg.boost, seed=derive_seed(cfg.base_seed, rep, f"boost@{mspec}@{level!r}"))
            try:
                ens, _ = fit_method(name, thr, noisy, gamma, bcfg)
                out[(mspec, level)] = (test_error(ens, test), len(ens), None)
            except ValueError as exc:
                out[(mspec, level)] = (None, None, f"{name} failed: {exc}")
    return out


def run_experiment(cfg: ExperimentConfig) -> ResultsTable:
    """Run the full grid; identical output for any jobs value.

    A method failing on one repetition leaves that cell entry missing (None)
    with its error recorded instead of aborting the whole run.
    """
    # a fork pool starts every worker on the first submit, so start no more than there is work for
    workers = min(cfg.jobs, cfg.repetitions)
    if workers > 1:
        # imported here: the process pool loads multiprocessing and socket,
        # which a serial run and every other command would pay for at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(_run_repetition, [cfg] * cfg.repetitions, range(cfg.repetitions)))
    else:
        per_rep = [_run_repetition(cfg, rep) for rep in range(cfg.repetitions)]
    cells = {}
    for mspec in cfg.methods:
        for level in cfg.noise_levels:
            level = float(level)
            triples = [rep_out[(mspec, level)] for rep_out in per_rep]
            cells[(mspec, level)] = CellResult(
                values=tuple(t[0] for t in triples),
                stops=tuple(t[1] for t in triples),
                errors=tuple(t[2] for t in triples),
            )
    return ResultsTable(config=cfg, cells=cells)


def check_conf_cut(conf_cut: float) -> None:
    """Certainty, max(gamma, 1 - gamma), lies in [0.5, 1], so a cut splitting it must lie in [0.5, 1)."""
    if not (0.5 <= conf_cut < 1.0):
        raise ValueError(f"conf_cut must lie in [0.5, 1), got {conf_cut}")


def weight_trace_groups(trace, mask=None, gamma=None, conf_cut: float = 0.7) -> dict:
    """Mean sampling weight per iteration for diagnostic instance groups.

    With a noise mask: groups "clean" and "mislabeled". With a confidence
    vector: groups "high_certainty" and "low_certainty", split on
    max(gamma, 1 - gamma) > conf_cut (certainty means commitment either way,
    so gamma near 0 is as certain as gamma near 1); conf_cut passes
    check_conf_cut. Empty groups are omitted.
    """
    check_conf_cut(conf_cut)
    if not trace.rows:
        raise ValueError("trace has no recorded iterations")
    n = trace.rows[0].sample_weights.size
    if mask is not None and mask.flipped.size != n:
        raise ValueError(f"mask length {mask.flipped.size} does not match the trace's {n} rows")
    if gamma is not None and gamma.n != n:
        raise ValueError(f"confidence length {gamma.n} does not match the trace's {n} rows")
    D = np.stack([row.sample_weights for row in trace.rows])
    series = {}
    if mask is not None:
        for name, sel in (("clean", ~mask.flipped), ("mislabeled", mask.flipped)):
            if sel.any():
                series[name] = D[:, sel].mean(axis=1)
    if gamma is not None:
        certain = np.maximum(gamma.gamma, 1.0 - gamma.gamma) > conf_cut
        for name, sel in (("high_certainty", certain), ("low_certainty", ~certain)):
            if sel.any():
                series[name] = D[:, sel].mean(axis=1)
    return series


def table_to_json(table: ResultsTable) -> str:
    """Full per-repetition detail, deterministic bytes for a given table."""
    cells = []
    for (mspec, level), cell in sorted(table.cells.items()):
        cells.append(
            {
                "method": mspec,
                "noise_level": level,
                "mean": cell.mean,
                "std": cell.std,
                "values": list(cell.values),
                "stops": list(cell.stops),
                "errors": list(cell.errors),
                "failed": sum(v is None for v in cell.values),
            }
        )
    return json.dumps({"config": _echo(table.config), "cells": cells}, indent=2, sort_keys=True)


def _echo(cfg: ExperimentConfig) -> dict:
    # jobs never changes the results, and each repetition derives its own
    # boosting seed from base_seed, so neither belongs to the echo
    config = asdict(cfg)
    del config["jobs"], config["boost"]["seed"]
    return config


def config_from_echo(data, where: str) -> ExperimentConfig:
    """The grid a config object in the shape of table_to_json's echo describes.

    The keys are exactly those the echo writes, its "boost" block included;
    an omitted key keeps ExperimentConfig's default. Each value must have
    its default's JSON type: a whole float reads as an integer, while bools,
    strings for numbers and non-lists for list settings are rejected, as are
    unknown keys (jobs and boost.seed among them). Errors are ValueErrors
    prefixed with `where`.
    """
    values = _read_block(data, _echo(ExperimentConfig()), where, "")
    try:
        return ExperimentConfig(**{**values, "boost": BoostConfig(**values.get("boost", {}))})
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _read_block(data, schema: dict, where: str, path: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{where}: {path or 'a grid config'} must be a JSON object, got {data!r}")
    name = (path + ".") if path else ""
    unknown = sorted(set(data) - set(schema))
    if unknown:
        raise ValueError(
            f"{where}: unknown key {', '.join(name + k for k in unknown)}, expected some of {', '.join(schema)}"
        )
    return {
        key: _read_block(value, schema[key], where, name + key)
        if isinstance(schema[key], dict)
        else _read_value(value, schema[key], f"{where}: {name}{key}")
        for key, value in data.items()
    }


def _read_value(value, default, what: str):
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ValueError(f"{what} must be a list, got {value!r}")
        return tuple(_read_value(v, default[0], f"{what}[{i}]") for i, v in enumerate(value))
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ValueError(f"{what} must be a string, got {value!r}")
        return value
    if isinstance(default, int):
        return whole_number(value, what)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def table_to_csv(table: ResultsTable) -> str:
    """Summary rows: method, noise_level, mean, std, ok/total repetition counts."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["method", "noise_level", "mean", "std", "reps_ok", "reps_total"])
    for (mspec, level), cell in sorted(table.cells.items()):
        ok = len(cell.ok_values)
        writer.writerow(
            [
                mspec,
                repr(level),
                "" if cell.mean is None else format(cell.mean, ".6f"),
                "" if cell.std is None else format(cell.std, ".6f"),
                ok,
                len(cell.values),
            ]
        )
    return buf.getvalue()
