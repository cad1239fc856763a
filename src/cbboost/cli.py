"""Command-line pipeline: synth -> noise -> confidence -> train / eval / bench.

Every subcommand writes its primary output plus a RunManifest JSON sitting
next to it at <output>.manifest.json, recording the tool version, the fully
resolved configuration, all seeds, SHA-256 digests of the inputs, the output
list and wall-clock timings. JSON outputs embed the manifest filename; CSV
outputs carry no comment rows (their schemas are strict), so their link to
the manifest is the filename convention itself.

Errors print as a single `error: ...` line on stderr with exit status 2
(argument problems exit 2 via argparse as well). The CBBOOST_LOG environment
variable (DEBUG/INFO/WARNING/...) controls log verbosity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .boost import BoostConfig, load_ensemble, save_ensemble
from .confidence import (
    DEFAULT_K,
    DEFAULT_THRESHOLDS,
    estimate_confidence,
    read_gamma_csv,
    write_gamma_csv,
)
from .dataset import inject_label_noise, load_csv, save_csv
from .harness import (
    BOOST_KEYS,
    METHODS,
    ExperimentConfig,
    fit_method,
    run_experiment,
    table_to_csv,
    table_to_json,
    test_error,
)
from .synth import SynthSpec, generate

log = logging.getLogger("cbboost")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(primary_out, command: str, config: dict, seeds: dict, inputs, outputs, t0: float) -> str:
    path = f"{primary_out}.manifest.json"
    manifest = {
        "tool": "cbboost",
        "version": __version__,
        "command": command,
        "config": config,
        "seeds": seeds,
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in inputs],
        "outputs": [str(p) for p in outputs],
        "elapsed_seconds": round(time.monotonic() - t0, 6),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote manifest %s", path)
    return path


def _parse_thresholds(text: str) -> tuple:
    try:
        vals = tuple(float(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise ValueError(f"cannot parse thresholds {text!r}, expected comma-separated reals") from None
    return vals


def _parse_stop(text: str) -> tuple[str, float]:
    name, _, arg = text.partition(":")
    if name == "fixed":
        if arg:
            raise ValueError("stop rule 'fixed' takes no argument")
        return "fixed", 0.5
    if name == "consistency":
        a = float(arg) if arg else 0.5
        return "consistency", a
    raise ValueError(f"unknown stop rule {text!r}, expected fixed or consistency:A")


def _as_type_of(default, value, what: str):
    # int() alone would truncate 4.7 to 4 without a word
    if isinstance(default, int) and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return type(default)(value)


def _boost_config(args) -> BoostConfig:
    stop_rule, a = _parse_stop(args.stop)
    return BoostConfig(
        max_iterations=args.iterations,
        learner_mode=args.mode,
        seed=args.seed,
        stop_rule=stop_rule,
        consistency_a=a,
    )


def cmd_synth(args) -> int:
    t0 = time.monotonic()
    spec = SynthSpec(scenario=args.scenario, n=args.n, seed=args.seed)
    ds = generate(spec)
    save_csv(ds, args.out, label_column=args.label_column)
    _write_manifest(
        args.out,
        "synth",
        {"scenario": args.scenario, "n": args.n, "label_column": args.label_column},
        {"seed": args.seed},
        [],
        [args.out],
        t0,
    )
    print(f"wrote {args.out} ({ds.n} rows, {ds.p} features)")
    return 0


def cmd_noise(args) -> int:
    t0 = time.monotonic()
    ds = load_csv(args.infile, label_column=args.label_column, positive_label=args.positive_label)
    noisy, mask = inject_label_noise(ds, args.noise_level, args.seed)
    save_csv(noisy, args.out, label_column=args.label_column)
    outputs = [args.out]
    if args.mask_out:
        with open(args.mask_out, "w", newline="") as fh:
            fh.write("flipped\n")
            for v in mask.flipped:
                fh.write(f"{int(v)}\n")
        outputs.append(args.mask_out)
    _write_manifest(
        args.out,
        "noise",
        {
            "noise_level": args.noise_level,
            "label_column": args.label_column,
            "positive_label": args.positive_label,
            "flipped_count": mask.count,
        },
        {"seed": args.seed},
        [args.infile],
        outputs,
        t0,
    )
    print(f"wrote {args.out} ({mask.count} of {ds.n} labels flipped)")
    return 0


def cmd_confidence(args) -> int:
    t0 = time.monotonic()
    ds = load_csv(args.infile, label_column=args.label_column, positive_label=args.positive_label)
    thresholds = _parse_thresholds(args.filter_thresholds)
    gamma, report = estimate_confidence(
        ds,
        method=args.method,
        k=args.k,
        thresholds=thresholds,
        noise_level=args.noise_level,
        form=args.form,
        standardize=args.standardize,
    )
    write_gamma_csv(gamma, args.out)
    _write_manifest(
        args.out,
        "confidence",
        {
            "method": args.method,
            "k": args.k,
            "filter_thresholds": list(thresholds),
            "noise_level": args.noise_level,
            "form": args.form,
            "standardize": bool(args.standardize),
            "label_column": args.label_column,
            "positive_label": args.positive_label,
            "kept": int(report.n_kept),
            "filter_aborted": bool(report.aborted),
        },
        {},
        [args.infile],
        [args.out],
        t0,
    )
    print(f"wrote {args.out} (filter kept {report.n_kept}/{ds.n} rows)")
    return 0


def cmd_train(args) -> int:
    t0 = time.monotonic()
    ds = load_csv(args.infile, label_column=args.label_column, positive_label=args.positive_label)
    cfg = _boost_config(args)
    method = METHODS[args.algo]
    inputs = [args.infile]
    gamma = None
    if method.needs_gamma:
        if not args.gamma:
            raise ValueError(f"--algo {args.algo} requires --gamma")
        gamma = read_gamma_csv(args.gamma)
        inputs.append(args.gamma)
    ensemble = fit_method(args.algo, args.threshold, ds, gamma, cfg)
    config = {
        "algo": args.algo,
        "iterations": args.iterations,
        "mode": args.mode,
        "stop": args.stop,
        "threshold": args.threshold if method.takes_threshold else None,
        "label_column": args.label_column,
        "positive_label": args.positive_label,
        "manifest": f"{args.out}.manifest.json",
    }
    save_ensemble(ensemble, args.out, config)
    _write_manifest(args.out, "train", config, {"seed": args.seed}, inputs, [args.out], t0)
    print(f"wrote {args.out} ({len(ensemble)} terms, stopped_at {ensemble.stopped_at})")
    return 0


def cmd_eval(args) -> int:
    t0 = time.monotonic()
    ensemble, model_config = load_ensemble(args.model)
    ds = load_csv(args.infile, label_column=args.label_column, positive_label=args.positive_label)
    err = test_error(ensemble, ds)
    print(f"test_error {err!r}")
    if args.out:
        metrics = {
            "test_error": err,
            "n_test": ds.n,
            "model": str(args.model),
            "model_terms": len(ensemble),
            "manifest": f"{args.out}.manifest.json",
        }
        with open(args.out, "w") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(
            args.out,
            "eval",
            {"label_column": args.label_column, "positive_label": args.positive_label,
             "model_config": model_config},
            {},
            [args.model, args.infile],
            [args.out],
            t0,
        )
    return 0


def cmd_bench(args) -> int:
    t0 = time.monotonic()
    file_cfg = {}
    inputs = []
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{args.config}: bench config must be a JSON object")
        inputs.append(args.config)
    defaults = ExperimentConfig()

    # flags override file values; file values override ExperimentConfig's defaults
    def pick(flag_value, key):
        return flag_value if flag_value is not None else file_cfg.get(key, getattr(defaults, key))

    def pick_int(flag_value, key):
        return _as_type_of(getattr(defaults, key), pick(flag_value, key), f"{args.config}: {key}")

    def pick_list(flag_value, key, convert):
        # a bare string would otherwise be iterated character by character
        value = pick(flag_value, key)
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{args.config}: {key} must be a list, got {value!r}")
        try:
            return tuple(convert(x) for x in value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{args.config}: {key}: {exc}") from None

    def pick_reals(flag_text, key):
        return pick_list(None if flag_text is None else _parse_thresholds(flag_text), key, float)

    # boost settings live only in the "boost" block, under the keys a
    # results.json config echo writes, so an echoed config replays exactly
    misplaced = sorted(set(file_cfg) & {"stop", *BOOST_KEYS})
    if misplaced:
        raise ValueError(f"{args.config}: {', '.join(misplaced)} must sit inside the 'boost' block")
    boost_cfg = file_cfg.get("boost", {})
    if not isinstance(boost_cfg, dict):
        raise ValueError(f"{args.config}: 'boost' must be a JSON object")
    unknown = sorted(set(boost_cfg) - set(BOOST_KEYS))
    if unknown:
        raise ValueError(
            f"{args.config}: unknown boost setting {', '.join(unknown)}, expected some of {', '.join(BOOST_KEYS)}"
        )
    try:
        boost = BoostConfig(**{k: _as_type_of(getattr(defaults.boost, k), v, k) for k, v in boost_cfg.items()})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{args.config}: bad boost setting: {exc}") from None
    if args.iterations is not None:
        boost = replace(boost, max_iterations=args.iterations)
    if args.mode is not None:
        boost = replace(boost, learner_mode=args.mode)
    if args.stop is not None:
        stop_rule, a = _parse_stop(args.stop)
        boost = replace(boost, stop_rule=stop_rule, consistency_a=a)
    cfg = ExperimentConfig(
        scenario=pick(args.scenario, "scenario"),
        train_n=pick_int(args.train_n, "train_n"),
        test_n=pick_int(args.test_n, "test_n"),
        noise_levels=pick_reals(args.noise_levels, "noise_levels"),
        methods=pick_list(None if args.methods is None else args.methods.split(","), "methods", str),
        repetitions=pick_int(args.repetitions, "repetitions"),
        base_seed=pick_int(args.seed, "base_seed"),
        confidence_method=pick(args.confidence_method, "confidence_method"),
        confidence_form=pick(args.form, "confidence_form"),
        k=pick_int(args.k, "k"),
        filter_thresholds=pick_reals(args.filter_thresholds, "filter_thresholds"),
        boost=boost,
        jobs=args.jobs,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    log.info("bench grid: %s", cfg)
    table = run_experiment(cfg)
    json_path = os.path.join(args.out_dir, "results.json")
    csv_path = os.path.join(args.out_dir, "results.csv")
    body = json.loads(table_to_json(table))
    body["manifest"] = "results.json.manifest.json"
    with open(json_path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(csv_path, "w", newline="") as fh:
        fh.write(table_to_csv(table))
    _write_manifest(
        json_path,
        "bench",
        body["config"],
        {"base_seed": cfg.base_seed},
        inputs,
        [json_path, csv_path],
        t0,
    )
    print(f"wrote {json_path} and {csv_path}")
    return 0


def _add_io_flags(p, needs_out=True):
    p.add_argument("--in", dest="infile", required=True, help="input CSV")
    if needs_out:
        p.add_argument("--out", required=True, help="output file")
    p.add_argument("--label-column", default="label", help="name of the label column")
    p.add_argument("--positive-label", default="1", help="label value mapped to +1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbboost",
        description="Boosting with per-label confidence weights, robust to label noise.",
    )
    parser.add_argument("--version", action="version", version=f"cbboost {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--scenario", choices=("normal", "sine"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--label-column", default="label")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("noise", help="flip a fraction of labels in a dataset CSV")
    _add_io_flags(p)
    p.add_argument("--noise-level", type=float, required=True, help="fraction of labels to flip, in [0, 0.5)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask-out", default=None, help="optional CSV recording which rows were flipped")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("confidence", help="estimate per-label confidence, write gamma.csv")
    _add_io_flags(p)
    p.add_argument("--method", choices=("knn", "bayes"), default="knn")
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--noise-level", type=float, default=None, help="assumed flip rate (bayes only)")
    p.add_argument("--form", choices=("consistent", "paper-literal"), default="consistent")
    p.add_argument(
        "--filter-thresholds",
        default=",".join(str(t) for t in DEFAULT_THRESHOLDS),
        help="comma-separated agreement thresholds for the pre-filter rounds",
    )
    p.add_argument(
        "--no-standardize",
        dest="standardize",
        action="store_false",
        help="skip z-score standardization before neighbor distances",
    )
    p.set_defaults(func=cmd_confidence, standardize=True)

    p = sub.add_parser("train", help="train a model, write model JSON")
    _add_io_flags(p)
    p.add_argument("--algo", choices=tuple(METHODS), required=True)
    p.add_argument("--gamma", default=None, help="gamma.csv from the confidence step (cb/disc/corr)")
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--mode", choices=("weighted", "resample"), default="weighted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stop", default="fixed", help="fixed | consistency:A")
    p.add_argument("--threshold", type=float, default=0.5, help="confidence cutoff for disc/corr")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model JSON on a dataset CSV")
    p.add_argument("--model", required=True)
    _add_io_flags(p, needs_out=False)
    p.add_argument("--out", default=None, help="optional metrics JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run a benchmark grid, write results.json/results.csv")
    p.add_argument("--config", default=None, help="JSON config; flags override its values")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--scenario", choices=("normal", "sine"), default=None)
    p.add_argument("--train-n", type=int, default=None)
    p.add_argument("--test-n", type=int, default=None)
    p.add_argument("--noise-levels", default=None, help="comma-separated, e.g. 0,0.1,0.2")
    p.add_argument("--methods", default=None, help="comma-separated, e.g. adaboost,cb,disc:0.5")
    p.add_argument("--repetitions", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="base seed for the grid")
    p.add_argument("--confidence-method", choices=("knn", "bayes"), default=None)
    p.add_argument("--form", choices=("consistent", "paper-literal"), default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--filter-thresholds", default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--mode", choices=("weighted", "resample"), default=None)
    p.add_argument("--stop", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("CBBOOST_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
