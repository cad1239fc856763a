"""Command-line pipeline: synth -> noise -> confidence -> train / eval / bench.

Every subcommand writes its primary output plus a RunManifest JSON sitting
next to it at <output>.manifest.json, recording the tool version, the fully
resolved configuration, all seeds, SHA-256 digests of the inputs, the output
list and wall-clock timings. JSON outputs embed the manifest filename; CSV
outputs carry no comment rows (their schemas are strict), so their link to
the manifest is the filename convention itself.

Errors print as a single `error: ...` line on stderr with exit status 2
(argument problems exit 2 via argparse as well). The CBBOOST_LOG environment
variable (DEBUG/INFO/WARNING/...) controls log verbosity; any other value is
rejected the same way.
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
    FORMS,
    estimate_confidence,
    read_gamma_csv,
    write_gamma_csv,
)
from .dataset import inject_label_noise, load_csv, save_csv
from .harness import (
    METHODS,
    ExperimentConfig,
    config_from_echo,
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
    cfg = ExperimentConfig()
    inputs = []
    if args.config:
        with open(args.config) as fh:
            cfg = config_from_echo(json.load(fh), args.config)
        inputs.append(args.config)
    # flags that were given override the file, which overrides the defaults
    flags = {
        "scenario": args.scenario,
        "train_n": args.train_n,
        "test_n": args.test_n,
        "noise_levels": None if args.noise_levels is None else _parse_thresholds(args.noise_levels),
        "methods": None if args.methods is None else tuple(args.methods.split(",")),
        "repetitions": args.repetitions,
        "base_seed": args.seed,
        "confidence_method": args.confidence_method,
        "confidence_form": args.form,
        "k": args.k,
        "filter_thresholds": None if args.filter_thresholds is None else _parse_thresholds(args.filter_thresholds),
        "jobs": args.jobs,
    }
    boost_flags = {"max_iterations": args.iterations, "learner_mode": args.mode}
    if args.stop is not None:
        boost_flags["stop_rule"], boost_flags["consistency_a"] = _parse_stop(args.stop)
    boost = replace(cfg.boost, **{k: v for k, v in boost_flags.items() if v is not None})
    cfg = replace(cfg, boost=boost, **{k: v for k, v in flags.items() if v is not None})
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
    p.add_argument("--form", choices=FORMS, default="consistent")
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
    p.add_argument("--config", default=None,
                   help="JSON config with the keys of a results.json config echo; flags override its values")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--scenario", choices=("normal", "sine"), default=None)
    p.add_argument("--train-n", type=int, default=None)
    p.add_argument("--test-n", type=int, default=None)
    p.add_argument("--noise-levels", default=None, help="comma-separated, e.g. 0,0.1,0.2")
    p.add_argument("--methods", default=None, help="comma-separated, e.g. adaboost,cb,disc:0.5")
    p.add_argument("--repetitions", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="base seed for the grid")
    p.add_argument("--confidence-method", choices=("knn", "bayes"), default=None)
    p.add_argument("--form", choices=FORMS, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--filter-thresholds", default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--mode", choices=("weighted", "resample"), default=None)
    p.add_argument("--stop", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    setting = os.environ.get("CBBOOST_LOG", "WARNING")
    level = setting.upper()
    # getLevelName maps a known level name to its number, anything else to a str
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: CBBOOST_LOG={setting!r} is not a log level, expected DEBUG, INFO, WARNING, "
              "ERROR or CRITICAL", file=sys.stderr)
        return 2
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
