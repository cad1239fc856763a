"""Command-line pipeline: synth -> noise -> confidence -> train / eval / bench.

Each subcommand returns what it did, and `main` writes every manifest: a
RunManifest JSON next to the primary output at <output>.manifest.json, with
the tool version, the subcommand, the fully resolved configuration, all seeds,
SHA-256 digests of the inputs, the output list and the seconds the whole
command took; train's also records why the run stopped, its rounds and its
final two-sided risk. train names a stop other than its budget in its
summary line too, and refuses a run that stopped before its first term.
JSON outputs embed the manifest filename; CSV outputs carry no comment rows
(their schemas are strict), so their link to the manifest is the filename
convention itself. eval without --out writes none.
Every file a command or script writes, manifests included, is staged in the
run's one `Staged` and replaces its path only when the whole run succeeds.

A flag that sets an ExperimentConfig or BoostConfig field has the field's
name as its dest and, where it has a default, the dataclass's default.

Errors print as a single `error: ...` line on stderr with exit status 2
(argument problems exit 2 via argparse as well). The CBBOOST_LOG environment
variable (DEBUG/INFO/WARNING/...) controls log verbosity; any other value is
rejected the same way. The analysis scripts read their flags with `given`
and run through `reported`, as the commands here do.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import fields, replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .boost import LEARNER_MODES, BoostConfig, load_ensemble, save_ensemble
from .confidence import (
    CONFIDENCE_METHODS,
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
from .synth import SCENARIOS, SynthSpec, generate
from .util import parse_reals

log = logging.getLogger("cbboost")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class Written(NamedTuple):
    """What one command did, for its manifest; summary is the line printed after it."""

    config: dict
    seeds: dict
    inputs: list
    summary: str | None = None
    result: dict | None = None


def _manifest_path(out) -> str:
    return f"{out}.manifest.json"


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(run: Written, command: str, t0: float, out: Staged) -> None:
    *outputs, path = out  # the manifest is staged last
    manifest = {
        "tool": "cbboost",
        "version": __version__,
        "command": command,
        "config": run.config,
        "seeds": run.seeds,
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in run.inputs],
        "outputs": outputs,
        "elapsed_seconds": round(time.monotonic() - t0, 6),
    }
    if run.result is not None:
        manifest["result"] = run.result
    _write_json(out[path], manifest)
    log.info("wrote manifest %s", path)


def _parse_stop(text: str | None) -> dict:
    """--stop as the BoostConfig fields it sets; None (not given) sets none."""
    if text is None:
        return {}
    name, _, arg = text.partition(":")
    if name == "consistency" or (name == "fixed" and not arg):
        try:
            return {"stop_rule": name, "consistency_a": float(arg or BoostConfig.consistency_a)}
        except ValueError:
            pass
    raise ValueError(f"cannot parse stop rule {text!r}, expected fixed | consistency:A")


def given(args, cls) -> dict:
    """The flags that were given and are named after a field of dataclass cls.

    A tuple field's flag, spelled after the field, takes comma-separated
    text: reals where the field's default holds reals, else names.
    """
    given = {f.name: getattr(args, f.name) for f in fields(cls) if getattr(args, f.name, None) is not None}
    for name, text in given.items():
        default = getattr(cls, name)
        if isinstance(default, tuple):
            flag = "--" + name.replace("_", "-")
            given[name] = parse_reals(text, flag) if isinstance(default[0], float) else tuple(text.split(","))
    return given


class Staged(dict):
    """Output paths, in the order staged, mapped to the temporaries written in their place.

    add(path) creates the temporary beside path, so a path that cannot be
    written fails before any work. The with block renames every temporary
    onto its path when it completes and removes them all when it raises.
    """

    def add(self, path) -> str:
        path = str(path)
        if os.path.realpath(path) in map(os.path.realpath, self):
            raise ValueError(f"{path} is named as two outputs")
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            open(tmp, "x").close()
        except OSError as exc:
            exc.filename = path  # the path the user gave, not the temporary
            raise
        self[path] = tmp
        return tmp

    def __enter__(self):
        return self

    def __exit__(self, failed, *_):
        try:
            if failed is None:
                for path, tmp in self.items():
                    os.replace(tmp, path)
        finally:
            for tmp in self.values():
                with contextlib.suppress(OSError):
                    os.remove(tmp)


def _staged(out: Staged, primary, *others) -> list:
    """Temporaries for a command's outputs (None for one not asked for), then its manifest beside primary."""
    tmps = [out.add(path) if path else None for path in (primary, *others)]
    out.add(_manifest_path(primary))
    return tmps


def cmd_synth(args, out: Staged) -> Written:
    (tmp,) = _staged(out, args.out)
    spec = SynthSpec(scenario=args.scenario, n=args.n, seed=args.seed)
    ds = generate(spec)
    save_csv(ds, tmp, label_column=args.label_column)
    return Written(config={"scenario": args.scenario, "n": args.n, "label_column": args.label_column},
                   seeds={"seed": args.seed}, inputs=[],
                   summary=f"wrote {args.out} ({ds.n} rows, {ds.p} features)")


def cmd_noise(args, out: Staged) -> Written:
    tmp, mask_tmp = _staged(out, args.out, args.mask_out)
    ds = load_csv(args.infile, label_column=args.label_column, positive_label=args.positive_label)
    noisy, mask = inject_label_noise(ds, args.noise_level, args.seed)
    save_csv(noisy, tmp, label_column=args.label_column)
    if mask_tmp:
        with open(mask_tmp, "w", newline="") as fh:
            fh.write("flipped\n")
            for v in mask.flipped:
                fh.write(f"{int(v)}\n")
    config = {
        "noise_level": args.noise_level,
        "label_column": args.label_column,
        "positive_label": args.positive_label,
        "flipped_count": mask.count,
    }
    return Written(config=config, seeds={"seed": args.seed}, inputs=[args.infile],
                   summary=f"wrote {args.out} ({mask.count} of {ds.n} labels flipped)")


def cmd_confidence(args, out: Staged) -> Written:
    (tmp,) = _staged(out, args.out)
    ds = load_csv(args.infile, label_column=args.label_column, positive_label=args.positive_label)
    thresholds = parse_reals(args.filter_thresholds, "--filter-thresholds")
    gamma, report = estimate_confidence(
        ds,
        method=args.method,
        k=args.k,
        thresholds=thresholds,
        noise_level=args.noise_level,
        form=args.form,
        standardize=args.standardize,
    )
    write_gamma_csv(gamma, tmp)
    config = {
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
    }
    return Written(config=config, seeds={}, inputs=[args.infile],
                   summary=f"wrote {args.out} (filter kept {report.n_kept}/{ds.n} rows)")


def cmd_train(args, out: Staged) -> Written:
    (tmp,) = _staged(out, args.out)
    ds = load_csv(args.infile, label_column=args.label_column, positive_label=args.positive_label)
    cfg = BoostConfig(**given(args, BoostConfig), **_parse_stop(args.stop))
    method = METHODS[args.algo]
    inputs = [args.infile]
    gamma = None
    if method.needs_gamma:
        if not args.gamma:
            raise ValueError(f"--algo {args.algo} requires --gamma")
        gamma = read_gamma_csv(args.gamma)
        inputs.append(args.gamma)
    ensemble, trace = fit_method(args.algo, args.threshold, ds, gamma, cfg)
    log.info("train: %d terms, stop reason %s", len(ensemble), trace.stop_reason)
    if not ensemble.terms:
        raise ValueError(f"training stopped before its first term ({trace.stop_reason}); no model written")
    config = {
        "algo": args.algo,
        "iterations": cfg.max_iterations,
        "mode": cfg.learner_mode,
        "stop": args.stop,
        "threshold": args.threshold if method.takes_threshold else None,
        "label_column": args.label_column,
        "positive_label": args.positive_label,
        "manifest": _manifest_path(args.out),
    }
    save_ensemble(ensemble, tmp, config)
    stop = "" if trace.stop_reason == "budget" else f", stop reason {trace.stop_reason}"
    return Written(config=config, seeds={"seed": cfg.seed}, inputs=inputs,
                   summary=f"wrote {args.out} ({len(ensemble)} terms, stopped_at {ensemble.stopped_at}{stop})",
                   result={"stop_reason": trace.stop_reason, "rounds": len(ensemble), "final_risk": trace.final_risk})


def cmd_eval(args, out: Staged) -> Written | None:
    (tmp,) = _staged(out, args.out) if args.out else (None,)
    ensemble, model_config = load_ensemble(args.model)
    ds = load_csv(args.infile, label_column=args.label_column, positive_label=args.positive_label)
    err = test_error(ensemble, ds)
    print(f"test_error {err!r}")
    if not args.out:
        return None
    metrics = {
        "test_error": err,
        "n_test": ds.n,
        "model": str(args.model),
        "model_terms": len(ensemble),
        "manifest": _manifest_path(args.out),
    }
    _write_json(tmp, metrics)
    config = {"label_column": args.label_column, "positive_label": args.positive_label, "model_config": model_config}
    return Written(config=config, seeds={}, inputs=[args.model, args.infile])


def cmd_bench(args, out: Staged) -> Written:
    cfg = ExperimentConfig()
    inputs = []
    if args.config:
        with open(args.config) as fh:
            cfg = config_from_echo(json.load(fh), args.config)
        inputs.append(args.config)
    # flags that were given override the file, which overrides the defaults
    boost = replace(cfg.boost, **given(args, BoostConfig), **_parse_stop(args.stop))
    cfg = replace(cfg, boost=boost, **given(args, ExperimentConfig))
    os.makedirs(args.out_dir, exist_ok=True)
    json_path = os.path.join(args.out_dir, "results.json")
    csv_path = os.path.join(args.out_dir, "results.csv")
    json_tmp, csv_tmp = _staged(out, json_path, csv_path)
    log.info("bench grid: %s", cfg)
    table = run_experiment(cfg)
    body = json.loads(table_to_json(table))
    body["manifest"] = _manifest_path("results.json")
    _write_json(json_tmp, body)
    with open(csv_tmp, "w", newline="") as fh:
        fh.write(table_to_csv(table))
    return Written(config=body["config"], seeds={"base_seed": cfg.base_seed}, inputs=inputs,
                   summary=f"wrote {json_path} and {csv_path}")


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
    p.add_argument("--scenario", choices=SCENARIOS, required=True)
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
    p.add_argument("--method", choices=CONFIDENCE_METHODS, default="knn")
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
    p.add_argument("--algo", choices=METHODS, required=True)
    p.add_argument("--gamma", default=None, help="gamma.csv from the confidence step (cb/disc/corr)")
    p.add_argument("--iterations", dest="max_iterations", metavar="ITERATIONS", type=int, default=BoostConfig.max_iterations)
    p.add_argument("--mode", dest="learner_mode", choices=LEARNER_MODES, default=BoostConfig.learner_mode)
    p.add_argument("--seed", type=int, default=BoostConfig.seed)
    p.add_argument("--stop", default=BoostConfig.stop_rule, help="fixed | consistency:A")
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
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--train-n", type=int)
    p.add_argument("--test-n", type=int)
    p.add_argument("--noise-levels", help="comma-separated, e.g. 0,0.1,0.2")
    p.add_argument("--methods", help="comma-separated, e.g. adaboost,cb,disc:0.5")
    p.add_argument("--repetitions", type=int)
    p.add_argument("--seed", dest="base_seed", metavar="SEED", type=int, help="base seed for the grid")
    p.add_argument("--confidence-method", choices=CONFIDENCE_METHODS)
    p.add_argument("--form", dest="confidence_form", choices=FORMS)
    p.add_argument("--k", type=int)
    p.add_argument("--filter-thresholds")
    p.add_argument("--iterations", dest="max_iterations", metavar="ITERATIONS", type=int)
    p.add_argument("--mode", dest="learner_mode", choices=LEARNER_MODES)
    p.add_argument("--stop")
    p.add_argument("--jobs", type=int, default=ExperimentConfig.jobs)
    p.set_defaults(func=cmd_bench)

    return parser


def reported(run, *args) -> int:
    """Exit status of run(*args, out), out being the run's Staged, logging at
    the CBBOOST_LOG level: 2 after one `error:` line for a ValueError, OSError
    or LinAlgError, an unknown level included, else 0."""
    setting = os.environ.get("CBBOOST_LOG", "WARNING")
    level = setting.upper()
    try:
        # getLevelName maps a known level name to its number, anything else to a str
        if not isinstance(logging.getLevelName(level), int):
            raise ValueError(f"CBBOOST_LOG={setting!r} is not a log level, expected DEBUG, INFO, WARNING, "
                             "ERROR or CRITICAL")
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        with Staged() as out:
            run(*args, out)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run(args, out: Staged) -> None:
    t0 = time.monotonic()
    run = args.func(args, out)
    if run is not None:
        _write_manifest(run, args.command, t0, out)
        if run.summary is not None:
            print(run.summary)


def main(argv=None) -> int:
    return reported(_run, build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
