"""Confidence quality by group: do mislabeled rows get low gamma?

For each estimator and noise level, repeatedly draws a training set, flips
labels, estimates per-label confidence, and summarizes the clean and
mislabeled groups (mean +/- std over repetitions of the per-run group
means). High clean-group and low mislabeled-group confidence is what makes
the downstream booster robust.

    python scripts/confidence_table.py --repetitions 30
"""

import argparse
import contextlib
import csv
import sys

import numpy as np

from cbboost.cli import given, reported
from cbboost.confidence import confidence_quality, estimate_confidence
from cbboost.dataset import inject_label_noise
from cbboost.harness import ExperimentConfig, derive_seed
from cbboost.synth import SCENARIOS, SynthSpec, generate

ESTIMATORS = (
    ("bayes", "consistent"),
    ("bayes", "paper-literal"),
    ("knn", None),
)


def one_cell(cfg, level, method, form):
    clean_means, noisy_means = [], []
    for rep in range(cfg.repetitions):
        train = generate(SynthSpec(cfg.scenario, cfg.train_n, derive_seed(cfg.base_seed, rep, "train")))
        noisy, mask = inject_label_noise(train, level, derive_seed(cfg.base_seed, rep, f"noise@{level!r}"))
        gamma, _ = estimate_confidence(noisy, method=method, noise_level=level, form=form or "consistent")
        stats = confidence_quality(gamma, mask)
        clean_means.append(stats["clean"].mean)
        if stats["mislabeled"] is not None:
            noisy_means.append(stats["mislabeled"].mean)
    # None where a group has no runs (noise 0 flips nothing) or one run (no spread)
    return (
        float(np.mean(clean_means)),
        float(np.std(clean_means, ddof=1)) if len(clean_means) > 1 else None,
        float(np.mean(noisy_means)) if noisy_means else None,
        float(np.std(noisy_means, ddof=1)) if len(noisy_means) > 1 else None,
    )


def fmt(v):
    return "n/a" if v is None else f"{v:.4f}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", choices=SCENARIOS)
    ap.add_argument("--noise-levels", default="0.1,0.2,0.3")
    ap.add_argument("--repetitions", type=int)
    ap.add_argument("--train-n", type=int)
    ap.add_argument("--seed", dest="base_seed", metavar="SEED", type=int)
    ap.add_argument("--out", default=None, help="optional CSV path")
    return reported(run, ap.parse_args())


def run(args):
    # the grid's config checks the settings a script shares with it, with cbboost's messages
    cfg = ExperimentConfig(**given(args, ExperimentConfig))
    rows = [("estimator", "form", "noise_level", "clean_mean", "clean_std", "mislabeled_mean", "mislabeled_std")]
    # opened before the first draw, so a path that cannot be written fails before any work
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext() as fh:
        for method, form in ESTIMATORS:
            for level in cfg.noise_levels:
                cm, cs, nm, ns = one_cell(cfg, level, method, form)
                rows.append((method, form or "", level, cm, cs, nm, ns))
                label = method if form is None else f"{method}/{form}"
                print(
                    f"{label:<20} @{level:>4} : clean {fmt(cm)} +/- {fmt(cs)}   "
                    f"mislabeled {fmt(nm)} +/- {fmt(ns)}"
                )
        if fh is not None:
            csv.writer(fh).writerows(rows)
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
