"""Confidence quality by group: do mislabeled rows get low gamma?

For each estimator and noise level, repeatedly draws a training set, flips
labels, estimates per-label confidence, and summarizes the clean and
mislabeled groups (mean +/- std over repetitions of the per-run group
means). High clean-group and low mislabeled-group confidence is what makes
the downstream booster robust.

    python scripts/confidence_table.py --repetitions 30
"""

import argparse
import csv
import sys

import numpy as np

from cbboost.confidence import confidence_quality, estimate_confidence
from cbboost.dataset import inject_label_noise
from cbboost.harness import derive_seed
from cbboost.synth import SynthSpec, generate

ESTIMATORS = (
    ("bayes", "consistent"),
    ("bayes", "paper-literal"),
    ("knn", None),
)


def one_cell(scenario, level, method, form, reps, n, base_seed):
    clean_means, noisy_means = [], []
    for rep in range(reps):
        train = generate(SynthSpec(scenario, n, derive_seed(base_seed, rep, "train")))
        noisy, mask = inject_label_noise(train, level, derive_seed(base_seed, rep, f"noise@{level!r}"))
        gamma, _ = estimate_confidence(
            noisy,
            method=method,
            noise_level=level if method == "bayes" else None,
            form=form or "consistent",
        )
        stats = confidence_quality(gamma, mask)
        clean_means.append(stats["clean"].mean)
        if stats["mislabeled"] is not None:
            noisy_means.append(stats["mislabeled"].mean)
    return (
        float(np.mean(clean_means)),
        float(np.std(clean_means, ddof=1)),
        float(np.mean(noisy_means)) if noisy_means else None,
        float(np.std(noisy_means, ddof=1)) if len(noisy_means) > 1 else None,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", choices=("normal", "sine"), default="normal")
    ap.add_argument("--noise-levels", default="0.1,0.2,0.3")
    ap.add_argument("--repetitions", type=int, default=30)
    ap.add_argument("--train-n", type=int, default=500)
    ap.add_argument("--seed", type=int, default=20240501)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args()

    rows = [("estimator", "form", "noise_level", "clean_mean", "clean_std", "mislabeled_mean", "mislabeled_std")]
    for method, form in ESTIMATORS:
        for level in (float(x) for x in args.noise_levels.split(",")):
            cm, cs, nm, ns = one_cell(
                args.scenario, level, method, form, args.repetitions, args.train_n, args.seed
            )
            rows.append((method, form or "", level, cm, cs, nm, ns))
            label = method if form is None else f"{method}/{form}"
            print(
                f"{label:<20} @{level:>4} : clean {cm:.4f} +/- {cs:.4f}   "
                f"mislabeled {nm:.4f} +/- {ns:.4f}"
            )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
