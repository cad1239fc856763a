"""Per-iteration group weight trajectories for both boosting engines.

Trains plain and confidence-weighted boosting side by side on noisy draws
and records, per iteration, the mean sampling weight of the clean and the
mislabeled rows (and, for the confidence-weighted engine, of the
high/low-certainty rows). Plain boosting piles ever more weight onto the
flipped labels; the confidence-weighted engine keeps them suppressed. The
CSV has one row per iteration, averaged over repetitions.

    python scripts/weight_traces.py --out traces.csv
"""

import argparse
import csv
import sys

import numpy as np

from cbboost.boost import BoostConfig, train_adaboost, train_cb_adaboost
from cbboost.cli import given, reported
from cbboost.confidence import CONFIDENCE_METHODS, estimate_confidence
from cbboost.dataset import inject_label_noise
from cbboost.harness import ExperimentConfig, check_conf_cut, derive_seed, weight_trace_groups
from cbboost.synth import SCENARIOS, SynthSpec, generate

SERIES = (
    ("ada_clean", "groups_ada", "clean"),
    ("ada_mislabeled", "groups_ada", "mislabeled"),
    ("cb_clean", "groups_cb", "clean"),
    ("cb_mislabeled", "groups_cb", "mislabeled"),
    ("cb_high_certainty", "groups_cb", "high_certainty"),
    ("cb_low_certainty", "groups_cb", "low_certainty"),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", choices=SCENARIOS)
    ap.add_argument("--noise-level", type=float, default=0.1)
    ap.add_argument("--repetitions", type=int, default=10)
    ap.add_argument("--train-n", type=int)
    ap.add_argument("--iterations", dest="max_iterations", metavar="ITERATIONS", type=int)
    ap.add_argument("--confidence-method", choices=CONFIDENCE_METHODS)
    ap.add_argument("--conf-cut", type=float, default=0.7)
    ap.add_argument("--seed", dest="base_seed", metavar="SEED", type=int)
    ap.add_argument("--out", default="traces.csv")
    return reported(run, ap.parse_args())


def run(args):
    # the grid's config checks the settings a script shares with it, with cbboost's messages
    cfg = ExperimentConfig(noise_levels=(args.noise_level,), boost=BoostConfig(**given(args, BoostConfig)),
                           **given(args, ExperimentConfig))
    check_conf_cut(args.conf_cut)
    (level,) = cfg.noise_levels
    # opened before the first draw, so a path that cannot be written fails before any work
    with open(args.out, "w", newline="") as fh:
        runs = []
        for rep in range(cfg.repetitions):
            train = generate(SynthSpec(cfg.scenario, cfg.train_n, derive_seed(cfg.base_seed, rep, "train")))
            noisy, mask = inject_label_noise(train, level, derive_seed(cfg.base_seed, rep, f"noise@{level!r}"))
            gamma, _ = estimate_confidence(noisy, method=cfg.confidence_method, noise_level=level)
            _, tr_a = train_adaboost(noisy, cfg.boost)
            _, tr_c = train_cb_adaboost(noisy, gamma, cfg.boost)
            runs.append(
                {
                    "groups_ada": weight_trace_groups(tr_a, mask=mask),
                    "groups_cb": weight_trace_groups(tr_c, mask=mask, gamma=gamma, conf_cut=args.conf_cut),
                }
            )
        m = min(
            min(len(r[src][key]) for name, src, key in SERIES if key in r[src]) for r in runs
        )
        table = {"iteration": np.arange(1, m + 1)}
        for name, src, key in SERIES:
            stacks = [r[src][key][:m] for r in runs if key in r[src]]
            if stacks:
                table[name] = np.mean(stacks, axis=0)
        writer = csv.writer(fh)
        writer.writerow(table.keys())
        for i in range(m):
            writer.writerow([format(table[k][i], ".10g") for k in table])
    print(f"wrote {args.out} ({m} iterations x {len(table) - 1} series, {len(runs)} reps)")
    first, last = 0, m - 1
    for name in ("ada_mislabeled", "cb_mislabeled"):
        if name in table:
            print(f"  {name:<16} m=1 {table[name][first]:.6f}  m={m} {table[name][last]:.6f}")


if __name__ == "__main__":
    sys.exit(main())
