"""The benchmark's workloads: what one op runs and how its outputs are checked.

Every op is closed-loop with one client: the next op starts only after the
previous one and its output check have finished. Inputs derive from the
workload seed and the op index, so the same seed replays the same ops.

- grid_n500: one repetition of the paper grid through harness.run_experiment.
- confidence_n5000: one library pipeline at n=5000 (filter, kNN vote, both
  trainers, predict), the O(n^2) confidence hot spot and memory ceiling.
- cli_readme: the six README commands, each a fresh `python -m cbboost`
  process in the op's own working directory.

Checks hold at any seed (gamma grid, filter partition, ensemble shape,
gamma==1 reduction, CLI output == library output). At the default seed each
op's outputs must also match the digests in reference.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

from cbboost import boost, confidence, dataset, harness, synth
from cbboost.boost import BoostConfig, Ensemble
from cbboost.confidence import DEFAULT_K, ConfidenceVector
from cbboost.stump import Stump

DEFAULT_SEED = 1
NOISE = 0.2
GRID_LEVELS = (0.0, 0.1, 0.2, 0.3)
GRID_METHODS = ("stump", "adaboost", "cb", "disc:0.5", "corr:0.5")
C01_ROUNDS = 15
OFF_GRID = 0.55  # not a multiple of 1/k for k=5, so a corrupted gamma is visible
TRAINS = ("boost.train_adaboost", "boost.train_cb_adaboost")

SCALES = {
    "full": {
        "grid_n500": {"train_n": 500, "test_n": 10000, "rounds": 200},
        "confidence_n5000": {"train_n": 5000, "test_n": 10000, "rounds": 200},
        "cli_readme": {"train_n": 500, "test_n": 10000, "rounds": 200},
    },
    # for the self-test only: same ops and checks, seconds instead of minutes
    "tiny": {
        "grid_n500": {"train_n": 60, "test_n": 300, "rounds": 20},
        "confidence_n5000": {"train_n": 300, "test_n": 300, "rounds": 20},
        "cli_readme": {"train_n": 60, "test_n": 300, "rounds": 20},
    },
}


def op_seed(seed: int, i: int, tag: str) -> int:
    digest = hashlib.sha256(f"perfbench|{seed}|{i}|{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def dataset_digest(*sets) -> str:
    return sha(b"".join(d.features.tobytes() + d.labels.tobytes() for d in sets))


def check_gamma(gamma: ConfidenceVector, k: int = DEFAULT_K) -> list[str]:
    off = ~np.isin(gamma.gamma, np.arange(k + 1) / k)
    if off.any():
        i = int(np.flatnonzero(off)[0])
        return [f"gamma[{i}] = {gamma.gamma[i]!r} is off the 1/{k} grid"]
    return []


def check_partition(report, n: int) -> list[str]:
    parts = np.concatenate([report.kept] + [r.removed for r in report.rounds])
    if not np.array_equal(np.sort(parts), np.arange(n)):
        return ["filter kept and removed rows do not partition range(n)"]
    return []


def check_ensemble(ens: Ensemble, cap: int, what: str) -> list[str]:
    problems = []
    if not 1 <= len(ens) <= cap:
        problems.append(f"{what}: {len(ens)} terms, expected 1..{cap}")
    if not all(np.isfinite(beta) and beta > 0 for beta, _ in ens.terms):
        problems.append(f"{what}: a vote is not positive")
    return problems


def check_c01(ds, rounds: int) -> list[str]:
    """train_cb_adaboost with every gamma 1 must give train_adaboost's terms."""
    cfg = BoostConfig(max_iterations=min(C01_ROUNDS, rounds))
    plain, _ = boost.train_adaboost(ds, cfg)
    unit, _ = boost.train_cb_adaboost(ds, ConfidenceVector(np.ones(ds.n)), cfg)
    return [] if plain.terms == unit.terms else ["C01: gamma==1 terms differ from plain AdaBoost"]


def off_grid(gamma: ConfidenceVector) -> ConfidenceVector:
    g = gamma.gamma.copy()
    g[0] = OFF_GRID
    return ConfidenceVector(g)


def shifted_term(ens: Ensemble) -> Ensemble:
    beta, s = ens.terms[0]
    moved = Stump(s.feature, 0.0 if s.threshold == -np.inf else s.threshold + 0.25, s.polarity)
    return Ensemble(((beta, moved),) + ens.terms[1:], ens.stopped_at)


def conf_info(args, result) -> dict:
    # dist_pairs: each filter round compares its s_r survivors pairwise, then
    # the kNN vote compares all n rows with the kept set
    _, report = result
    pairs, s = 0, report.n
    for r in report.rounds:
        pairs += s * s
        s -= r.removed.size
    return {
        "rounds": len(report.rounds),
        "n": report.n,
        "kept": report.n_kept,
        "pairs": pairs + report.n * report.n_kept,
    }


def install_wrappers(tracer, traced: bool):
    """Route the layers' public names through the tracer.

    Untraced runs only capture the grid's intermediate outputs for the
    checks; traced runs also time every layer boundary, stump calls included.
    """
    def terms(args, result):
        return {"terms": len(result[0])}

    def ensemble(args, result):
        return result[0]  # the training trace stays out of the worker's peak RSS

    def inputs_and_result(args, result):
        return args[0], result

    tracer.wrap(harness, "estimate_confidence", "confidence.estimate_confidence", conf_info, inputs_and_result)
    tracer.wrap(harness, "train_adaboost", "boost.train_adaboost", terms, ensemble)
    tracer.wrap(harness, "train_cb_adaboost", "boost.train_cb_adaboost", terms, ensemble)
    if not traced:
        return
    tracer.wrap(harness, "run_experiment", "harness.run_experiment",
                lambda a, t: {"failed": sum(v is None for c in t.cells.values() for v in c.values)})
    tracer.wrap(harness, "run_disc", "harness.run_disc")
    tracer.wrap(harness, "run_corr", "harness.run_corr")
    tracer.wrap(harness, "test_error", "harness.test_error")
    rows = lambda a, r: {"rows": len(r)}  # noqa: E731
    tracer.wrap(harness, "predict", "boost.predict", rows)
    tracer.wrap(boost, "predict", "boost.predict", rows)
    tracer.wrap(confidence, "estimate_confidence", "confidence.estimate_confidence", conf_info)
    tracer.wrap(confidence, "noise_filter", "confidence.noise_filter")
    tracer.wrap(confidence, "knn_confidence", "confidence.knn_confidence")
    tracer.wrap(boost, "train_adaboost", "boost.train_adaboost", terms)
    tracer.wrap(boost, "train_cb_adaboost", "boost.train_cb_adaboost", terms)
    tracer.wrap(boost, "train_stump", "stump.train_stump")


class Workload:
    name = ""
    min_ops = 1  # quality metrics average exactly this many ops, so they are fixed by the seed
    probes: tuple = ()

    def __init__(self, seed: int, scale: str, tracer, out_dir: str):
        self.seed = seed
        self.size = SCALES[scale][self.name]
        self.rounds = self.size["rounds"]
        self.tracer = tracer
        self.out_dir = out_dir

    def generate(self, i: int):
        """Op i's train and test sets, made through the synth layer."""
        return (
            synth.generate(synth.SynthSpec("normal", self.size["train_n"], self.train_seed(i))),
            synth.generate(synth.SynthSpec("normal", self.size["test_n"], self.test_seed(i))),
        )

    def train_seed(self, i):
        return op_seed(self.seed, i, "train")

    def test_seed(self, i):
        return op_seed(self.seed, i, "test")

    def setup(self) -> dict:
        t = time.perf_counter()
        train, test = self.generate(0)
        synth_s = time.perf_counter() - t
        self.warm_up()
        return {"synth.generate_s": synth_s, "inputs": dataset_digest(train, test), "train": train, "test": test}

    def memory_input(self, setup: dict):
        """Op 0's noisy training set, for the tracemalloc pass of the traced run."""
        noisy, _ = dataset.inject_label_noise(setup["train"], NOISE, op_seed(self.seed, 0, "noise"))
        return noisy

    def warm_up(self):
        pass

    def cleanup(self, out):
        pass


class GridWorkload(Workload):
    """One repetition of the paper grid: 4 noise levels x 5 methods, 200 rounds."""

    name = "grid_n500"
    min_ops = 10
    probes = ("dataset", "cli")

    def config(self, i: int, train_n=None, test_n=None, rounds=None):
        return harness.ExperimentConfig(
            scenario="normal",
            train_n=train_n or self.size["train_n"],
            test_n=test_n or self.size["test_n"],
            noise_levels=GRID_LEVELS,
            methods=GRID_METHODS,
            repetitions=1,
            base_seed=op_seed(self.seed, i, "grid"),
            confidence_method="knn",
            boost=BoostConfig(max_iterations=rounds or self.rounds),
            jobs=1,
        )

    def train_seed(self, i):
        return harness.derive_seed(op_seed(self.seed, i, "grid"), 0, "train")

    def test_seed(self, i):
        return harness.derive_seed(op_seed(self.seed, i, "grid"), 0, "test")

    def warm_up(self):
        harness.run_experiment(self.config(0, train_n=40, test_n=50, rounds=2))
        self.tracer.take_captured()

    def op(self, i: int) -> dict:
        self.tracer.take_captured()
        table = harness.run_experiment(self.config(i))
        return {"table": table, "calls": self.tracer.take_captured()}

    def _confidence_calls(self, out):
        return [kept for name, kept in out["calls"] if name == "confidence.estimate_confidence"]

    def _ensembles(self, out):
        return [kept for name, kept in out["calls"] if name in TRAINS]

    def check(self, i: int, out: dict) -> list[str]:
        problems = []
        for (method, level), cell in sorted(out["table"].cells.items()):
            if cell.values[0] is None:
                problems.append(f"cell {method}@{level} failed: {cell.errors[0]}")
        conf = self._confidence_calls(out)
        if len(conf) != len(GRID_LEVELS):
            return problems + [f"{len(conf)} confidence calls, expected {len(GRID_LEVELS)}"]
        for ds, (gamma, report) in conf:
            problems += check_gamma(gamma) + check_partition(report, ds.n)
        for j, ens in enumerate(self._ensembles(out)):
            problems += check_ensemble(ens, self.rounds, f"ensemble {j}")
        with self.tracer.paused():
            problems += check_c01(conf[GRID_LEVELS.index(NOISE)][0], self.rounds)
        return problems

    def digest(self, out: dict) -> dict:
        return {
            "table": sha(harness.table_to_json(out["table"])),
            "gamma": sha(b"".join(g.gamma.tobytes() for _, (g, _) in self._confidence_calls(out))),
            "ensembles": sha("".join(boost.ensemble_to_json(e) for e in self._ensembles(out))),
        }

    def quality(self, out: dict) -> dict:
        table = out["table"]
        return {
            "cb_test_error": table.cell("cb", NOISE).values[0],
            "ada_test_error": table.cell("adaboost", NOISE).values[0],
        }

    def corrupt(self, out: dict, kind: str):
        calls = out["calls"]
        want = "confidence.estimate_confidence" if kind == "gamma" else TRAINS[0]
        j = next(j for j, c in enumerate(calls) if c[0] == want)
        name, kept = calls[j]
        if kind == "gamma":
            ds, (gamma, report) = kept
            calls[j] = (name, (ds, (off_grid(gamma), report)))
        else:
            calls[j] = (name, shifted_term(kept))


class ConfidenceWorkload(Workload):
    """gen_normal -> noise 0.2 -> knn confidence -> both trainers -> predict, n=5000."""

    name = "confidence_n5000"
    min_ops = 3
    probes = ("dataset", "cli", "harness")

    def warm_up(self):
        train, test = synth.gen_normal(100, 1), synth.gen_normal(50, 2)
        gamma, _ = confidence.estimate_confidence(train)
        ens, _ = boost.train_cb_adaboost(train, gamma, BoostConfig(max_iterations=2))
        boost.predict(ens, test.features)

    def op(self, i: int) -> dict:
        train = synth.gen_normal(self.size["train_n"], self.train_seed(i))
        test = synth.gen_normal(self.size["test_n"], self.test_seed(i))
        noisy, _ = dataset.inject_label_noise(train, NOISE, op_seed(self.seed, i, "noise"))
        gamma, report = confidence.estimate_confidence(noisy, method="knn")
        cfg = BoostConfig(max_iterations=self.rounds)
        ada, _ = boost.train_adaboost(noisy, cfg)
        cb, _ = boost.train_cb_adaboost(noisy, gamma, cfg)
        return {
            "noisy": noisy,
            "gamma": gamma,
            "report": report,
            "ada": ada,
            "cb": cb,
            "ada_test_error": float(np.mean(boost.predict(ada, test.features) != test.labels)),
            "cb_test_error": float(np.mean(boost.predict(cb, test.features) != test.labels)),
        }

    def check(self, i: int, out: dict) -> list[str]:
        problems = check_gamma(out["gamma"]) + check_partition(out["report"], out["noisy"].n)
        problems += check_ensemble(out["ada"], self.rounds, "adaboost")
        problems += check_ensemble(out["cb"], self.rounds, "cb")
        with self.tracer.paused():
            problems += check_c01(out["noisy"], self.rounds)
        return problems

    def digest(self, out: dict) -> dict:
        return {
            "gamma": sha(out["gamma"].gamma.tobytes()),
            "ada": sha(boost.ensemble_to_json(out["ada"])),
            "cb": sha(boost.ensemble_to_json(out["cb"])),
            "ada_test_error": out["ada_test_error"],
            "cb_test_error": out["cb_test_error"],
        }

    def quality(self, out: dict) -> dict:
        return {"cb_test_error": out["cb_test_error"], "ada_test_error": out["ada_test_error"]}

    def corrupt(self, out: dict, kind: str):
        if kind == "gamma":
            out["gamma"] = off_grid(out["gamma"])
        else:
            out["cb"] = shifted_term(out["cb"])


class CliWorkload(Workload):
    """The README pipeline, six fresh `python -m cbboost` processes per op.

    The check rebuilds the same pipeline through the library from the op's
    CSVs and requires identical gamma, model terms and test error; the plain
    AdaBoost baseline on those inputs gives ada_test_error.
    """

    name = "cli_readme"
    min_ops = 8
    probes = ("dataset", "harness")

    def commands(self, i: int) -> list[tuple]:
        n, test_n = self.size["train_n"], self.size["test_n"]
        train = ["train", "--in", "noisy.csv", "--gamma", "gamma.csv", "--algo", "cb", "--out", "model.json"]
        if self.rounds != 200:
            train += ["--iterations", str(self.rounds)]
        return [
            ("synth", "train.csv", ["synth", "--scenario", "normal", "--n", str(n),
                                    "--seed", str(self.train_seed(i)), "--out", "train.csv"]),
            ("synth", "test.csv", ["synth", "--scenario", "normal", "--n", str(test_n),
                                   "--seed", str(self.test_seed(i)), "--out", "test.csv"]),
            ("noise", "noisy.csv", ["noise", "--in", "train.csv", "--out", "noisy.csv", "--noise-level",
                                    str(NOISE), "--seed", str(op_seed(self.seed, i, "noise"))]),
            ("confidence", "gamma.csv", ["confidence", "--in", "noisy.csv", "--out", "gamma.csv"]),
            ("train", "model.json", train),
            ("eval", "metrics.json", ["eval", "--model", "model.json", "--in", "test.csv", "--out", "metrics.json"]),
        ]

    def warm_up(self):
        run_cli(["--version"], self.out_dir)

    def op(self, i: int) -> dict:
        work = tempfile.mkdtemp(prefix=f"cli-op{i}-", dir=self.out_dir)
        runs = []
        for cmd, produced, argv in self.commands(i):
            with self.tracer.span(f"cli.{cmd}", work=0.0) as rec:
                run_cli(argv, work)
            runs.append((produced, rec))
        return {"dir": work, "runs": runs}

    def check(self, i: int, out: dict) -> list[str]:
        d = out["dir"]
        for produced, rec in out["runs"]:
            with open(os.path.join(d, produced + ".manifest.json")) as fh:
                work = json.load(fh)["elapsed_seconds"]
            if rec is not None:
                rec["work"] = work
        model, _ = boost.load_ensemble(os.path.join(d, "model.json"))
        gamma = confidence.read_gamma_csv(os.path.join(d, "gamma.csv"))
        with open(os.path.join(d, "metrics.json")) as fh:
            out["cb_test_error"] = json.load(fh)["test_error"]
        problems = check_gamma(gamma) + check_ensemble(model, self.rounds, "model.json")

        noisy = dataset.load_csv(os.path.join(d, "noisy.csv"))
        test = dataset.load_csv(os.path.join(d, "test.csv"))
        lib_gamma, report = confidence.estimate_confidence(noisy, method="knn")
        problems += check_partition(report, noisy.n)
        if not np.array_equal(lib_gamma.gamma, gamma.gamma):
            problems.append("gamma.csv differs from the library's gamma")
        cfg = BoostConfig(max_iterations=self.rounds)
        cb, _ = boost.train_cb_adaboost(noisy, lib_gamma, cfg)
        if cb.terms != model.terms or cb.stopped_at != model.stopped_at:
            problems.append("model.json differs from the library's cb ensemble")
        if float(np.mean(boost.predict(cb, test.features) != test.labels)) != out["cb_test_error"]:
            problems.append("metrics.json test_error differs from the library's")
        ada, _ = boost.train_adaboost(noisy, cfg)
        problems += check_ensemble(ada, self.rounds, "adaboost")
        out["ada_test_error"] = float(np.mean(boost.predict(ada, test.features) != test.labels))
        with self.tracer.paused():
            problems += check_c01(noisy, self.rounds)
        return problems

    def digest(self, out: dict) -> dict:
        def file_sha(name):
            with open(os.path.join(out["dir"], name), "rb") as fh:
                return sha(fh.read())

        return {"model": file_sha("model.json"), "gamma": file_sha("gamma.csv"), "test_error": out["cb_test_error"]}

    def quality(self, out: dict) -> dict:
        return {"cb_test_error": out["cb_test_error"], "ada_test_error": out["ada_test_error"]}

    def corrupt(self, out: dict, kind: str):
        d = out["dir"]
        if kind == "gamma":
            path = os.path.join(d, "gamma.csv")
            with open(path) as fh:
                lines = fh.read().splitlines()
            lines[1] = repr(OFF_GRID)
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        else:
            path = os.path.join(d, "model.json")
            model, config = boost.load_ensemble(path)
            boost.save_ensemble(shifted_term(model), path, config)

    def cleanup(self, out):
        shutil.rmtree(out["dir"], ignore_errors=True)


def run_cli(argv, cwd):
    """One `python -m cbboost` process; the src path comes in through PYTHONPATH."""
    r = subprocess.run([sys.executable, "-m", "cbboost", *argv], cwd=cwd, capture_output=True, text=True,
                       timeout=120)
    if r.returncode != 0:
        raise RuntimeError(f"cbboost {argv[0]} exited {r.returncode}: {r.stderr.strip()}")


WORKLOADS = {w.name: w for w in (GridWorkload, ConfidenceWorkload, CliWorkload)}
