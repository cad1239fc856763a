"""One benchmark workload in one fresh process: set up, run ops, check, report.

run.py starts this file with --spawned-at set to its monotonic clock just
before launch, so set-up time runs from process launch through imports,
input generation and warm-up to the first timed op. The last stdout line is
a JSON object with the raw results; run.py turns it into the benchmark line.

With --trace 1 even-numbered ops run with spans on and odd ones with spans
off, so the tracing overhead comes from the same run; probes then fill in
the layers the workload's own ops never call, and a tracemalloc pass
measures the confidence and training peaks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import cbboost
from cbboost import boost, confidence, dataset
from tracing import Tracer, layer_metrics, with_self_times
from workloads import DEFAULT_SEED, WORKLOADS, install_wrappers, run_cli

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MB = 1024.0 * 1024.0
STARTUP_SAMPLES = 5
DATASET_SAMPLES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--corrupt", choices=("gamma", "term"), default=None)
    p.add_argument("--record", type=int, default=0, help="run this many ops and print their digests")
    return p.parse_args(argv)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    def __init__(self, args, workload, tracer, setup):
        self.args = args
        self.wl = workload
        self.tracer = tracer
        self.setup = setup
        self.reference = None
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def run_op(self, i, op_id, wl=None, traced=False):
        """Run and check one op; returns (op seconds or None, outputs' quality, digest)."""
        wl = wl or self.wl
        own = isinstance(op_id, int)  # probes are ("probe", layer)
        tr = self.tracer
        self.attempted += 1
        out, dt, quality, digest, problems = None, None, None, None, []
        try:
            tr.enabled, tr.op = traced, op_id
            t = time.perf_counter()
            with tr.span("op" if own else "probe"):
                out = wl.op(i)
            dt = time.perf_counter() - t
            if self.args.corrupt:
                wl.corrupt(out, self.args.corrupt)
            tr.op = ("check", i) if own else op_id
            problems = wl.check(i, out)
            digest = wl.digest(out)
            if own and self.reference is not None and i < len(self.reference) and digest != self.reference[i]:
                moved = sorted(k for k in digest if digest[k] != self.reference[i].get(k))
                problems.append(f"op {i}: {moved} differ from reference.json")
            quality = wl.quality(out)
        except Exception as exc:  # an op that raises counts as failed, the run goes on
            problems = [f"op {i}: {type(exc).__name__}: {exc}"]
        finally:
            tr.enabled = False
            if out is not None:
                wl.cleanup(out)
        if problems:
            self.failed += 1
            self.problems += problems
            for p in problems:
                print(f"perfbench: {self.wl.name} {p}", file=sys.stderr)
        return dt, quality, digest

    def loop(self):
        """Closed loop: ops back to back until min_ops ran and the next op,
        with its check, would likely end past --seconds."""
        args = self.args
        min_ops = args.record or max(self.wl.min_ops, 2 if args.trace else 1)
        times = {True: [], False: []}
        quality, digests, spent = [], [], []
        t0 = time.monotonic()
        i = 0
        while i < min_ops or (not args.record and time.monotonic() - t0 + statistics.median(spent) < args.seconds):
            traced = bool(args.trace) and i % 2 == 0
            t = time.monotonic()
            dt, q, d = self.run_op(i, i, traced=traced)
            spent.append(time.monotonic() - t)
            if dt is not None:
                times[traced].append(dt)
            if q is not None and i < self.wl.min_ops:
                quality.append(q)
            digests.append(d)
            i += 1
        return times, quality, digests

    def end_to_end(self, times, quality) -> dict:
        ops = times[False]
        who = resource.RUSAGE_CHILDREN if self.wl.name == "cli_readme" else resource.RUSAGE_SELF
        m = {
            "ops_per_s": len(ops) / sum(ops),
            "op_s.p50": statistics.median(ops),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "ok_ratio": (self.attempted - self.failed) / self.attempted,
        }
        for key in ("cb_test_error", "ada_test_error"):
            m[key] = statistics.fmean(q[key] for q in quality)
        return m

    def per_layer(self, times) -> dict:
        tr = self.tracer
        wl = self.wl
        for probe in wl.probes:
            if probe == "dataset":
                self.dataset_probe()
            else:
                other = WORKLOADS["grid_n500" if probe == "harness" else "cli_readme"]
                self.run_op(0, ("probe", probe), other(wl.seed, self.args.scale, tr, wl.out_dir), traced=True)
        tr.enabled, tr.op = True, ("probe", "startup")
        for _ in range(STARTUP_SAMPLES):
            with tr.span("cli.startup"):
                run_cli(["--version"], wl.out_dir)
        tr.enabled = False

        spans = with_self_times(tr.spans)
        m = {}
        # a layer's numbers come from the workload's own ops where they call
        # it, else from the CLI check's library rebuild, else from a probe
        for source in ("probe", "check", "op"):
            def in_source(s):
                op = s["op"]
                return isinstance(op, int) if source == "op" else not isinstance(op, int) and op[0] == source
            m.update(layer_metrics([s for s in spans if in_source(s)]))
        m["trace.overhead_s"] = m["trace.op_s.p50"] - statistics.median(times[False])
        m["synth.generate_s"] = self.setup["synth.generate_s"]
        m.update(self.memory_pass())
        return m

    def dataset_probe(self):
        tr = self.tracer
        test = self.setup["test"]
        path = OUT_DIR / f"dataset-probe-{os.getpid()}.csv"
        tr.enabled, tr.op = True, ("probe", "dataset")
        try:
            for j in range(DATASET_SAMPLES):
                with tr.span("dataset.save_csv"):
                    dataset.save_csv(test, path)
                with tr.span("dataset.load_csv"):
                    dataset.load_csv(path)
                with tr.span("dataset.inject_label_noise"):
                    dataset.inject_label_noise(test, 0.2, j)
        finally:
            tr.enabled = False
            path.unlink(missing_ok=True)

    def memory_pass(self) -> dict:
        noisy = self.wl.memory_input(self.setup)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gamma, _ = confidence.estimate_confidence(noisy, method="knn")
            conf_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = boost.train_cb_adaboost(noisy, gamma, boost.BoostConfig(max_iterations=self.wl.rounds))
            train_peak = tracemalloc.get_traced_memory()[1] - base
            del result
        finally:
            tracemalloc.stop()
        return {"confidence.peak_mb": conf_peak / MB, "boost.train_peak_mb": train_peak / MB}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if Path(cbboost.__file__).resolve().parent != src / "cbboost":
        print(f"perfbench: imported cbboost from {cbboost.__file__}, not from {src}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    install_wrappers(tracer, traced=bool(args.trace))
    wl = WORKLOADS[args.workload](args.seed, args.scale, tracer, str(OUT_DIR))
    setup = wl.setup()
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "inputs": setup["inputs"]}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    runner = Runner(args, wl, tracer, setup)
    if args.seed == DEFAULT_SEED and not args.record:
        with open(Path(__file__).with_name("reference.json")) as fh:
            runner.reference = json.load(fh)[args.scale][args.workload]
    times, quality, digests = runner.loop()
    if args.record:
        result["digests"] = digests
    elif args.trace:
        result["metrics"] = runner.per_layer(times)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        result["metrics"] = runner.end_to_end(times, quality)
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems[:20],
                  op_s=times[False], env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
