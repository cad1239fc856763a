"""cbboost benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload grid_n500 --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout; it imports cbboost from ./src.
Each workload runs in a fresh worker process (worker.py), so one workload's
memory never shows in another's peak RSS. With --trace 0 the result holds the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
Set-up is launched several times and its median is reported as setup_s.

    python3 perfbench/run.py --record-reference

re-records the default-seed output digests in reference.json. Results must
never move, so do that only when a change is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_LAUNCHES = 7
DEADLINE_S = 170
# One BLAS thread: cbboost's hot loops are numpy element-wise work, not BLAS
# calls, and idle BLAS threads that spin on a 2-vCPU machine slow the CLI
# children's start-up by a varying amount.
BLAS_THREADS = "1"
DEFAULT_SEED = 1  # the seed whose outputs reference.json pins (workloads.DEFAULT_SEED)
# more ops than a run at the default seed gets through, so every op is compared
RECORD_OPS = {"full": {"grid_n500": 40, "confidence_n5000": 8, "cli_readme": 36},
              "tiny": {"grid_n500": 16, "confidence_n5000": 16, "cli_readme": 16}}
# BENCHMARK.json lists the workloads the regression gate runs; cli_readme is
# left out of it (too noisy for its bound on a shared 2-vCPU host) but still
# runs by hand, and its op is the cli probe of the other workloads' traced runs.
WORKLOADS = tuple(RECORD_OPS["full"])


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(argv: list[str], deadline: float) -> dict:
    """Start worker.py, wait for it, and return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def record_reference() -> int:
    ref = {}
    for scale, counts in RECORD_OPS.items():
        ref[scale] = {}
        for workload, n in counts.items():
            argv = ["--workload", workload, "--seed", str(DEFAULT_SEED), "--seconds", "0", "--scale", scale,
                    "--record", str(n)]
            res = run_worker(argv, time.monotonic() + 900)
            if res["failed"]:
                return fail(f"{workload} ({scale}) failed its checks, not recording: {res['problems']}")
            ref[scale][workload] = res["digests"]
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cbboost benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for selftest.py")
    p.add_argument("--corrupt", choices=("gamma", "term"), default=None,
                   help="damage one output per op before its check (selftest.py)")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    t_start = time.monotonic()

    if not (ROOT / "src" / "cbboost" / "__init__.py").is_file():
        return fail(f"no cbboost sources under {ROOT / 'src'}; run from a cbboost checkout")
    if args.record_reference:
        return record_reference()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        return fail(f"--workload must be one of {list(WORKLOADS)}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    deadline = t_start + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", str(args.trace), "--scale", args.scale]
    if args.corrupt:
        base += ["--corrupt", args.corrupt]
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_LAUNCHES - 1):
                setups.append(run_worker(base + ["--setup-only"], deadline)["setup_s"])
        res = run_worker(base, deadline)
    except (RuntimeError, ValueError) as exc:
        return fail(f"{args.workload}: {exc}")
    setups.append(res["setup_s"])

    metrics = res["metrics"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch:
        return fail(f"{args.workload}: metrics do not match BENCHMARK.json: {sorted(mismatch)}")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_sha": git_sha(),
        "inputs": res["inputs"],
        "setup_runs_s": setups,
        "untraced_op_s": res["op_s"],
        "problems": res["problems"],
        **res["env"],
    }
    line = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"info": info, **line}, fh, indent=1)
    print("info " + json.dumps(info))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
