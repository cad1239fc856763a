"""Self-test of the benchmark at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

It checks that every metric of BENCHMARK.json is printed with its unit, in
both the untraced and the traced run of each workload (cli_readme too, which
BENCHMARK.json leaves out); that a corrupted output (one gamma value, or one
model term) is counted as a failed op; that another seed changes the inputs
but not the metric names; and that the benchmark exits non-zero, printing no
result, where there are no cbboost sources. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT):
    r = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                       timeout=180)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run.py {' '.join(args)} exited {r.returncode}: {r.stderr[-1000:]}")
    return json.loads(lines[-2].removeprefix("info ")), json.loads(lines[-1])


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for wl in WORKLOADS:
        common = ["--workload", wl, "--seconds", "1", "--scale", "tiny"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            info, line = bench(*common, "--seed", "1", "--trace", str(trace))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: v["unit"] for name, v in line["metrics"].items()}
            expect(got == want, f"{wl} trace={trace}: every {key} metric printed with its unit")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in line["metrics"].values()), f"{wl} trace={trace}: every value is a finite number")
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                   f"{wl} trace={trace}: correct with no failed ops")
            if trace == 0:
                base_inputs, base_names = info["inputs"], set(got)
        info, line = bench(*common, "--seed", "2")
        expect(info["inputs"] != base_inputs and set(line["metrics"]) == base_names,
               f"{wl}: seed 2 changes the inputs, not the metric names")
        for kind in ("gamma", "term"):
            _, line = bench(*common, "--seed", "1", "--corrupt", kind)
            expect(line["failed"] > 0 and not line["correct"] and line["metrics"]["ok_ratio"]["value"] < 1,
                   f"{wl}: a corrupted {kind} is counted as failed")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid_n500", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                           timeout=180)
        expect(r.returncode != 0 and not r.stdout.strip(), "without cbboost sources: non-zero exit, no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
