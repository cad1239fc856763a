"""In-memory span recorder for the benchmark's traced run.

Spans are recorded from the benchmark side only: `Tracer.wrap` replaces a
public name in a cbboost module with a thin wrapper, so every call the
package makes through that name opens a span. Each span carries its name,
start, end, parent span and op id, plus a few counts read off the call's
result. Spans stay in memory and are written out once, at exit.

The same wrappers also keep what the correctness checks need from a few
calls (`capture`), intermediate results that the public API does not
return, such as the per-noise-level gammas inside one grid run.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = False
        self.op = None
        self.captured: list[tuple] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, **info):
        if not self.enabled:
            yield None
            return
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            **info,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, module, attr, name, info=None, capture=None):
        """Route calls through module.attr into a span.

        info(args, result) adds counts to the span; capture(args, result)
        picks what to keep for the output checks.
        """
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = orig(*args, **kwargs)
                if rec is not None and info is not None:
                    rec.update(info(args, result))
            if capture is not None:
                self.captured.append((name, capture(args, result)))
            return result

        setattr(module, attr, wrapper)

    def take_captured(self) -> list[tuple]:
        out, self.captured = self.captured, []
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(with_self_times(self.spans), fh)


def with_self_times(spans: list[dict]) -> list[dict]:
    """Add dur and self (dur minus the time direct children cover) to each span.

    Calls are single-threaded and properly nested, so direct children never
    overlap and their durations simply add up.
    """
    child = defaultdict(float)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        if s["parent"] is not None:
            child[s["parent"]] += s["dur"]
    for i, s in enumerate(spans):
        s["self"] = s["dur"] - child[i]
    return spans


def _median(vals):
    return statistics.median(vals) if vals else None


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics from one source of spans (op spans, probe spans, ...).

    Times named *_s are per call (median) unless documented per op; counts
    are summed within an op and the median across ops is reported. Only
    metrics that the spans actually support are returned.
    """
    by_name = defaultdict(list)
    by_op = defaultdict(lambda: defaultdict(list))
    for s in spans:
        by_name[s["name"]].append(s)
        by_op[s["op"]][s["name"]].append(s)

    def per_call(name, key="dur"):
        return _median([s[key] for s in by_name[name]])

    def per_op(names, key=None):
        # key None counts the calls
        vals = []
        for groups in by_op.values():
            hits = [s for n in names for s in groups.get(n, ())]
            if hits:
                vals.append(len(hits) if key is None else sum(s[key] for s in hits))
        return _median(vals)

    trains = ("boost.train_adaboost", "boost.train_cb_adaboost")
    cli_cmds = ("synth", "noise", "confidence", "train", "eval")
    m = {
        "confidence.noise_filter_s": per_call("confidence.noise_filter"),
        "confidence.knn_confidence_s": per_call("confidence.knn_confidence"),
        "confidence.filter_rounds": per_op(["confidence.estimate_confidence"], "rounds"),
        "confidence.dist_pairs": per_op(["confidence.estimate_confidence"], "pairs"),
        "stump.train_stump_s": per_call("stump.train_stump"),
        "stump.calls": per_op(["stump.train_stump"]),
        "stump.self_s": per_op(["stump.train_stump"], "self"),
        "boost.train_adaboost_s": per_call("boost.train_adaboost"),
        "boost.train_cb_adaboost_s": per_call("boost.train_cb_adaboost"),
        "boost.rounds": per_op(trains, "terms"),
        "boost.predict_s": per_call("boost.predict"),
        "boost.predict_rows_per_s": _median([s["rows"] / s["dur"] for s in by_name["boost.predict"]]),
        "harness.rep_s": per_call("harness.run_experiment"),
        "harness.self_s": per_call("harness.run_experiment", "self"),
        "dataset.save_csv_s": per_call("dataset.save_csv"),
        "dataset.load_csv_s": per_call("dataset.load_csv"),
        "dataset.inject_label_noise_s": per_call("dataset.inject_label_noise"),
        "cli.startup_s": per_call("cli.startup"),
    }
    for cmd in cli_cmds:
        m[f"cli.{cmd}.wall_s"] = per_op([f"cli.{cmd}"], "dur")
        m[f"cli.{cmd}.work_s"] = per_op([f"cli.{cmd}"], "work")

    conf = by_name["confidence.estimate_confidence"]
    if conf:
        m["confidence.kept_ratio"] = sum(s["kept"] for s in conf) / sum(s["n"] for s in conf)
    reps = by_name["harness.run_experiment"]
    if reps:
        m["harness.cells_failed"] = sum(s["failed"] for s in reps)
    round_s = []
    for groups in by_op.values():
        calls = [s for n in trains for s in groups.get(n, ())]
        terms = sum(s["terms"] for s in calls)
        if terms:
            round_s.append(sum(s["self"] for s in calls) / terms)
    m["boost.round_s"] = _median(round_s)
    cli = [s for cmd in cli_cmds for s in by_name[f"cli.{cmd}"]]
    if cli:
        wall = sum(s["dur"] for s in cli)
        m["share.cli_startup"] = (wall - sum(s["work"] for s in cli)) / wall

    ops = by_name["op"]
    if ops:
        total = sum(s["dur"] for s in ops)
        layer_self = defaultdict(float)
        for s in spans:
            layer_self[s["name"].split(".")[0]] += s["self"]
        m["trace.op_s.p50"] = _median([s["dur"] for s in ops])
        m["share.confidence_self"] = layer_self["confidence"] / total
        m["share.stump_boost_self"] = (layer_self["stump"] + layer_self["boost"]) / total
    return {k: v for k, v in m.items() if v is not None}
