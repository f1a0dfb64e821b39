#!/usr/bin/env python3
"""lamrun benchmark: one workload per run, metrics as one JSON line.

Run from the root of a source tree that holds ``src/lamrun``:

    python3 perfbench/run.py --workload tn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # the four workloads in turn

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced rounds with rounds in which the
public functions of every layer are wrapped by the span recorder
(``spans.py``); it reports the per-layer metrics, the tracing overhead, and
writes the spans to ``perfbench/out/``.  The last line of standard output is
always the JSON result; the lines above it repeat the metrics for a reader.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import refeval
import spans
from workloads import CAL_REFERENCE_S, WORKLOADS, Tally, calibrate

SETUP_REPEATS = 9
LAMRUN_MODULES = ("syntax", "tokens", "reporting", "liam", "ljam", "lpam", "kam", "ham",
                  "multitypes", "siam", "equivalence", "harness", "cli")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "steps/s",
    "types_s": "s",
    "item_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


class Lamrun:
    """A fresh import of every lamrun module."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "lamrun" or m.startswith("lamrun.")]:
            del sys.modules[name]
        package = importlib.import_module("lamrun")
        self.modules = [package]
        for name in LAMRUN_MODULES:
            module = importlib.import_module(f"lamrun.{name}")
            setattr(self, name, module)
            self.modules.append(module)


def set_up(workload, seed: int):
    """Import lamrun and build the inputs ``SETUP_REPEATS`` times; keeps the last.

    Returns the set-up times at the reference speed of ``calibrate``.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        started = perf_counter()
        lam = Lamrun()
        inputs = workload.build(lam, seed)
        elapsed = perf_counter() - started
        times.append(elapsed * 2 * CAL_REFERENCE_S / (before + calibrate()))
    return lam, inputs, times


def measure(workload, lam, inputs, seconds: float, traced: bool, out_dir: str):
    """Whole rounds within ``seconds``; with ``traced``, every other round is traced.

    A round starts only if one more round of the longest length so far still
    ends in time, so a run overruns ``seconds`` only by its first two rounds.
    """
    rounds = {False: [], True: []}
    recorder = spans.Recorder() if traced else None
    started = perf_counter()
    longest = 0.0
    while True:
        round_started = perf_counter()
        trace_this = traced and len(rounds[True]) < len(rounds[False])
        tally = Tally(recorder if trace_this else None)
        patches = spans.install(recorder, lam) if trace_this else None
        try:
            workload.run_round(lam, inputs, tally, out_dir)
        finally:
            if patches is not None:
                patches.restore()
        if trace_this and recorder.stack:
            tally.expect(False, "a traced round left spans open")
        rounds[trace_this].append(tally)
        now = perf_counter()
        longest = max(longest, now - round_started)
        if tally.problems:
            break
        if now - started + longest > seconds and (not traced or rounds[True]):
            break
    return rounds[False], rounds[True], recorder


def summary(rounds: list) -> dict:
    """Per-round figures from the median of each operation over ``rounds``.

    Taking each operation's median before summing keeps one slow round from
    moving the result.
    """
    med = op_medians(rounds)
    machine_keys = rounds[0].steps.keys()
    machine_s = sum(statistics.median(t.machine_s[k] for t in rounds) for k in machine_keys)
    return {
        "wall_s": sum(med.values()),
        "steps_per_s": sum(rounds[0].steps.values()) / machine_s,
        "types_s": sum(med[k] for k in rounds[0].types),
        "item_ms_p50": statistics.median(item_times(med)) * 1000,
    }


def op_medians(rounds: list) -> dict:
    return {k: statistics.median(t.seconds[k] for t in rounds) for k in rounds[0].seconds}


def item_times(med: dict) -> list:
    """Seconds per input (item): the sum of the medians of its operations."""
    items: dict = {}
    for (item, _), seconds in med.items():
        items[item] = items.get(item, 0.0) + seconds
    return list(items.values())


def traced_metrics(lam, workload, seed, untraced, traced, recorder) -> dict:
    out = spans.layer_metrics(recorder, len(traced))
    setup_rec = spans.Recorder()
    patches = spans.install(setup_rec, lam)
    try:
        workload.build(lam, seed)
    finally:
        patches.restore()
    out["syntax.setup_parse_s"] = (setup_rec.seconds("syntax.parse"), "s")
    n = len(traced)
    out["cli.trace_events"] = (sum(t.trace_events for t in traced) / n, "count")
    out["cli.trace_mb"] = (sum(t.trace_bytes for t in traced) / n / 1e6, "MB")
    plain = summary(untraced)["wall_s"]
    wrapped = summary(traced)["wall_s"]
    out["bench.untraced_wall_s"] = (plain, "s")
    out["bench.traced_wall_s"] = (wrapped, "s")
    out["bench.trace_overhead_pct"] = ((wrapped / plain - 1) * 100, "%")
    return out


def run_one(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lamrun", "__init__.py")):
        print("run from the root of the lamrun source tree (src/lamrun not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    refeval.self_check()
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)

    workload = WORKLOADS[args.workload]
    lam, inputs, setup_times = set_up(workload, args.seed)
    problems = [f"input {label} does not match the family built by lamrun.harness"
                for label in (workload.verify(lam, inputs) if workload.verify else [])]
    untraced, traced, recorder = measure(workload, lam, inputs, args.seconds,
                                         bool(args.trace), out_dir)
    for t in untraced + traced:
        problems.extend(t.problems)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        metrics = traced_metrics(lam, workload, args.seed, untraced, traced, recorder)
        dump = {"workload": args.workload, "seed": args.seed, "rounds": len(traced),
                **recorder.dump()}
        path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
        print(f"spans written to {os.path.relpath(path, root)}")
    else:
        figures = {
            "setup_s": statistics.median(setup_times),
            **summary(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in figures.items()}

    attempted = sum(len(t.seconds) for t in untraced + traced)
    failed = sum(t.failed for t in untraced + traced)
    raw_wall = statistics.median(sum(t.raw_seconds.values()) for t in untraced)
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced rounds of {len(untraced[0].seconds)} operations; "
          f"{attempted} operations attempted, {failed} failed; "
          f"median uncalibrated round {raw_wall:.4g} s")
    items = item_times(op_medians(untraced))
    if len(items) >= 200:  # ten or more items above the 95th percentile
        p95 = statistics.quantiles(items, n=20)[-1]
        print(f"  item time over {len(items)} items: p50 {statistics.median(items) * 1000:.4g} ms, "
              f"p95 {p95 * 1000:.4g} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
