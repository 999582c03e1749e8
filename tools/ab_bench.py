"""Alternating A/B runs of the benchmark: a parent checkout against a change.

Usage, from the repository root:

    git worktree add ../parent HEAD~1      # or: git archive HEAD~1 | tar -x -C ../parent
    python3 tools/ab_bench.py --parent ../parent --workload levels \\
        --first-seed 2001 --pairs 10 -o ab.json

For each workload, pair i runs `perfbench/run.py --workload W --seed S
--seconds T --trace 0` once in each checkout, with T the run length of
BENCHMARK.json and seed S = first seed + i
(workloads after the first go on from the last seed used). The parent runs
first in even pairs and the change first in odd ones, one process at a
time, each from its own checkout's `src/` and `perfbench/`. The metrics,
their direction and their bounds come from the change's BENCHMARK.json.

The JSON written holds per workload and metric: the median, quartiles,
minimum and maximum of each side, the pairs the change wins, the parent's
interquartile range over its median, a verdict and whether a gain is shown
(see summarize). Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VERDICT_RULE = (
    "per metric: 'regressed' if the change's median is worse than the parent's "
    "by more than the bound (relative); otherwise 'unresolved' where the "
    "parent's interquartile range over its median exceeds the bound and some "
    "run of the change is no better than some run of the parent, else "
    "'within bound'. gain_shown: the change wins at least 9 in 10 pairs, its "
    "median is better than the parent's by more than the parent's "
    "interquartile range, and it fails no more operations than the parent. "
    "Quartiles: statistics.quantiles(n=4).")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a checkout; returns its result line as a dict."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _stats(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "runs": list(values)}


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """Compare one metric over alternating pairs (parent[i], change[i]).

    better is "lower" or "higher"; bound is the relative change the metric
    may move by. A pair counts as a win when the change is strictly better.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    p, c = _stats(parent), _stats(change)
    # gain > 0 where the change is better.
    gains = [sign * (a - b) for a, b in zip(parent, change)]
    iqr = p["q3"] - p["q1"]
    base = abs(p["median"])
    spread = iqr / base if base else (0.0 if iqr == 0.0 else math.inf)
    worse = sign * (c["median"] - p["median"])
    every_run_better = max(sign * v for v in change) < min(sign * v for v in parent)
    if worse > bound * base:
        verdict = "regressed"
    elif spread > bound and not every_run_better:
        verdict = "unresolved: parent spread over bound"
    else:
        verdict = "within bound"
    wins = sum(g > 0.0 for g in gains)
    return {
        "parent": p, "change": c,
        "change_wins": wins, "ties": sum(g == 0.0 for g in gains),
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "parent_iqr": iqr, "parent_iqr_over_median": spread, "bound": bound,
        "verdict": verdict,
        "gain_shown": 10 * wins >= 9 * len(gains) and -worse > iqr,
    }


def summarize_workload(runs: list, spec: dict) -> dict:
    """runs holds (seed, parent result, change result) per pair. No metric
    shows a gain when the change fails more operations than the parent."""
    out = {
        "seeds": [seed for seed, _, _ in runs], "pairs": len(runs),
        "correct": all(r["correct"] for _, *pair in runs for r in pair),
        "failed": {side: sum(pair[k]["failed"] for _, *pair in runs)
                   for k, side in enumerate(("parent", "change"))},
        "attempted": {side: sum(pair[k]["attempted"] for _, *pair in runs)
                      for k, side in enumerate(("parent", "change"))},
        "metrics": {},
    }
    for m in spec["end_to_end"]:
        name = m["name"]
        out["metrics"][name] = summarize(
            [p["metrics"][name] for _, p, _ in runs],
            [c["metrics"][name] for _, _, c in runs], m["better"], m["bound"])
        if out["failed"]["change"] > out["failed"]["parent"]:
            out["metrics"][name]["gain_shown"] = False
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", default=ROOT, help="checkout of the change (default: this one)")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("-o", "--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = float(spec["run_seconds"])
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    report = {
        "benchmark": f"python3 perfbench/run.py --workload W --seed S "
                     f"--seconds {seconds:g} --trace 0",
        "pairs_alternate": "parent first on even pair index, change first on odd; "
                           "each side ran from its own checkout of src/ and perfbench/",
        "verdicts": VERDICT_RULE,
        "workloads": {},
    }
    seed = args.first_seed
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            result = {}
            for side in order:
                t0 = time.perf_counter()
                result[side] = run_once(checkouts[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: wall_s "
                      f"{result[side]['metrics']['wall_s']:.4f} "
                      f"({time.perf_counter() - t0:.0f} s)", file=sys.stderr, flush=True)
            runs.append((seed, result["parent"], result["change"]))
            seed += 1
        report["workloads"][workload] = summarize_workload(runs, spec)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
