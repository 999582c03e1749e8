"""selfsim benchmark: run one workload through `selfsim.cli.main`.

Usage, from the repository root:

    python3 perfbench/run.py --workload levels --seed 1 --seconds 40 --trace 0

The measure documents come from the seed (see workloads.py). Each pass runs
the workload's job list once in a fresh single-threaded worker process
(worker.py); passes repeat while another one fits in --seconds, and
timings are medians over passes. Set-up time, from process start until selfsim is
imported and the documents are loaded, is measured on every pass and in
extra set-up-only processes.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced passes and prints the per-layer metrics,
with the tracing overhead as traced minus untraced pass time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `failed` counts job runs that exited nonzero
or broke an output check; `correct` is false when an output broke a check.
The line before it holds context fields that gate nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import workloads as wl  # noqa: E402  (HERE is sys.path[0] for a script)

SETUP_SAMPLES = 9
PASS_TIMEOUT_S = 150
# One thread per worker: numpy's BLAS would otherwise start a thread per core.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a job failing)."""


def spawn(workload: str, seed: int, workdir: str, mode: str):
    """Run one worker; returns (set-up seconds, record or None)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload,
            str(seed), workdir, mode]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                          env=WORKER_ENV) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.communicate(timeout=PASS_TIMEOUT_S)[0]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        code = proc.returncode
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker ({mode}) exited with code {code}")
    if mode == "ready":
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def _src_lines() -> int:
    count = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    count += fh.read().count(b"\n")
    return count


def measure(args) -> tuple:
    """Run set-up probes and passes; returns (setup times, plain, traced)."""
    if not os.path.isfile(os.path.join(SRC, "selfsim", "__init__.py")):
        raise BenchError(f"no selfsim package under {SRC}")
    state_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(state_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state_dir)
    try:
        wl.write_documents(wl.make_documents(wl.make_params(args.seed)),
                           workdir)
        plain, traced, setup = [], [], []
        start = time.perf_counter()
        while True:
            mode = "traced" if args.trace and len(plain) > len(traced) \
                else "plain"
            t_setup, rec = spawn(args.workload, args.seed, workdir, mode)
            setup.append(t_setup)
            (traced if mode == "traced" else plain).append(rec)
            # Start another pass only if it should end within --seconds.
            elapsed = time.perf_counter() - start
            per_pass = elapsed / (len(plain) + len(traced))
            if elapsed + per_pass > args.seconds and (traced or not args.trace):
                break
        while len(setup) < SETUP_SAMPLES:
            setup.append(spawn(args.workload, args.seed, workdir, "ready")[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return setup, plain, traced


def run(args, spec: dict) -> dict:
    setup, plain, traced = measure(args)
    records = plain + traced
    n_jobs = len(records[0]["job_s"])
    attempted = len(records) * n_jobs
    failed = sum(r["failed"] for r in records)
    wall = statistics.median(r["wall"] for r in plain)
    if args.trace:
        layers = [dict(r["layers"], **{"trace.overhead_s":
                                       r["layers"]["trace.wall_s"] - wall})
                  for r in traced]
        metrics = {k: statistics.median(d[k] for d in layers)
                   for k in layers[0]}
        groups = spec["per_layer"]
    else:
        widths = [statistics.fmean(r["widths"]) for r in plain]
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
            "ok_frac": 1.0 - failed / attempted,
            "interval_width": statistics.median(widths),
        }
        groups = spec["end_to_end"]
    if sorted(m["name"] for m in groups) != sorted(metrics):
        raise BenchError("computed metrics differ from BENCHMARK.json")

    context = {"workload": args.workload, "seed": args.seed,
               "passes": len(records), "traced_passes": len(traced),
               "setup_samples": len(setup), "src_lines": _src_lines(),
               "nproc": os.cpu_count(), "numpy": records[0]["numpy"],
               "python": sys.version.split()[0]}
    for m in groups:
        print(f"{m['name']:40s} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({"context": context}))
    return {"correct": not any(r["wrong"] for r in records),
            "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                    "unit": m["unit"]} for m in groups}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        result = run(args, spec)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
