"""One benchmark process: set up selfsim, then run a workload's jobs once.

Usage: python3 worker.py WORKLOAD SEED WORKDIR MODE

The worker imports selfsim from the checkout's src/, loads the workload's
measure documents (already written to WORKDIR by run.py) and prints
"ready"; run.py times process start to that line as set-up. MODE "ready"
stops there. MODE "plain" or "traced" then runs the job list once through
`selfsim.cli.main`, checks every output outside the timed region, and
prints one JSON record as the last line. A fresh process per pass gives
every pass the cold allocator and page-fault costs a CLI user pays.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import workloads as wl  # noqa: E402  (HERE is sys.path[0] for a script)
from spans import Tracer  # noqa: E402


def _csv_size(paths: list) -> tuple:
    rows = size = 0
    for path in paths:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            size += len(data)
            rows += max(0, data.count(b"\n") - 1)
    return rows, size


def run_pass(cli, jobs: list, tracer: Tracer | None) -> dict:
    """Run every job once; time the jobs, then check their outputs."""
    rec = {"wall": 0.0, "failed": 0, "wrong": 0, "widths": [], "rows": 0,
           "bytes": 0, "job_s": {}}
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    for job in jobs:
        for path in job.outputs:
            if os.path.exists(path):
                os.remove(path)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(job.argv)
            else:
                with tracer.span(f"cli.job.{job.name}"):
                    code = cli.main(job.argv)
        except Exception:  # a crash is a failed job, not a benchmark error
            traceback.print_exc()
            code = -1
        dt = time.perf_counter() - t0
        rec["wall"] += dt
        rec["job_s"][job.name] = dt
        if code != 0:
            print(f"job {job.name}: exit code {code}", file=sys.stderr)
            rec["failed"] += 1
            continue
        try:
            rec["widths"] += job.check()
        except (wl.CheckFailed, OSError, KeyError, ValueError) as exc:
            print(f"job {job.name}: check failed: {exc}", file=sys.stderr)
            rec["failed"] += 1
            rec["wrong"] += 1
        rows, size = _csv_size(job.outputs)
        rec["rows"] += rows
        rec["bytes"] += size
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    rec["user"] = ru1.ru_utime - ru0.ru_utime
    rec["sys"] = ru1.ru_stime - ru0.ru_stime
    rec["minflt"] = ru1.ru_minflt - ru0.ru_minflt
    rec["peak_rss_mb"] = ru1.ru_maxrss / 1024.0
    return rec


def layer_metrics(rec: dict, tr: Tracer) -> dict:
    """Per-layer figures of one traced pass (trace.overhead_s is run.py's)."""
    tot, own, par, cnt = tr.total, tr.self_time, tr.by_parent, tr.count
    bins = "histogram.bin_weighted_intervals"
    out = {
        "cli.self_s": sum(v for k, v in own.items()
                          if k.startswith("cli.job.")),
        "cli.rows": rec["rows"],
        "cli.bytes": rec["bytes"],
    }
    for name in wl.JOB_NAMES:
        out[f"cli.job.{name}_s"] = rec["job_s"].get(name, 0.0)
    out.update({
        "transforms.load_measure_spec_s": tot["transforms.load_measure_spec"],
        "transforms.convolve_hist.self_s": own["transforms.convolve_hist"],
        "transforms.convolve_hist.bin_s":
            par[(bins, "transforms.convolve_hist")],
        "transforms.convolve_hist.pairs": cnt["transforms.convolve_hist.pairs"],
        "transforms.convolve_hist.pair_mb":
            cnt["transforms.convolve_hist.pair_mb"],
        "transforms.histogram_project_s": tot["transforms.histogram_project"],
        "transforms.histogram_project.bin_s":
            par[(bins, "transforms.histogram_project")],
        "histogram.histogram.self_s": own["histogram.histogram"],
        "histogram.histogram.bin_s": par[(bins, "histogram.histogram")],
        "histogram.words": cnt["histogram.words"],
        "histogram.cells": cnt["histogram.cells"],
        "histogram.word_mb": cnt["histogram.word_mb"],
        "histogram.mass_gap": (cnt["histogram.gap_sum"]
                               / max(1.0, cnt["histogram.calls"])),
        "histogram.moment_sums_s": tot["histogram.moment_sums"],
        "histogram.entropy_sum_s": tot["histogram.entropy_sum"],
        "dimension.table_s": tot["dimension.table_from_histograms"],
        "dimension.estimate_s": (tot["dimension.estimate_Dq"]
                                 + tot["dimension.estimate_D1"]),
        "dimension.levels": cnt["dimension.levels"],
        "dimension.residual_max": cnt["dimension.residual_max"],
        "fourier.ft_eval_s": tot["fourier.ft_eval"],
        "fourier.ft_eval.calls": cnt["fourier.ft_eval.calls"],
        "fourier.decay_fit.self_s": own["fourier.decay_fit"],
        "fourier.err_max": cnt["fourier.err_max"],
        "ekscan.ek_count_sequences_s": tot["ekscan.ek_count_sequences"],
        "ekscan.sequences": cnt["ekscan.sequences"],
        "ekscan.ek_badness_s": tot["ekscan.ek_badness"],
        "ekscan.grid_points": cnt["ekscan.grid_points"],
        "ekscan.ek_sweep.self_s": own["ekscan.ek_sweep"],
        "ifs.ifs_from_json_s": tot["ifs.ifs_from_json"],
        "proc.user_s": rec["user"],
        "proc.sys_s": rec["sys"],
        "proc.minflt": rec["minflt"],
        "trace.wall_s": rec["wall"],
    })
    return out


def main(argv: list) -> int:
    workload, seed, workdir, mode = argv
    if not os.path.isfile(os.path.join(SRC, "selfsim", "__init__.py")):
        print(f"no selfsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from selfsim import cli
    from selfsim.transforms import load_measure_spec

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"selfsim imported from {cli.__file__}", file=sys.stderr)
        return 2
    jobs = wl.workload_jobs(workload, wl.make_params(int(seed)), workdir)
    for path in wl.input_documents(jobs):
        load_measure_spec(path)
    print("ready", flush=True)
    if mode == "ready":
        return 0

    if mode == "traced":
        with Tracer() as tr:
            rec = run_pass(cli, jobs, tr)
        rec["layers"] = layer_metrics(rec, tr)
    else:
        rec = run_pass(cli, jobs, None)
    rec["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(rec), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
