"""Seeded measure documents, job lists and output checks for each workload.

A workload is a list of jobs. A job is one `selfsim` command line plus a
check that reads the CSV files the command wrote. Checks use invariants and
closed forms, never frozen CSV bytes, so a later fix that moves digits is
not counted as a failure.

The seed changes only weights, the generic projection angle, the Fourier
`--seed` offset and the sweep window. It never changes the number of maps,
ratios, levels or grid sizes, so every seed asks for the same work and the
checks hold for every seed.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import random
from dataclasses import dataclass

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
FOURIER_TOL = 1e-12
FOURIER_BANDS = 16
FOURIER_SAMPLES = 1024
SWEEP_STEPS = 256
SWEEP_N = 40
SWEEP_WIDTH = 0.04
MASS_TOL = 1e-9

# Exact output of `selfsim ekcount` for the fixed settings used below. The
# count is an exact integer enumeration, so any other value is an error.
EKCOUNT_TRANSLATIONS = (1, 1, 2, 23, 46, 87, 173, 2169, 4145, 7739, 14313,
                        235746)
EKCOUNT_CONVOLUTIONS = (3, 3, 3, 19, 25, 31, 37, 205, 279, 365, 463, 2399,
                        3325, 4471, 5861, 29125, 40847, 55885, 74823, 361159)


class CheckFailed(Exception):
    """A job's output broke an invariant or a closed form."""


@dataclass
class Job:
    """One CLI invocation and the check of what it wrote.

    check() raises CheckFailed, or returns the widths of the certified
    intervals the job reported, which interval_width averages.
    """

    name: str
    argv: list
    outputs: list
    check: object


def _jitter(rng: random.Random, base, spread: float) -> list:
    """Weights base_i * (1 + spread * u_i), u_i uniform in [-1, 1], renormalised."""
    raw = [b * (1.0 + spread * rng.uniform(-1.0, 1.0)) for b in base]
    total = sum(raw)
    return [x / total for x in raw]


@dataclass(frozen=True)
class Params:
    """Everything the seed decides."""

    seed: int
    sep_w: tuple
    four_w: tuple
    rot_w: tuple
    c13_w: tuple
    c14_w: tuple
    beta: float
    sweep_lo: float


def make_params(seed: int) -> Params:
    """Seed 0 gives the reference inputs: 1 rad and the base weights."""
    if seed == 0:
        return Params(0, (0.5, 0.3, 0.2), (0.25,) * 4, (0.25,) * 4,
                      (0.5, 0.5), (0.5, 0.5), 1.0, 0.6)
    rng = random.Random(seed)
    # tan(beta) = 3/2 (beta ~ 0.983) is the nearest direction where the
    # projected four-corner set has exact overlaps that lower its entropy
    # dimension visibly at these levels; [0.99, 1.02] stays clear of it.
    return Params(seed,
                  tuple(_jitter(rng, (0.5, 0.3, 0.2), 0.1)),
                  tuple(_jitter(rng, (0.25,) * 4, 0.05)),
                  tuple(_jitter(rng, (0.25,) * 4, 0.05)),
                  tuple(_jitter(rng, (0.5, 0.5), 0.04)),
                  tuple(_jitter(rng, (0.5, 0.5), 0.04)),
                  1.0 + rng.uniform(-0.01, 0.02),
                  0.6 + 0.04 * rng.random())


def make_documents(pr: Params) -> dict:
    """Measure documents keyed by file stem."""
    corners = [[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3], [2 / 3, 2 / 3]]
    c13 = {"ambient_dim": 1, "ratio": 1 / 3, "sign": 1,
           "translations": [0.0, 2 / 3], "weights": list(pr.c13_w),
           "label": "c13"}
    rot4 = {"ambient_dim": 2, "ratio": 1 / 3, "alpha": GOLDEN,
            "translations": corners, "weights": list(pr.rot_w),
            "label": "rot4"}
    return {
        "separated": {"ambient_dim": 1, "ratio": 0.25, "sign": 1,
                      "translations": [0.0, 0.375, 0.75],
                      "weights": list(pr.sep_w), "label": "sep3"},
        "generic": {"ambient_dim": 2, "ratio": 1 / 3, "alpha": 0.0,
                    "translations": corners, "weights": list(pr.four_w),
                    "label": "four",
                    "derive": {"kind": "projection", "beta": pr.beta}},
        "rot4": rot4,
        "rotproj": dict(rot4, derive={"kind": "projection", "beta": pr.beta}),
        "c13": c13,
        "c14": {"ambient_dim": 1, "ratio": 0.25, "sign": 1,
                "translations": [0.0, 0.75], "weights": list(pr.c14_w),
                "label": "c14"},
        "conv": dict(c13, derive={"kind": "convolution", "other": "c14.json",
                                  "u": 0.7}),
        "golden": {"ambient_dim": 1, "ratio": GOLDEN, "sign": 1,
                   "translations": [-1.0, 1.0], "label": "bc_golden"},
        "sinc": {"ambient_dim": 1, "ratio": 0.5, "sign": 1,
                 "translations": [-1.0, 1.0], "label": "sinc"},
    }


def doc_path(workdir: str, stem: str) -> str:
    return os.path.join(workdir, stem + ".json")


def write_documents(docs: dict, workdir: str) -> None:
    for stem, doc in docs.items():
        with open(doc_path(workdir, stem), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------- checks


def _rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_estimate(rows: list, lo_key: str, hi_key: str, label: str):
    """Same estimate on every row, bounds ordered, D_lo <= slope <= D_hi."""
    for r in rows:
        _require(float(r[lo_key]) <= float(r[hi_key]),
                 f"{label}: {lo_key} > {hi_key} at n={r['n']}")
    first = rows[0]
    est = tuple(float(first[k]) for k in ("D_lo", "slope_fit", "D_hi"))
    _require(all(tuple(float(r[k]) for k in ("D_lo", "slope_fit", "D_hi"))
                 == est for r in rows), f"{label}: estimate differs by row")
    _require(est[0] <= est[1] <= est[2],
             f"{label}: slope_fit {est[1]} outside [{est[0]}, {est[2]}]")
    return est


def _levels_of(rows: list) -> list:
    return [int(r["n"]) for r in rows]


def check_dim(path: str, levels: range, q_list, closed=None,
              point_range=None) -> list:
    """`dim` table: ordered sandwiches, a consistent estimate per q.

    closed maps q to a closed-form D_q that must lie inside the interval;
    point_range bounds the slope_fit point.
    """
    rows = _rows(path)
    widths = []
    for q in q_list:
        sub = [r for r in rows if float(r["q"]) == q]
        _require(_levels_of(sub) == list(levels),
                 f"dim q={q}: levels {_levels_of(sub)}")
        d_lo, point, d_hi = _check_estimate(sub, "S_lower", "S_upper",
                                            f"dim q={q}")
        if closed is not None:
            _require(d_lo <= closed[q] <= d_hi,
                     f"dim q={q}: closed form {closed[q]} outside "
                     f"[{d_lo}, {d_hi}]")
        if point_range is not None:
            _require(point_range[0] <= point <= point_range[1],
                     f"dim q={q}: point {point} outside {point_range}")
        widths.append(d_hi - d_lo)
    _require(len(rows) == len(q_list) * len(levels), "dim: extra rows")
    return widths


def check_entropy(path: str, levels: range, point_min=None,
                  contains=None) -> list:
    """`entropy` table: ordered sandwiches and a consistent estimate."""
    rows = _rows(path)
    _require(_levels_of(rows) == list(levels),
             f"entropy: levels {_levels_of(rows)}")
    d_lo, point, d_hi = _check_estimate(rows, "H_lower", "H_upper",
                                        "entropy")
    if point_min is not None:
        _require(point >= point_min,
                 f"entropy: point {point} below {point_min}")
    if contains is not None:
        _require(d_lo <= contains <= d_hi,
                 f"entropy: {contains} outside [{d_lo}, {d_hi}]")
    return [d_hi - d_lo]


def check_hist(path: str) -> list:
    """Histogram CSV: lower <= upper per cell, sum lower <= 1 <= sum upper."""
    rows = _rows(path)
    _require(len(rows) > 0, "histogram: no cells")
    lower = [float(r["lower_mass"]) for r in rows]
    upper = [float(r["upper_mass"]) for r in rows]
    for k, (lo, up) in enumerate(zip(lower, upper)):
        _require(0.0 <= lo <= up + MASS_TOL,
                 f"histogram: cell {k} has lower {lo} upper {up}")
    _require(math.fsum(lower) <= 1.0 + MASS_TOL,
             f"histogram: total lower {math.fsum(lower)} above 1")
    _require(math.fsum(upper) >= 1.0 - MASS_TOL,
             f"histogram: total upper {math.fsum(upper)} below 1")
    return []


def check_fourier(path: str, sinc: bool = False) -> list:
    """|value| <= 1 + bound, bound <= tol, band maxima, optional sinc form.

    The sinc measure (r = 1/2, a = +-1) has transform sin(2 pi xi)/(2 pi xi)
    under the package's exp(i pi x xi) kernel.
    """
    rows = _rows(path)
    _require(len(rows) == FOURIER_BANDS * FOURIER_SAMPLES,
             f"fourier: {len(rows)} rows")
    xi = [float(r["xi"]) for r in rows]
    val = [float(r["abs_value"]) for r in rows]
    err = [float(r["error_bound"]) for r in rows]
    for x, v, e in zip(xi, val, err):
        _require(0.0 <= e <= FOURIER_TOL * (1.0 + 1e-12),
                 f"fourier: bound {e} above tol at xi={x}")
        # 1e-12 is the rounding allowance the package itself grants.
        _require(v <= 1.0 + e + 1e-12, f"fourier: |value| {v} at xi={x}")
        if sinc:
            target = abs(math.sin(2 * math.pi * x) / (2 * math.pi * x))
            _require(abs(v - target) <= 1e-6 + e,
                     f"fourier: sinc mismatch {abs(v - target)} at xi={x}")
    bands = _rows(path + ".bands.csv")
    _require(len(bands) == FOURIER_BANDS, f"fourier: {len(bands)} bands")
    for k, b in enumerate(bands):
        seg = val[k * FOURIER_SAMPLES:(k + 1) * FOURIER_SAMPLES]
        _require(float(b["band_max"]) == max(seg),
                 f"fourier: band {k} maximum differs from its samples")
        _require(float(b["fitted_sigma"]) >= 0.0, "fourier: negative sigma")
    return [2.0 * math.fsum(err) / len(err)]


def check_sweep(path: str, lo: float, hi: float) -> list:
    """Badness in [0, 1] and a multiple of 1/N; witness t in [1, 1/lam]."""
    rows = _rows(path)
    _require(len(rows) == SWEEP_STEPS, f"sweep: {len(rows)} rows")
    step = (hi - lo) / (SWEEP_STEPS - 1)
    for i, r in enumerate(rows):
        lam, bad, t = (float(r[k]) for k in ("parameter", "badness",
                                              "witness_t"))
        _require(abs(lam - (lo + i * step)) <= 1e-12,
                 f"sweep: row {i} parameter {lam}")
        _require(0.0 <= bad <= 1.0, f"sweep: badness {bad} at lam={lam}")
        _require(abs(bad * SWEEP_N - round(bad * SWEEP_N)) <= 1e-9,
                 f"sweep: badness {bad} is not a count over N")
        _require(1.0 <= t <= 1.0 / lam * (1.0 + 1e-12),
                 f"sweep: witness {t} outside [1, 1/lam]")
    return []


def check_ekcount(path: str, expected: tuple) -> list:
    """Counts equal the exact enumeration; rates are log2(count) / N."""
    rows = _rows(path)
    counts = tuple(int(r["count"]) for r in rows)
    _require(counts == expected, f"ekcount: counts {counts}")
    for r in rows:
        n, cnt, rate = int(r["N"]), int(r["count"]), float(r["log_count_over_N"])
        want = math.log2(cnt) / n if cnt > 0 else 0.0
        _require(abs(rate - want) <= 1e-12, f"ekcount: rate {rate} at N={n}")
    return []


def closed_form_dq(weights, ratio: float, q: float) -> float:
    """D_q = log2(sum p_i^q) / ((q - 1) log2 r), exact under separation."""
    return math.log2(sum(p ** q for p in weights)) / ((q - 1.0) * math.log2(ratio))


# ------------------------------------------------------------- job lists


def _job(workdir, name, argv, check, *args, suffixes=(), **kwargs) -> Job:
    """Job writing <name>.csv (plus <name>.csv<suffix> files) into workdir."""
    path = os.path.join(workdir, name + ".csv")
    return Job(name, argv + ["-o", path], [path] + [path + s for s in suffixes],
               functools.partial(check, path, *args, **kwargs))


def workload_jobs(name: str, pr: Params, workdir: str) -> list:
    """The jobs of one workload; documents and CSV files live in workdir."""
    docs = {stem: doc_path(workdir, stem) for stem in make_documents(pr)}
    job = functools.partial(_job, workdir)

    if name == "levels":
        qs = (2.0, 0.5)
        return [
            job("dim_separated",
                ["dim", "--ifs", docs["separated"], "--q", "2", "--q", "0.5",
                 "--levels", "6..19", "--extra-depth", "6"],
                check_dim, range(6, 20), qs,
                closed={q: closed_form_dq(pr.sep_w, 0.25, q) for q in qs}),
            job("entropy_generic",
                ["entropy", "--ifs", docs["generic"], "--levels", "6..13"],
                check_entropy, range(6, 14), point_min=0.97),
            # Hochman-Shmerkin: with an irrational rotation every projection
            # has dimension min(1, dim mu) = 1.
            job("entropy_rotating",
                ["entropy", "--ifs", docs["rotproj"], "--levels", "6..11"],
                check_entropy, range(6, 12), contains=1.0),
            job("project_rotating",
                ["project", "--ifs", docs["rot4"], "--beta", repr(pr.beta),
                 "--n", "11"],
                check_hist),
        ]

    if name == "convolve":
        return [
            job("dim_convolution",
                ["dim", "--ifs", docs["conv"], "--q", "2", "--levels", "6..16"],
                check_dim, range(6, 17), (2.0,), point_range=(0.93, 1.02)),
            job("convolve_unit",
                ["convolve", "--ifs", docs["c13"], "--other", docs["c14"],
                 "--u", "1.0", "--n", "14"],
                check_hist),
        ]

    if name == "scan":
        def fourier(name, doc, sinc=False):
            return job(name,
                       ["fourier", "--ifs", docs[doc], "--bands",
                        str(FOURIER_BANDS), "--samples-per-band",
                        str(FOURIER_SAMPLES), "--tol", repr(FOURIER_TOL),
                        "--seed", str(pr.seed)],
                       check_fourier, sinc=sinc, suffixes=(".bands.csv",))

        lo, hi = pr.sweep_lo, pr.sweep_lo + SWEEP_WIDTH
        return [
            fourier("fourier_golden", "golden"),
            fourier("fourier_sinc", "sinc", sinc=True),
            fourier("fourier_rotating", "rotproj"),
            # Fails at this commit: ConvolvedMeasure.ft reports bounds up to
            # about 2 tol, which FourierProfile rejects. Counted, not skipped.
            fourier("fourier_convolution", "conv"),
            job("sweep_translations",
                ["sweep", "translations", "--vary", "lam", "--lo", repr(lo),
                 "--hi", repr(hi), "--steps", str(SWEEP_STEPS),
                 "--N", str(SWEEP_N), "--c", "0.1", "--t-grid", "8192",
                 "--jobs", "1"],
                check_sweep, lo, hi),
            job("ekcount_translations",
                ["ekcount", "translations", "--theta", repr(1.0 / GOLDEN),
                 "--N", "12", "--c", "0.1", "--delta", "0.25"],
                check_ekcount, EKCOUNT_TRANSLATIONS),
            job("ekcount_convolutions",
                ["ekcount", "convolutions", "--theta1", "2.0", "--N", "20",
                 "--c", "0.1", "--delta", "0.25"],
                check_ekcount, EKCOUNT_CONVOLUTIONS),
        ]

    raise ValueError(f"unknown workload {name!r}")


def input_documents(jobs: list) -> list:
    """The measure documents the jobs read, each once."""
    return sorted({arg for job in jobs for arg in job.argv
                   if arg.endswith(".json")})


WORKLOADS = ("levels", "convolve", "scan")
JOB_NAMES = tuple(job.name for w in WORKLOADS
                  for job in workload_jobs(w, make_params(0), ""))
