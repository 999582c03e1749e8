"""Command-line front end.

Every subcommand reads a JSON measure document (where one is needed),
runs the corresponding pipeline, and writes CSV with a header row and
17-significant-digit floats. Identical arguments and seed give byte
identical output; worker counts change wall time only.

Exit codes: 0 success, 1 usage, 2 bad spec or parameters, 3 budget or memory
exceeded, 4 precision exhausted.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import fields

import numpy as np

from .dimension import estimate_D1, estimate_Dq, table_from_histograms
from .ekscan import _KIND_PARAMS, _KINDS, EkSpec, ek_badness, ek_count_sequences, ek_sweep
from .errors import BudgetError, SelfsimError, SpecError, UsageError
from .fourier import decay_fit
from .ifs import check_strong_separation, entropy, similarity_dimension
from .transforms import (ConvolvedMeasure, SelfSimilarMeasure,
                         load_measure_spec, project_measure, skip_keep_measure)


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _emit(path: str | None, header: list, columns: list) -> None:
    """Write a CSV table from one sequence per column, all of one length.

    Each column keeps the type of its first element: str and int print as
    they are, anything else as %.17g. The columns are interleaved into one
    flat list and formatted with one % operation.
    """
    text = ",".join(header) + "\n"
    rows = len(columns[0])
    if rows:
        fmt = ",".join("%s" if isinstance(col[0], (str, int)) else "%.17g"
                       for col in columns) + "\n"
        flat = [None] * (rows * len(columns))
        for j, col in enumerate(columns):
            flat[j::len(columns)] = col
        text += (fmt * rows) % tuple(flat)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_levels(text: str):
    parts = text.split("..")
    if len(parts) != 2:
        raise UsageError(f"levels must look like 6..20, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"levels must be integers: {text!r}") from exc
    if lo < 1 or hi < lo:
        raise UsageError(f"need 1 <= n_min <= n_max, got {text!r}")
    return lo, hi


def _histogram(measure, n: int, args):
    """The level-n histogram; --guard is passed on where the subcommand has it."""
    guard = {"guard": args.guard} if "guard" in args else {}
    return measure.histogram(n, extra_depth=args.extra_depth,
                             word_budget=args.budget, **guard)


def _measure_levels(measure, n_min: int, n_max: int, args):
    return [_histogram(measure, n, args) for n in range(n_min, n_max + 1)]


def _emit_histogram(args, measure) -> None:
    hist = _histogram(measure, args.n, args)
    axes = [""] if hist.ambient_dim == 1 else ["_x", "_y"]
    header = ([f"cell_index{a}" for a in axes] + [f"cell_left{a}" for a in axes]
              + ["lower_mass", "upper_mass"])
    idx = hist.indices.reshape(hist.num_cells, -1).T
    _emit(args.out, header,
          [k.tolist() for k in idx] + [(k * hist.cell_width).tolist() for k in idx]
          + [hist.lower.tolist(), hist.upper.tolist()])


def _cmd_dim(args) -> None:
    measure = load_measure_spec(args.ifs)
    n_min, n_max = _parse_levels(args.levels)
    q_list = args.q if args.q else [2.0]
    for q in q_list:
        if abs(q - 1.0) < 1e-12 or q <= 0:
            raise SpecError("q must be positive and not 1; use the entropy "
                            "subcommand for q = 1")
        if not math.isfinite(q):
            raise SpecError(f"q must be finite, got {q}")
    hists = _measure_levels(measure, n_min, n_max, args)
    table = table_from_histograms(hists, q_list)
    header = ["q", "n", "S_lower", "S_upper", "slope_fit", "D_lo", "D_hi"]
    columns = [[] for _ in header]
    m = len(table.levels)
    for q in q_list:
        est = estimate_Dq(table, q)
        j = table.q_index(q)
        for col, values in zip(columns, (
                [q] * m, table.levels, table.s_lower[:, j].tolist(),
                table.s_upper[:, j].tolist(), [est.point] * m, [est.lo] * m,
                [est.hi] * m)):
            col += values
    _emit(args.out, header, columns)


def _cmd_entropy(args) -> None:
    measure = load_measure_spec(args.ifs)
    n_min, n_max = _parse_levels(args.levels)
    hists = _measure_levels(measure, n_min, n_max, args)
    table = table_from_histograms(hists, [2.0])
    est = estimate_D1(table)
    header = ["n", "H_lower", "H_upper", "slope_fit", "D_lo", "D_hi"]
    m = len(table.levels)
    _emit(args.out, header,
          [table.levels, table.h_lower.tolist(), table.h_upper.tolist(),
           [est.point] * m, [est.lo] * m, [est.hi] * m])


def _cmd_fourier(args) -> None:
    measure = load_measure_spec(args.ifs)
    profile = decay_fit(measure, args.bands,
                        samples_per_band=args.samples_per_band, tol=args.tol,
                        band_ratio=args.band_ratio, xi0=args.xi0,
                        seed=args.seed)
    header = ["xi", "abs_value", "error_bound"]
    _emit(args.out, header, [profile.xi.tolist(), profile.abs_value.tolist(),
                             profile.error_bound.tolist()])
    band_path = args.band_out
    if band_path is None and args.out is not None:
        band_path = args.out + ".bands.csv"
    bands = len(profile.band_max)
    _emit(band_path, ["band_k", "band_max", "fitted_sigma"],
          [list(range(bands)), profile.band_max.tolist(),
           [profile.sigma_hat] * bands])


def _cmd_project(args) -> None:
    _emit_histogram(args, project_measure(load_measure_spec(args.ifs),
                                          args.beta))


def _cmd_convolve(args) -> None:
    measure = load_measure_spec(args.ifs)
    if args.other is not None:
        if not isinstance(measure, SelfSimilarMeasure):
            raise SpecError("give either a derived document or --other, "
                            "not both")
        measure = ConvolvedMeasure(measure, load_measure_spec(args.other),
                                   args.u)
    elif not isinstance(measure, ConvolvedMeasure):
        raise SpecError("document has no convolution derivation; pass --other")
    _emit_histogram(args, measure)


def _cmd_skipkeep(args) -> None:
    _emit_histogram(args, skip_keep_measure(load_measure_spec(args.ifs),
                                            args.k, args.part,
                                            word_budget=args.budget))


def _ek_fixed_params(args, exclude: str | None = None) -> dict:
    """The scanner parameters that are set, less exclude; EkSpec refuses
    those args.kind does not read unless they keep their defaults."""
    return {f.name: getattr(args, f.name) for f in _ek_param_fields()
            if f.name != exclude and getattr(args, f.name) is not None}


def _cmd_ekscan(args) -> None:
    spec = EkSpec(kind=args.kind, N=args.N, c=args.c, t_grid=args.t_grid,
                  **_ek_fixed_params(args))
    rep = ek_badness(spec)
    _emit(args.out, ["parameter", "badness", "witness_t"],
          [[getattr(spec, _KIND_PARAMS[args.kind][0])], [rep.badness],
           [rep.witness_t]])


def _cmd_ekcount(args) -> None:
    rep = ek_count_sequences(args.kind, args.N, args.c, args.delta,
                             theta=args.theta, theta1=args.theta1)
    _emit(args.out, ["N", "count", "log_count_over_N"],
          [rep.ns, rep.counts, rep.rates])


def _cmd_sweep(args) -> None:
    fixed = _ek_fixed_params(args, exclude=args.vary)
    rows = ek_sweep(args.kind, fixed, args.vary, args.lo, args.hi, args.steps,
                    args.N, args.c, t_grid=args.t_grid, jobs=args.jobs)
    _emit(args.out, ["parameter", "badness", "witness_t"], list(zip(*rows)))


def _cmd_check(args) -> None:
    rows = []
    measure = load_measure_spec(args.ifs)
    rows.append(("parse", "pass",
                 f"kind={measure.kind}; label={measure.label or '(none)'}"))
    if isinstance(measure, SelfSimilarMeasure):
        ifs, p = measure.ifs, measure.p
        wsum = float(np.sum(p))
        rows.append(("weights", "pass" if abs(wsum - 1.0) <= 1e-12 else "fail",
                     f"sum={_fmt(wsum)}"))
        cert = check_strong_separation(ifs, args.depth,
                                       word_budget=args.budget)
        if cert.separated:
            detail = f"separated at depth {cert.depth}"
            status = "pass"
        else:
            detail = (f"inconclusive at depth {cert.depth}; "
                      f"overlap witness {cert.overlap}")
            status = "info"
        rows.append(("separation", status, detail))
        rows.append(("sim_dim", "info",
                     _fmt(similarity_dimension(ifs, p))))
        rows.append(("entropy", "info", _fmt(entropy(p))))
    hist = _histogram(measure, args.n, args)
    t_lo, t_up = hist.total_lower(), hist.total_upper()
    ok = (t_lo <= 1.0 + 1e-9) and (t_up >= 1.0 - 1e-9)
    rows.append(("sandwich", "pass" if ok else "fail",
                 f"n={args.n}; lower={_fmt(t_lo)}; upper={_fmt(t_up)}"))
    _emit(args.out, ["check_name", "status", "detail"], list(zip(*rows)))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sp, levels_default=None, guard=True):
    sp.add_argument("--ifs", required=True, help="measure document (JSON)")
    if levels_default is not None:
        sp.add_argument("--levels", default=levels_default,
                        help="dyadic level range, e.g. 6..20")
    sp.add_argument("--extra-depth", type=int, default=4)
    if guard:
        sp.add_argument("--guard", type=int, default=argparse.SUPPRESS,
                        help="extra levels for convolution factor histograms")
    sp.add_argument("--budget", type=int, default=None,
                    help="word budget override")
    sp.add_argument("-o", "--out", default=None, help="output CSV path")


def _ek_param_fields() -> list:
    """The EkSpec fields some scanner kind reads, in field order."""
    read = set().union(*_KIND_PARAMS.values())
    return [f for f in fields(EkSpec) if f.name in read]


def _add_ek_params(sp):
    sp.add_argument("--N", type=int, default=30)
    sp.add_argument("--c", type=float, default=0.1)
    sp.add_argument("--t-grid", type=int, default=4096)
    for f in _ek_param_fields():
        sp.add_argument(f"--{f.name}", type=float, default=f.default)
    sp.add_argument("-o", "--out", default=None)


@functools.cache
def _build_parser() -> _Parser:
    """The CLI parser, built on first use and reused by later calls."""
    parser = _Parser(prog="selfsim",
                     description="self-similar measure exploration")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("dim", help="L^q dimension estimate")
    _add_common(sp, levels_default="6..20")
    sp.add_argument("--q", action="append", type=float, default=None)
    sp.set_defaults(func=_cmd_dim)

    sp = sub.add_parser("entropy", help="entropy dimension estimate")
    _add_common(sp, levels_default="6..14")
    sp.set_defaults(func=_cmd_entropy)

    sp = sub.add_parser("fourier", help="transform sampling and decay fit")
    sp.add_argument("--ifs", required=True)
    sp.add_argument("--bands", type=int, required=True)
    sp.add_argument("--samples-per-band", type=int, default=64)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--band-ratio", type=float, default=2.0)
    sp.add_argument("--xi0", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--out", default=None)
    sp.add_argument("--band-out", default=None)
    sp.set_defaults(func=_cmd_fourier)

    sp = sub.add_parser("project", help="histogram of a projected measure")
    _add_common(sp, guard=False)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--n", type=int, default=10)
    sp.set_defaults(func=_cmd_project)

    sp = sub.add_parser("convolve", help="histogram of a convolution")
    _add_common(sp)
    sp.add_argument("--other", default=None)
    sp.add_argument("--u", type=float, default=1.0)
    sp.add_argument("--n", type=int, default=12)
    sp.set_defaults(func=_cmd_convolve)

    sp = sub.add_parser("skipkeep", help="histogram of a digit-split factor")
    _add_common(sp, guard=False)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--part", choices=("skip", "keep"), default="skip")
    sp.add_argument("--n", type=int, default=10)
    sp.set_defaults(func=_cmd_skipkeep)

    sp = sub.add_parser("ekscan", help="exceptional-parameter badness scan")
    sp.add_argument("kind", choices=_KINDS)
    _add_ek_params(sp)
    sp.set_defaults(func=_cmd_ekscan)

    sp = sub.add_parser("ekcount", help="admissible sequence counting")
    sp.add_argument("kind", choices=("translations", "convolutions"))
    sp.add_argument("--N", type=int, default=15)
    sp.add_argument("--c", type=float, default=0.1)
    sp.add_argument("--delta", type=float, default=0.0)
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--theta1", type=float, default=None)
    sp.add_argument("-o", "--out", default=None)
    sp.set_defaults(func=_cmd_ekcount)

    sp = sub.add_parser("sweep", help="badness across a parameter grid")
    sp.add_argument("kind", choices=_KINDS)
    sp.add_argument("--vary", required=True,
                    choices=[f.name for f in _ek_param_fields()])
    sp.add_argument("--lo", type=float, required=True)
    sp.add_argument("--hi", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=1)
    _add_ek_params(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("check", help="certification and invariant suite")
    sp.add_argument("--ifs", required=True)
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--extra-depth", type=int, default=4)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("-o", "--out", default=None)
    sp.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SelfsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        print("error: out of memory; lower the level, depth, grid or sample count",
              file=sys.stderr)
        return BudgetError.exit_code


if __name__ == "__main__":
    sys.exit(main())
