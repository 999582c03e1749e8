"""Command-line behavior: schemas, exit codes, output determinism."""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import selfsim
from selfsim.cli import _build_parser, main

C13 = {"ambient_dim": 1, "ratio": 1 / 3, "sign": 1,
       "translations": [0.0, 2 / 3], "weights": [0.5, 0.5], "label": "c13"}
C14 = {"ambient_dim": 1, "ratio": 0.25, "sign": 1,
       "translations": [0.0, 0.75], "label": "c14"}
GOLDEN = {"ambient_dim": 1, "ratio": (math.sqrt(5) - 1) / 2, "sign": 1,
          "translations": [-1.0, 1.0], "label": "bc_golden"}
FOUR = {"ambient_dim": 2, "ratio": 1 / 3, "alpha": 0.0,
        "translations": [[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3],
                         [2 / 3, 2 / 3]],
        "label": "four_corner"}
ROT = {"ambient_dim": 2, "ratio": 0.6, "alpha": 0.1,
       "translations": [[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]]}


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, doc in (("c13", C13), ("c14", C14), ("golden", GOLDEN),
                      ("four", FOUR), ("rot", ROT)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    conv = dict(C13)
    conv["derive"] = {"kind": "convolution", "u": 0.7, "other": "c14.json"}
    path = tmp_path / "conv.json"
    path.write_text(json.dumps(conv))
    paths["conv"] = str(path)
    return paths


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_dim_csv_schema(specs, tmp_path):
    out = tmp_path / "dim.csv"
    code = main(["dim", "--ifs", specs["c13"], "--q", "2",
                 "--levels", "6..12", "-o", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["q", "n", "S_lower", "S_upper", "slope_fit",
                      "D_lo", "D_hi"]
    assert len(rows) == 7
    truth = math.log(2) / math.log(3)
    d_lo, d_hi = float(rows[0][5]), float(rows[0][6])
    assert d_lo <= truth <= d_hi
    # S columns decrease with the level
    s_upper = [float(r[3]) for r in rows]
    assert s_upper == sorted(s_upper, reverse=True)


def test_dim_derived_document(specs, tmp_path):
    out = tmp_path / "dimconv.csv"
    code = main(["dim", "--ifs", specs["conv"], "--q", "2",
                 "--levels", "6..10", "-o", str(out)])
    assert code == 0
    _, rows = _read_csv(out)
    assert 0.0 < float(rows[-1][5]) <= 1.05


def test_entropy_csv(specs, tmp_path):
    out = tmp_path / "ent.csv"
    assert main(["entropy", "--ifs", specs["c13"], "--levels", "6..10",
                 "-o", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["n", "H_lower", "H_upper", "slope_fit", "D_lo", "D_hi"]
    assert all(float(r[1]) <= float(r[2]) for r in rows)


def test_fourier_csv_and_bands(specs, tmp_path):
    out = tmp_path / "f.csv"
    assert main(["fourier", "--ifs", specs["golden"], "--bands", "8",
                 "--samples-per-band", "8", "-o", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["xi", "abs_value", "error_bound"]
    assert all(float(r[1]) <= 1.0 + float(r[2]) for r in rows)
    bheader, brows = _read_csv(tmp_path / "f.csv.bands.csv")
    assert bheader == ["band_k", "band_max", "fitted_sigma"]
    assert len(brows) == 8


def test_project_csv(specs, tmp_path):
    out = tmp_path / "p.csv"
    assert main(["project", "--ifs", specs["four"], "--beta", "1.0",
                 "--n", "6", "-o", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["cell_index", "cell_left", "lower_mass", "upper_mass"]
    total_upper = sum(float(r[3]) for r in rows)
    assert total_upper >= 1.0 - 1e-9


def test_convolve_csv(specs, tmp_path):
    out = tmp_path / "cv.csv"
    assert main(["convolve", "--ifs", specs["c13"], "--other", specs["c14"],
                 "--u", "0.7", "--n", "7", "-o", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header[0] == "cell_index"
    lows = sum(float(r[2]) for r in rows)
    ups = sum(float(r[3]) for r in rows)
    assert lows <= 1.0 + 1e-9 <= ups + 1e-9
    # the derived document and --other build the same convolution
    out_doc = tmp_path / "cv_doc.csv"
    assert main(["convolve", "--ifs", specs["conv"], "--n", "7",
                 "-o", str(out_doc)]) == 0
    assert out_doc.read_bytes() == out.read_bytes()
    assert main(["convolve", "--ifs", specs["c13"], "--n", "7"]) == 2
    assert main(["convolve", "--ifs", specs["conv"], "--other", specs["c14"],
                 "--n", "7"]) == 2
    assert main(["convolve", "--ifs", specs["c13"], "--other", specs["conv"],
                 "--n", "7"]) == 2


def test_skipkeep_csv(specs, tmp_path):
    out_s = tmp_path / "sk.csv"
    assert main(["skipkeep", "--ifs", specs["c13"], "--k", "2", "--n", "6",
                 "-o", str(out_s)]) == 0
    out_k = tmp_path / "kk.csv"
    assert main(["skipkeep", "--ifs", specs["c13"], "--k", "2", "--n", "6",
                 "--part", "keep", "-o", str(out_k)]) == 0
    assert out_s.read_text() != out_k.read_text()
    # The keep factor expands no word, so a stride past the word budget
    # works for it; the skip factor and a bad part still fail, the part
    # before any word is expanded.
    deep = ["skipkeep", "--ifs", specs["c13"], "--k", "30", "--n", "6"]
    assert main(deep + ["--part", "keep", "-o", str(out_k)]) == 0
    assert main(deep + ["--part", "skip"]) == 3
    both = tmp_path / "both.json"
    both.write_text(json.dumps(dict(
        C13, derive={"kind": "skip_keep", "k": 30, "part": "both"})))
    assert main(["check", "--ifs", str(both)]) == 2


def test_ekscan_single_and_range(tmp_path):
    out = tmp_path / "e.csv"
    lam = f"{(math.sqrt(5) - 1) / 2!r}"
    assert main(["ekscan", "translations", "--lam", lam, "--N", "30",
                 "--c", "0.15", "-o", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["parameter", "badness", "witness_t"]
    assert float(rows[0][1]) == pytest.approx(28 / 30)
    out2 = tmp_path / "e2.csv"
    assert main(["sweep", "translations", "--vary", "lam", "--lo", "0.5",
                 "--hi", "0.7", "--steps", "4", "--N", "12", "--c", "0.1",
                 "--t-grid", "256", "-o", str(out2)]) == 0
    _, rows2 = _read_csv(out2)
    assert len(rows2) == 4
    assert [float(r[0]) for r in rows2] == pytest.approx(
        list(np.linspace(0.5, 0.7, 4)))


def test_ekcount_csv(tmp_path):
    out = tmp_path / "ec.csv"
    assert main(["ekcount", "convolutions", "--theta1", "2.0", "--N", "10",
                 "--c", "0.1", "--delta", "0", "-o", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["N", "count", "log_count_over_N"]
    assert [int(r[1]) for r in rows] == [3] * 10


def test_sweep_csv(tmp_path):
    out = tmp_path / "sw.csv"
    assert main(["sweep", "translations", "--vary", "lam", "--lo", "0.5",
                 "--hi", "0.8", "--steps", "5", "--N", "10", "--c", "0.1",
                 "--t-grid", "128", "-o", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 5


def test_check_csv(specs, tmp_path):
    out = tmp_path / "ck.csv"
    assert main(["check", "--ifs", specs["c13"], "-o", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["check_name", "status", "detail"]
    by_name = {r[0]: r[1] for r in rows}
    assert by_name["separation"] == "pass"
    assert by_name["sandwich"] == "pass"


def test_check_inconclusive_separation(tmp_path):
    doc = {"ambient_dim": 1, "ratio": 0.5, "sign": 1,
           "translations": [0.0, 0.5], "label": "leb"}
    path = tmp_path / "leb.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "ck.csv"
    assert main(["check", "--ifs", str(path), "-o", str(out)]) == 0
    _, rows = _read_csv(out)
    by_name = {r[0]: r[1] for r in rows}
    assert by_name["separation"] == "info"


def test_stdout_default(specs, capsys):
    assert main(["check", "--ifs", specs["c13"]]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("check_name,status,detail")


MALFORMED = [(C13, "ratio", "x"), (C13, "ratio", None), (C13, "sign", "x"),
             (C13, "translations", ["a", 1]),
             (FOUR, "translations", [[0.0, 0.0], [1.0]]),
             (C13, "weights", ["a", "b"]),
             (FOUR, "derive", {"kind": "projection", "beta": "x"}),
             (C13, "derive", {"kind": "skip_keep", "k": "x"}),
             (C13, "sign", -1.7),
             (C13, "derive", {"kind": "skip_keep", "k": 2.9}),
             (C13, "ambient_dim", True)]


def test_exit_codes(specs, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert main(["dim"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["dim", "--ifs", specs["c13"], "--levels", "banana"]) == 1
    assert main(["fourier", "--ifs", str(bad), "--bands", "5"]) == 2
    assert main(["dim", "--ifs", str(tmp_path / "missing.json")]) == 2
    assert main(["dim", "--ifs", specs["c13"], "--q", "1"]) == 2
    assert main(["dim", "--ifs", specs["c13"], "--levels", "6..10",
                 "--budget", "4"]) == 3
    assert main(["fourier", "--ifs", specs["golden"], "--bands", "5",
                 "--tol", "1e-16"]) == 4
    assert main(["project", "--ifs", specs["conv"], "--beta", "1.0"]) == 2
    assert main(["project", "--ifs", specs["c13"], "--beta", "1.0"]) == 2
    assert main(["skipkeep", "--ifs", specs["c13"], "--k", "3",
                 "--budget", "8"]) == 3
    # a field of the wrong type is an invalid document, not a crash
    for base, field, value in MALFORMED:
        bad.write_text(json.dumps(dict(base, **{field: value})))
        capsys.readouterr()
        assert main(["check", "--ifs", str(bad)]) == 2, (field, value)
        assert field in capsys.readouterr().err


def test_integral_float_ambient_dim(tmp_path):
    """"ambient_dim": 1.0 runs as 1 does, byte for byte (true is in
    MALFORMED)."""
    doc = tmp_path / "doc.json"
    outs = []
    for value in (1, 1.0):
        doc.write_text(json.dumps(dict(GOLDEN, ambient_dim=value)))
        out = tmp_path / f"ft_{value}.csv"
        assert main(["fourier", "--ifs", str(doc), "--bands", "2",
                     "--samples-per-band", "16", "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cyclic_other_references(tmp_path, capsys):
    """A derive.other path back to a document still being resolved, the
    document itself or the start of a chain, exits 2 naming it; nesting
    without a cycle, inline or by path, resolves and runs."""
    def write(name, base, other):
        (tmp_path / name).write_text(
            json.dumps(dict(base, derive={"kind": "convolution", "other": other})))
        return str(tmp_path / name)

    for start, named in ((write("self.json", C13, "self.json"), "self.json"),
                         (write("a.json", C13, write("b.json", C14, "a.json")), "a.json")):
        capsys.readouterr()
        assert main(["dim", "--ifs", start, "--levels", "4..5"]) == 2
        err = capsys.readouterr().err
        assert "cyclic" in err and named in err
    proj = dict(FOUR, derive={"kind": "projection", "beta": 1.0})
    (tmp_path / "proj.json").write_text(json.dumps(proj))
    for other in (proj, "proj.json"):
        assert main(["dim", "--ifs", write("nest.json", C13, other),
                     "--levels", "4..7", "-o", str(tmp_path / "nest.csv")]) == 0


def test_nested_other_paths_resolve_against_their_document(tmp_path, capsys):
    """An 'other' path is relative to the document that names it: in
    a.json -> sub/b.json -> c.json the last one is sub/c.json, and a
    sub/a.json named from sub/b.json is not the top a.json. Both chains
    then stop only because a convolution's factor must be a plain system."""
    (tmp_path / "sub").mkdir()

    def write(name, base, other=None):
        doc = dict(base) if other is None else dict(
            base, derive={"kind": "convolution", "other": other})
        (tmp_path / name).write_text(json.dumps(doc))
        return str(tmp_path / name)

    write("sub/b.json", C14, "c.json")
    write("sub/c.json", C13)
    start = write("a.json", C13, "sub/b.json")
    for inner in ("c.json", "a.json"):
        write("sub/b.json", C14, inner)
        write("sub/a.json", C14)
        capsys.readouterr()
        assert main(["dim", "--ifs", start, "--levels", "4..5"]) == 2
        err = capsys.readouterr().err
        assert "expected a plain system, got a convolution" in err, err


def test_out_of_memory_exits_3(specs, monkeypatch, capsys):
    """A MemoryError from a kernel exits 3 with a message, not a traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("selfsim.cli.decay_fit", exhausted)
    assert main(["fourier", "--ifs", specs["golden"], "--bands", "2"]) == 3
    assert "out of memory" in capsys.readouterr().err


# Each subcommand's option strings; adding or removing a setting shows here.
OPTIONS = {
    "dim": "--ifs --levels --extra-depth --guard --budget -o --out --q",
    "entropy": "--ifs --levels --extra-depth --guard --budget -o --out",
    "fourier": "--ifs --bands --samples-per-band --tol --band-ratio --xi0 "
               "--seed -o --out --band-out",
    "project": "--ifs --extra-depth --budget -o --out --beta --n",
    "convolve": "--ifs --extra-depth --guard --budget -o --out --other --u "
                "--n",
    "skipkeep": "--ifs --extra-depth --budget -o --out --k --part --n",
    "ekscan": "--N --c --t-grid --lam --u --theta --alpha --beta --theta1 "
              "--theta2 -o --out",
    "ekcount": "--N --c --delta --theta --theta1 -o --out",
    "sweep": "--vary --lo --hi --steps --jobs --N --c --t-grid --lam --u "
             "--theta --alpha --beta --theta1 --theta2 -o --out",
    "check": "--ifs --depth --n --extra-depth --budget -o --out",
}
# Settings that selected nothing and were removed.
REMOVED = [["fourier", "--ifs", "{golden}", "--bands", "2", "--xi-max", "8"],
           ["ekscan", "translations", "--lambda-range", "0.5:0.7:3"],
           ["ekscan", "projections", "--theta-range", "1.5:2:3",
            "--alpha", "1.0"],
           ["ekscan", "convolutions", "--theta1-range", "1.5:2:3",
            "--theta2", "3"],
           ["ekscan", "translations", "--lam", "0.6", "--u-range", "1:2:3"],
           ["ekscan", "translations", "--lam", "0.6", "--jobs", "2"],
           ["project", "--ifs", "{rot}", "--beta", "1", "--guard", "2"],
           ["skipkeep", "--ifs", "{c13}", "--k", "2", "--guard", "2"]]


def test_option_surface_is_frozen(specs):
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: " ".join(s for a in sp._actions if a.dest != "help"
                          for s in a.option_strings)
           for name, sp in sub.choices.items()}
    assert got == OPTIONS
    for argv in REMOVED:
        assert main([a.format(**specs) for a in argv]) == 1, argv


# --xi0 1e307 is finite up to the last band edge, but its truncation base
# pi max|a| xi / (1 - r) overflows.
NON_FINITE = [["fourier", "--ifs", "{golden}", "--bands", "2", "--xi0", "1e308"],
              ["fourier", "--ifs", "{golden}", "--bands", "2", "--xi0", "1e307"],
              ["fourier", "--ifs", "{golden}", "--bands", "2", "--xi0", "nan"],
              ["fourier", "--ifs", "{golden}", "--bands", "2", "--tol", "nan"],
              ["fourier", "--ifs", "{golden}", "--bands", "2",
               "--band-ratio", "inf"],
              ["project", "--ifs", "{rot}", "--beta", "nan", "--n", "4"],
              ["project", "--ifs", "{rot}", "--beta", "inf", "--n", "4"],
              ["convolve", "--ifs", "{c13}", "--other", "{c14}", "--u", "nan"],
              ["convolve", "--ifs", "{c13}", "--other", "{c14}", "--u", "inf"],
              ["ekcount", "convolutions", "--theta1", "inf"],
              ["ekcount", "translations", "--theta", "nan"],
              ["ekscan", "translations", "--lam", "0.6", "--u", "nan"],
              ["dim", "--ifs", "{c13}", "--q", "nan"],
              ["dim", "--ifs", "{c13}", "--q=inf"]]


@pytest.mark.parametrize("argv", NON_FINITE, ids=" ".join)
def test_non_finite_parameters_exit_2(argv, specs, capsys):
    assert main([a.format(**specs) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_fourier_convolution(specs, tmp_path):
    """Convolution documents split tol between the two factor transforms."""
    out = tmp_path / "fc.csv"
    assert main(["fourier", "--ifs", specs["conv"], "--bands", "6",
                 "--samples-per-band", "8", "--tol", "1e-12",
                 "-o", str(out)]) == 0
    _, rows = _read_csv(out)
    assert all(float(r[2]) <= 1e-12 for r in rows)
    assert main(["fourier", "--ifs", specs["conv"], "--bands", "5",
                 "--tol", "1e-15"]) == 4


def test_help_exits_zero():
    assert main(["--help"]) == 0


# Subcommands run in one process, a usage error and a bad spec among them.
IN_ONE_PROCESS = [["check", "--ifs", "{c13}", "--n", "6"],
                  ["dim", "--ifs", "{c13}", "--levels", "banana"],
                  ["project", "--ifs", "{four}", "--beta", "1.0", "--n", "5"],
                  ["nonsense"],
                  ["entropy", "--ifs", "{golden}", "--levels", "4..7"],
                  ["dim", "--ifs", "{c13}", "--q", "1"],
                  ["ekcount", "translations", "--N", "6", "--theta", "1.5"]]


def test_parser_reuse_matches_fresh_processes(specs, capsys):
    """The parser is built once per process; later calls, after a usage
    error too, write the bytes and exit codes of fresh-process runs."""
    assert _build_parser() is _build_parser()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(selfsim.__file__)))
    for argv in IN_ONE_PROCESS:
        argv = [a.format(**specs) for a in argv]
        code = main(argv)
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "selfsim.cli", *argv], env=env,
                               capture_output=True, text=True)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
