"""Frozen CSV bytes of the histogram, check, fourier and scan subcommands.

Each file under tests/golden/ is the exact output of one command below
(fourier commands also write their band table to <name>_bands.csv).
A refactor must leave these bytes alone; a change that moves them on
purpose rewrites them with `python tests/test_cli_golden.py` and says why.

dim and entropy are left out: their last digits come from numpy's
vectorised log2, which can differ between CPUs. The fourier files depend
on numpy's vectorised cos, sin and exp in the same way; they were written
with numpy 2.4.6 on x86-64 and pin those bits for refactors of the
transform, so another numpy build or CPU may need them rewritten.
"""

import json
import math
import os
import sys

import pytest

from selfsim.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_G = (math.sqrt(5.0) - 1.0) / 2.0
_CORNERS = [[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3], [2 / 3, 2 / 3]]
DOCS = {
    "c13": {"ambient_dim": 1, "ratio": 1 / 3, "sign": 1,
            "translations": [0.0, 2 / 3], "label": "c13"},
    "c14": {"ambient_dim": 1, "ratio": 0.25, "sign": 1,
            "translations": [0.0, 0.75], "label": "c14"},
    "golden": {"ambient_dim": 1, "ratio": _G, "sign": 1,
               "translations": [-1.0, 1.0], "label": "bc"},
    "neg": {"ambient_dim": 1, "ratio": 0.4, "sign": -1,
            "translations": [0.0, 0.6], "weights": [0.3, 0.7]},
    "rot": {"ambient_dim": 2, "ratio": 0.6, "alpha": 0.1,
            "translations": [[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]]},
    "rotfour": {"ambient_dim": 2, "ratio": 1 / 3, "alpha": 0.25,
                "translations": _CORNERS, "label": "rf"},
    "rotover": {"ambient_dim": 2, "ratio": 0.7, "alpha": 0.125,
                "translations": _CORNERS},
    "product": {"ambient_dim": 1, "ratio": 1 / 3, "sign": 1,
                "translations": [0.0, 2 / 3],
                "derive": {"kind": "product", "other": "c13.json"}},
    "negproduct": {"ambient_dim": 1, "ratio": 0.4, "sign": -1,
                   "translations": [0.0, 0.6], "weights": [0.3, 0.7],
                   "derive": {"kind": "product", "other": {
                       "ambient_dim": 1, "ratio": 0.4, "sign": -1,
                       "translations": [0.0, 0.5, 0.6]}}},
    "conv": {"ambient_dim": 1, "ratio": 1 / 3, "sign": 1,
             "translations": [0.0, 2 / 3],
             "derive": {"kind": "convolution", "other": "c14.json", "u": 0.7}},
    # Golden Bernoulli convolutions of sign -1 in both factors: their
    # product is the half-turn (alpha = 1/2) system on (+-1, +-1).
    "halfturn": {"ambient_dim": 1, "ratio": _G, "sign": -1,
                 "translations": [-1.0, 1.0],
                 "derive": {"kind": "product", "other": {
                     "ambient_dim": 1, "ratio": _G, "sign": -1,
                     "translations": [-1.0, 1.0]}}},
    "sinc": {"ambient_dim": 1, "ratio": 0.5, "sign": 1,
             "translations": [-1.0, 1.0], "label": "sinc"},
    # The four-corner set turned by the golden fraction, seen along 1 rad.
    "rotproj": {"ambient_dim": 2, "ratio": 1 / 3, "alpha": _G,
                "translations": _CORNERS, "weights": [0.4, 0.3, 0.2, 0.1],
                "derive": {"kind": "projection", "beta": 1.0}},
}

# name -> argv, with {doc} standing for the path of a document above.
COMMANDS = {
    "project_rotating": ["project", "--ifs", "{rotfour}", "--beta", "1.0",
                         "--n", "7", "--extra-depth", "2"],
    "project_rotating_overlap": ["project", "--ifs", "{rot}", "--beta", "0.3",
                                 "--n", "6", "--extra-depth", "1"],
    "project_product": ["project", "--ifs", "{product}", "--beta", "0.5",
                        "--n", "8"],
    "project_half_turn_product": ["project", "--ifs", "{negproduct}",
                                  "--beta", "1.0", "--n", "6",
                                  "--extra-depth", "2"],
    "convolve_other": ["convolve", "--ifs", "{c13}", "--other", "{c14}",
                       "--u", "0.7", "--n", "8"],
    "convolve_document": ["convolve", "--ifs", "{conv}", "--n", "7",
                          "--guard", "2"],
    "convolve_negative": ["convolve", "--ifs", "{golden}", "--other", "{neg}",
                          "--u", "-1.3", "--n", "7"],
    "skipkeep_skip": ["skipkeep", "--ifs", "{c13}", "--k", "3", "--n", "7"],
    "skipkeep_keep_negative": ["skipkeep", "--ifs", "{neg}", "--k", "3",
                               "--part", "keep", "--n", "7"],
    "skipkeep_rotating": ["skipkeep", "--ifs", "{rotfour}", "--k", "2",
                          "--n", "5", "--extra-depth", "1"],
    "check_overlap_1d": ["check", "--ifs", "{golden}", "--depth", "6"],
    "check_overlap_2d": ["check", "--ifs", "{rotover}", "--depth", "4",
                         "--n", "4", "--extra-depth", "0"],
    # The factor histograms of these two merge overlapping words: the golden
    # system in 1D, its half-turn product in 2D.
    "convolve_golden_merging": ["convolve", "--ifs", "{golden}", "--other",
                                "{golden}", "--u", "1.0", "--n", "7"],
    "project_half_turn_golden_merging": ["project", "--ifs", "{halfturn}",
                                         "--beta", "1.0", "--n", "6",
                                         "--extra-depth", "2"],
    "fourier_golden": ["fourier", "--ifs", "{golden}", "--bands", "8",
                       "--samples-per-band", "48", "--tol", "1e-12",
                       "--seed", "3"],
    "fourier_sinc": ["fourier", "--ifs", "{sinc}", "--bands", "8",
                     "--samples-per-band", "48", "--tol", "1e-12",
                     "--seed", "5"],
    "fourier_rotating": ["fourier", "--ifs", "{rotproj}", "--bands", "8",
                         "--samples-per-band", "48", "--tol", "1e-12",
                         "--seed", "2"],
    "fourier_convolution": ["fourier", "--ifs", "{conv}", "--bands", "6",
                            "--samples-per-band", "48", "--tol", "1e-10"],
    "sweep_translations": ["sweep", "translations", "--vary", "lam",
                           "--lo", "0.55", "--hi", "0.65", "--steps", "24",
                           "--N", "24", "--c", "0.1", "--t-grid", "2048",
                           "--jobs", "1"],
    "sweep_translations_u": ["sweep", "translations", "--vary", "u",
                             "--lo", "0.5", "--hi", "2.5", "--steps", "12",
                             "--lam", "0.62", "--N", "20", "--t-grid", "1024",
                             "--jobs", "1"],
    "sweep_projections": ["sweep", "projections", "--vary", "theta",
                          "--lo", "1.5", "--hi", "2.5", "--steps", "12",
                          "--alpha", "1.0", "--beta", "0.3", "--N", "20",
                          "--t-grid", "1024", "--jobs", "1"],
    "sweep_convolutions": ["sweep", "convolutions", "--vary", "theta1",
                           "--lo", "1.6", "--hi", "2.4", "--steps", "12",
                           "--theta2", "3.0", "--u", "0.7", "--N", "20",
                           "--t-grid", "1024", "--jobs", "1"],
    "ekcount_translations": ["ekcount", "translations", "--theta",
                             repr(1.0 / _G), "--N", "10", "--c", "0.1",
                             "--delta", "0.25"],
    "ekcount_convolutions": ["ekcount", "convolutions", "--theta1", "2.0",
                             "--N", "16", "--c", "0.1", "--delta", "0.25"],
}


def _write_docs(directory) -> dict:
    paths = {}
    for name, doc in DOCS.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths[name] = path
    return paths


def _outputs(name: str, directory: str) -> list:
    """The files a command writes: <name>.csv, plus <name>_bands.csv for fourier."""
    names = [f"{name}.csv"]
    if COMMANDS[name][0] == "fourier":
        names.append(f"{name}_bands.csv")
    return [os.path.join(directory, n) for n in names]


def _run(name: str, paths: dict, directory: str) -> int:
    argv = [a.format(**paths) for a in COMMANDS[name]]
    outs = _outputs(name, directory)
    argv += ["-o", outs[0]]
    if len(outs) > 1:
        argv += ["--band-out", outs[1]]
    return main(argv)


@pytest.fixture(scope="module")
def doc_paths(tmp_path_factory):
    return _write_docs(str(tmp_path_factory.mktemp("golden_docs")))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_bytes_match_golden(name, doc_paths, tmp_path):
    assert _run(name, doc_paths, str(tmp_path)) == 0
    for out, golden in zip(_outputs(name, str(tmp_path)),
                           _outputs(name, GOLDEN_DIR)):
        with open(out, "rb") as fh:
            got = fh.read()
        with open(golden, "rb") as fh:
            want = fh.read()
        assert got == want, f"{os.path.basename(golden)}: CSV bytes moved"


if __name__ == "__main__":
    # Rewrite every golden file from the current code.
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        docs = _write_docs(tmp)
        for cmd in sorted(COMMANDS):
            code = _run(cmd, docs, GOLDEN_DIR)
            if code != 0:
                sys.exit(f"{cmd} exited {code}")
