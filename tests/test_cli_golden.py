"""Frozen CSV bytes of the histogram and check subcommands.

Each file under tests/golden/ is the exact output of one command below.
A refactor must leave these bytes alone; a change that moves them on
purpose rewrites them with `python tests/test_cli_golden.py` and says why.

fourier, dim and entropy are left out: their last digits come from
numpy's vectorised exp and log2, which can differ between CPUs.
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
}


def _write_docs(directory) -> dict:
    paths = {}
    for name, doc in DOCS.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths[name] = path
    return paths


def _run(name: str, paths: dict, out: str) -> int:
    argv = [a.format(**paths) for a in COMMANDS[name]]
    return main(argv + ["-o", out])


@pytest.fixture(scope="module")
def doc_paths(tmp_path_factory):
    return _write_docs(str(tmp_path_factory.mktemp("golden_docs")))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_bytes_match_golden(name, doc_paths, tmp_path):
    out = str(tmp_path / f"{name}.csv")
    assert _run(name, doc_paths, out) == 0
    with open(out, "rb") as fh:
        got = fh.read()
    with open(os.path.join(GOLDEN_DIR, f"{name}.csv"), "rb") as fh:
        want = fh.read()
    assert got == want, f"{name}: CSV bytes moved"


if __name__ == "__main__":
    # Rewrite every golden file from the current code.
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        docs = _write_docs(tmp)
        for cmd in sorted(COMMANDS):
            code = _run(cmd, docs, os.path.join(GOLDEN_DIR, f"{cmd}.csv"))
            if code != 0:
                sys.exit(f"{cmd} exited {code}")
