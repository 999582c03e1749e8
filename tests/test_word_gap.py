"""word_gap: the proven spacing of partial sums, and the merge probe and
separation scan it lets histogram() and check_strong_separation skip."""

import importlib
import importlib.util
import math
import os
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfsim import (BudgetError, HomogeneousIfs, Similarity,
                     check_strong_separation, cylinder_words, dyadic_depth,
                     histogram, load_measure_spec, project_ifs, uniform_weights)
from selfsim.cli import main
from selfsim.ifs import centre_error, ifs_from_json, word_gap

from test_cli_golden import COMMANDS, DOCS, _write_docs

# selfsim.histogram is the function; the modules are reached by name.
HISTOGRAM = importlib.import_module("selfsim.histogram")
IFS = importlib.import_module("selfsim.ifs")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_G = (math.sqrt(5.0) - 1.0) / 2.0
_CORNERS = np.array([[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3], [2 / 3, 2 / 3]])
SEP3 = HomogeneousIfs(1, Similarity(ratio=0.25, sign=1), np.array([0.0, 0.375, 0.75]))
ROT4 = HomogeneousIfs(2, Similarity(ratio=1 / 3, alpha=_G), _CORNERS)
C13 = HomogeneousIfs(1, Similarity(ratio=1 / 3, sign=1), np.array([0.0, 2 / 3]))
C14 = HomogeneousIfs(1, Similarity(ratio=0.25, sign=1), np.array([0.0, 0.75]))
# r = 1/4, translations on a 3 x 3 grid of step 0.375.
NINE = HomogeneousIfs(2, Similarity(ratio=0.25, alpha=0.0),
                      np.array([[0.375 * i, 0.375 * j] for i in range(3) for j in range(3)]))
GENERIC = project_ifs(HomogeneousIfs(2, Similarity(ratio=1 / 3, alpha=0.0), _CORNERS),
                      uniform_weights(4), 1.0)[0]
GOLDEN = HomogeneousIfs(1, Similarity(ratio=_G, sign=1), np.array([-1.0, 1.0]))


def _no_gap(ifs):
    return -math.inf


# ------------------------------------------------------------- soundness


@st.composite
def _gapped_systems(draw):
    """1D systems of either sign and planar rotating ones with word_gap > 0:
    translations near distinct points of a small grid, scaled."""
    dim = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(2, 4 if dim == 1 else 3))
    ratio = draw(st.floats(0.03, 0.4))
    scale = draw(st.floats(0.1, 4.0))
    jitter = st.floats(-0.15, 0.15)
    if dim == 1:
        sim = Similarity(ratio=ratio, sign=draw(st.sampled_from([-1, 1])))
        slots = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m, unique=True))
        a = [scale * (s + draw(jitter)) for s in slots]
    else:
        sim = Similarity(ratio=ratio, alpha=draw(st.floats(0.0, 0.999)))
        slots = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              min_size=m, max_size=m, unique=True))
        a = [[scale * (x + draw(jitter)), scale * (y + draw(jitter))] for x, y in slots]
    ifs = HomogeneousIfs(dim, sim, np.array(a))
    assume(word_gap(ifs) > 0.0)
    return ifs


def _exact_levels(ifs, depth):
    """Exact partial sums of every word of each length up to depth, in the
    row order of cylinder_words: Fractions in 1D; in 2D mpmath at the
    working precision, T^j being r^j times the rotation by 2 pi alpha j,
    with the float parameters taken exactly."""
    if ifs.ambient_dim == 1:
        lam = Fraction(ifs.lam)
        terms = [[lam ** j * Fraction(float(x)) for x in ifs.translations]
                 for j in range(depth)]
        sums = [Fraction(0)]
    else:
        r, alpha = mpmath.mpf(ifs.ratio), mpmath.mpf(ifs.map.alpha)
        terms = []
        for j in range(depth):
            c = r ** j * mpmath.cos(2 * mpmath.pi * alpha * j)
            s = r ** j * mpmath.sin(2 * mpmath.pi * alpha * j)
            terms.append([mpmath.matrix([c * x - s * y, s * x + c * y])
                          for x, y in ifs.translations.tolist()])
        sums = [mpmath.matrix([0, 0])]
    levels = []
    for step in terms:
        sums = [c + t for c in sums for t in step]
        levels.append(sums)
    return levels


def _exact(x):
    return mpmath.mpf(x.numerator) / x.denominator


@settings(max_examples=40, deadline=None)
@given(ifs=_gapped_systems())
def test_word_gap_and_centre_error_hold_exactly(ifs):
    """Distinct partial sums of every length d <= 6 lie r^(d-1) g apart, and
    the float centres of cylinder_words lie within centre_error of them on
    every axis, in exact arithmetic (mpmath at 50 digits in the plane)."""
    g = word_gap(ifs)
    with mpmath.workdps(50):
        for d, exact in enumerate(_exact_levels(ifs, 6), start=1):
            bound = Fraction(ifs.ratio) ** (d - 1) * Fraction(g)
            err = Fraction(centre_error(ifs, d))
            centres = cylinder_words(ifs, uniform_weights(ifs.m), d)[0]
            if ifs.ambient_dim == 1:
                ordered = sorted(exact)
                assert min(b - a for a, b in zip(ordered, ordered[1:])) >= bound
                assert max(abs(Fraction(float(f)) - e)
                           for f, e in zip(centres, exact)) <= err
                continue
            assert max(abs(mpmath.mpf(float(f)) - e)
                       for row, point in zip(centres, exact)
                       for f, e in zip(row, point)) <= _exact(err)
            # Pairs far apart in float pass by a wide margin; the others are
            # measured in mpmath.
            approx = np.array([[float(v) for v in point] for point in exact])
            dist = np.hypot(*(approx[:, None] - approx[None, :]).transpose(2, 0, 1))
            near = np.triu(dist < 2.0 * float(bound) + 1e-9, 1)
            for i, k in zip(*np.nonzero(near)):
                assert mpmath.norm(exact[i] - exact[k]) >= _exact(bound)


def test_word_gap_of_known_systems():
    """g of the bench's separated systems and of the nine-map system, from
    below; the generic projection and the golden system have g < 0."""
    rot_g = 2 / 3 - math.sqrt(2.0) / 3
    nine_g = 0.375 - 0.25 * math.sqrt(2.0)
    for ifs, g in ((SEP3, 0.125), (C13, 1 / 3), (C14, 0.5), (ROT4, rot_g), (NINE, nine_g)):
        assert g - 1e-10 < word_gap(ifs) < g
    assert word_gap(NINE) == pytest.approx(0.0214, abs=1e-4)
    for ifs in (GENERIC, GOLDEN):
        assert word_gap(ifs) < 0.0


# ------------------------------------------------- histograms and the probe


def _counted_probe(mp):
    """Count the rows of each _merge_close_points call histogram() makes."""
    calls, probe = [], HISTOGRAM._merge_close_points

    def counted(centers, weights, quantum):
        calls.append(centers.shape[0])
        return probe(centers, weights, quantum)

    mp.setattr(HISTOGRAM, "_merge_close_points", counted)
    return calls


def _assert_same_as_probe(ifs, p, n, extra_depth):
    """histogram() calls the probe at no depth and has the bits of its run
    with the probe forced at every depth."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _counted_probe(mp)
        hist = histogram(ifs, p, n, extra_depth=extra_depth)
        assert calls == []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HISTOGRAM, "word_gap", _no_gap)
        calls = _counted_probe(mp)
        forced = histogram(ifs, p, n, extra_depth=extra_depth)
        assert len(calls) == hist.depth_used
    for name in ("indices", "lower", "upper"):
        assert np.array_equal(getattr(hist, name), getattr(forced, name))


@pytest.mark.parametrize("ifs,p,n,extra_depth", [
    (SEP3, [0.5, 0.3, 0.2], 19, 6), (ROT4, [0.4, 0.3, 0.2, 0.1], 10, 4),
    (ROT4, [0.4, 0.3, 0.2, 0.1], 11, 4), (C13, [0.52, 0.48], 20, 4),
    (C14, [0.49, 0.51], 20, 4)],
    ids=["sep3-19", "rot4-10", "rot4-11", "c13-20", "c14-20"])
def test_certified_histograms_equal_probed(ifs, p, n, extra_depth):
    _assert_same_as_probe(ifs, np.array(p), n, extra_depth)


@settings(max_examples=25, deadline=None)
@given(ifs=_gapped_systems(), n=st.integers(3, 10), extra_depth=st.integers(0, 3))
def test_random_certified_histograms_equal_probed(ifs, n, extra_depth):
    assume(ifs.m ** dyadic_depth(ifs, n, extra_depth) <= 2 ** 16)
    _assert_same_as_probe(ifs, uniform_weights(ifs.m), n, extra_depth)


def test_deep_levels_keep_the_probe(monkeypatch):
    """r^(d-1) g / sqrt(dim) - 2 err_d falls below the quantum 2^-43 from
    depth 31 of Cantor(0.4) at n = 3 with 40 extra levels (g = 0.2): the
    probe runs at exactly those depths."""
    ifs = HomogeneousIfs(1, Similarity(ratio=0.4, sign=1), np.array([0.0, 0.6]))
    calls = _counted_probe(monkeypatch)
    assert histogram(ifs, uniform_weights(2), 3, extra_depth=40).depth_used == 42
    assert len(calls) == 42 - 30


def _load_workloads(monkeypatch):
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _histogram_systems(measure):
    """The systems whose histograms a measure's histogram is built from."""
    if hasattr(measure, "ifs"):
        return [measure.ifs]
    if hasattr(measure, "base"):
        return [measure.base.ifs]
    return [measure.m1.ifs, measure.m2.ifs]


def test_certified_bench_documents(tmp_path, monkeypatch):
    """The bench documents whose histograms skip the probe at every depth
    have g > 0; the generic projection and the Fourier-only golden and
    sinc documents do not (sinc's g is 0, rounded below)."""
    workloads = _load_workloads(monkeypatch)
    docs = workloads.make_documents(workloads.make_params(0))
    workloads.write_documents(docs, str(tmp_path))
    certified = {"separated", "rot4", "rotproj", "c13", "c14", "conv"}
    for stem in docs:
        measure = load_measure_spec(workloads.doc_path(str(tmp_path), stem))
        gaps = [word_gap(ifs) for ifs in _histogram_systems(measure)]
        assert (min(gaps) > 0.0) == (stem in certified), stem


# Golden commands whose histograms call the probe: systems with g <= 0, among
# them every golden that merges words.
PROBED = {"check_overlap_1d", "check_overlap_2d", "convolve_golden_merging",
          "convolve_negative", "dim_golden_merging", "entropy_generic",
          "project_half_turn_golden_merging", "project_half_turn_product",
          "project_product", "project_rotating_overlap"}


def test_certified_golden_commands(tmp_path):
    """Which golden commands' histograms call the probe. project_product
    is the projection of a certified planar system, a 1D system with
    g < 0; every other command outside PROBED never calls it."""
    paths = _write_docs(str(tmp_path))
    histogram_commands = {name for name, argv in COMMANDS.items()
                          if argv[0] in ("project", "convolve", "skipkeep", "check",
                                         "dim", "entropy")}
    assert PROBED < histogram_commands
    with pytest.MonkeyPatch.context() as mp:
        calls = _counted_probe(mp)
        for name in sorted(histogram_commands):
            calls.clear()
            argv = [a.format(**paths) for a in COMMANDS[name]]
            assert main(argv + ["-o", str(tmp_path / f"{name}.csv")]) == 0
            assert bool(calls) == (name in PROBED), name


# ------------------------------------------------------ separation check


def _scan(ifs, depth, word_budget=None):
    """check_strong_separation through the grid scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IFS, "word_gap", _no_gap)
        return check_strong_separation(ifs, depth, word_budget)


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2]), m=st.integers(2, 4), ratio=st.floats(0.05, 0.6),
       alpha=st.floats(0.0, 0.999), sign=st.sampled_from([-1, 1]),
       seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(1, 5))
def test_separation_shortcut_equals_scan(dim, m, ratio, alpha, sign, seed, depth):
    """Random systems, certified by word_gap, separated only by the scan,
    or inconclusive: the certificate equals the grid scan's."""
    rng = np.random.default_rng(seed)
    if dim == 1:
        ifs = HomogeneousIfs(1, Similarity(ratio=ratio, sign=sign), rng.uniform(-1, 1, m))
    else:
        ifs = HomogeneousIfs(2, Similarity(ratio=ratio, alpha=alpha),
                             rng.uniform(-1, 1, (m, 2)))
    assert check_strong_separation(ifs, depth) == _scan(ifs, depth)


@pytest.mark.parametrize("doc,depth", [
    ({"ambient_dim": 1, "ratio": 0.242, "sign": -1, "translations": [-0.463, -0.234, -0.948]}, 3),
    ({"ambient_dim": 2, "ratio": 0.433, "alpha": 0.031,
      "translations": [[0.119, -0.169], [-0.736, 0.146], [-0.77, -0.899]]}, 1),
    ({"ambient_dim": 1, "ratio": 0.21, "sign": 1, "translations": [0.312, 0.919, 0.071]}, 1)])
def test_positive_gap_below_the_ball_gap_stays_inconclusive(doc, depth):
    """0 < g < 2 r^depth R (g/gap 0.07, 0.03, 0.06) and balls under two
    first symbols meet: the shortcut must not answer."""
    ifs = ifs_from_json(doc)[0]
    assert 0.0 < word_gap(ifs) < 0.1 * 2.0 * ifs.ratio ** depth * ifs.attractor_radius
    cert = check_strong_separation(ifs, depth)
    assert not cert.separated
    assert cert == _scan(ifs, depth)


@pytest.mark.parametrize("ifs,depth", [(NINE, 4), (SEP3, 9), (ROT4, 6), (C13, 12)])
def test_separation_shortcut_expands_no_word(ifs, depth, monkeypatch):
    """Certified systems: Separated, as from the scan, without cylinder_words."""
    cert = _scan(ifs, depth)
    assert cert.separated
    monkeypatch.setattr(IFS, "cylinder_words", None)
    assert check_strong_separation(ifs, depth) == cert
    if ifs is NINE:
        assert check_strong_separation(ifs, 6).separated


@pytest.mark.parametrize("name", ["check_overlap_1d", "check_overlap_2d"])
def test_separation_shortcut_equals_scan_on_goldens(name):
    argv = COMMANDS[name]
    ifs = ifs_from_json(DOCS[argv[argv.index("--ifs") + 1].strip("{}")])[0]
    depth = int(argv[argv.index("--depth") + 1])
    cert = check_strong_separation(ifs, depth)
    assert not cert.separated
    assert cert == _scan(ifs, depth)


@pytest.mark.parametrize("ifs,depth,budget,rows,at", [
    (C13, 30, None, 2 ** 25, 25), (SEP3, 4, 80, 81, 4), (NINE, 5, 9 ** 4, 9 ** 5, 5)])
def test_separation_shortcut_keeps_budget_errors(ifs, depth, budget, rows, at):
    """The shortcut raises the scan's BudgetError, message included."""
    messages = []
    for check in (check_strong_separation, _scan):
        with pytest.raises(BudgetError) as err:
            check(ifs, depth, budget)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert f"needs {rows} rows at depth {at}," in messages[0]
    assert check_strong_separation(ifs, at - 1, budget).separated
