"""Certified dyadic histograms: sandwich bounds, moments, entropy sums."""

import copy
import importlib
import itertools
import math
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from selfsim import (BudgetError, HomogeneousIfs, PrecisionError, Similarity,
                     SpecError, cylinder_words, dyadic_depth, entropy_sum,
                     histogram, moment_sums, project_ifs, uniform_weights)
from selfsim.histogram import (_EPS_BASE, _MERGE_GUARD_BITS, _PAIR_HASH,
                               _box_range, _CellSums, _flat_code, _merge_close_points,
                               _place_lower, _sorted_sums, _take_rows,
                               bin_weighted_intervals)

from kernel_oracles import aggregate, collecting_histogram, stable_sums


def test_lebesgue_exact(lebesgue_unit):
    """Lebesgue on [0,1]: certified lower masses hit 2^-n exactly."""
    ifs, p = lebesgue_unit
    h = histogram(ifs, p, 3)
    assert h.num_cells == 8
    assert np.allclose(h.lower, 0.125)
    # upper masses also count words touching a cell only at its boundary,
    # at most one word of mass 2^-6 per side at the default refinement
    assert np.all(h.upper >= 0.125)
    assert np.all(h.upper <= 0.125 + 2.0 ** -5 + 1e-15)
    assert h.total_lower() == pytest.approx(1.0)
    assert h.total_upper() >= 1.0


def test_cantor_level_one(cantor13):
    ifs, p = cantor13
    h = histogram(ifs, p, 1)
    assert list(h.indices) == [0, 1]
    assert np.allclose(h.lower, 0.5)
    assert np.allclose(h.upper, 0.5)


def test_sandwich_totals(cantor13, biased13, golden_bc):
    for ifs, p in (cantor13, biased13, golden_bc):
        h = histogram(ifs, p, 8)
        assert h.total_lower() <= 1.0 + 1e-12
        assert h.total_upper() >= 1.0 - 1e-12
        assert np.all(h.lower <= h.upper + 1e-15)


def test_half_mass_split(cantor13):
    """The cell boundary 1/2 lies in the middle gap, so [0,1/2) has mass 1/2."""
    ifs, p = cantor13
    h = histogram(ifs, p, 6)
    left = h.indices < 2 ** 5
    assert h.lower[left].sum() <= 0.5 + 1e-12
    assert h.upper[left].sum() >= 0.5 - 1e-12


def test_extra_depth_tightens(cantor13):
    ifs, p = cantor13
    h2 = histogram(ifs, p, 8, extra_depth=2)
    h6 = histogram(ifs, p, 8, extra_depth=6)
    gap2 = float(np.max(h2.upper - h2.lower))
    gap6 = float(np.max(h6.upper - h6.lower))
    assert gap6 <= gap2 + 1e-15
    assert h6.total_upper() - h6.total_lower() <= h2.total_upper() - h2.total_lower() + 1e-12


def test_dyadic_depth_halving(lebesgue_unit):
    ifs, _ = lebesgue_unit
    # r = 1/2: words at depth n-1 are the last with diameter above 2^-n
    assert dyadic_depth(ifs, 5, extra_depth=0) == 4
    assert dyadic_depth(ifs, 5, extra_depth=4) == 8


def test_histogram_2d(four_corner, cantor13):
    """The planar four-corner measure is the product of two Cantor factors.

    The 2D enclosure radius is larger by sqrt(2), so extra boundary cells
    may appear; those must carry no certified lower mass, and on shared
    cells the product bounds and the 2D bounds must overlap.
    """
    ifs2, p2 = four_corner
    ifs1, p1 = cantor13
    h2d = histogram(ifs2, p2, 4)
    h1d = histogram(ifs1, p1, 4)
    m1 = dict(zip(h1d.indices.tolist(), zip(h1d.lower, h1d.upper)))
    assert h2d.num_cells >= h1d.num_cells ** 2
    for (kx, ky), lo, up in zip(h2d.indices.tolist(), h2d.lower, h2d.upper):
        if kx in m1 and ky in m1:
            lo_x, up_x = m1[kx]
            lo_y, up_y = m1[ky]
            assert lo_x * lo_y <= up + 1e-15
            assert lo <= up_x * up_y + 1e-15
        else:
            assert lo <= 1e-15


def _reference_histogram_2d(ifs, p, n, extra_depth):
    """Per-word loop: each enclosure square is binned on its own, axis by axis.

    Same depth, enclosure radius, eps and box as histogram(); word centers
    are accumulated in the same order, so only the summation order of the
    cell masses differs. Also returns how many enclosures touch at least
    two cells on both axes.
    """
    h = dyadic_depth(ifs, n, extra_depth)
    z = np.asarray(ifs.attractor_center, dtype=float)
    r0 = ifs.attractor_radius
    eps = _EPS_BASE * max(1.0, float(np.max(np.abs(z)) + r0))
    rho = ifs.map.ratio ** h * r0
    box = [_box_range(c - r0, c + r0, n, eps) for c in z]
    steps = [ifs.apply_power(j, ifs.translations) for j in range(h)]
    shift = ifs.apply_power(h, z)
    scale = 2.0 ** n
    lower, upper = defaultdict(float), defaultdict(float)
    multi = 0
    for word in itertools.product(range(ifs.m), repeat=h):
        c = steps[0][word[0]].copy()
        w = p[word[0]]
        for j in range(1, h):
            c = c + steps[j][word[j]]
            w = w * p[word[j]]
        c = c + shift
        inside, touched = [], []
        for a in range(2):
            lo, hi = c[a] - rho, c[a] + rho
            k0, k1 = box[a]
            in_lo = math.floor((lo + eps) * scale)
            inside.append(min(max(in_lo, k0), k1)
                          if in_lo == math.floor((hi - eps) * scale) else None)
            t0 = min(max(math.floor((lo - eps) * scale), k0), k1)
            t1 = min(max(math.floor((hi + eps) * scale), k0), k1)
            touched.append(range(t0, t1 + 1))
        if None not in inside:
            lower[tuple(inside)] += w
        for cell in itertools.product(*touched):
            upper[cell] += w
        multi += len(touched[0]) > 1 and len(touched[1]) > 1
    return lower, upper, multi


@pytest.mark.parametrize("name", ["four_corner", "golden_rotation"])
def test_histogram_2d_matches_per_word_reference(name, four_corner):
    """The generic binning path agrees cell by cell with a per-word loop."""
    if name == "four_corner":
        ifs, p = four_corner
    else:
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        ifs = HomogeneousIfs(2, Similarity(ratio=1 / 3, alpha=golden),
                             four_corner[0].translations)
        p = uniform_weights(4)
    multi_total = 0
    for n in range(3, 7):
        for extra_depth in (0, 4):
            if ifs.m ** dyadic_depth(ifs, n, extra_depth) > 20_000:
                continue
            lower, upper, multi = _reference_histogram_2d(ifs, p, n, extra_depth)
            multi_total += multi
            hist = histogram(ifs, p, n, extra_depth=extra_depth)
            got = {tuple(k): (lo, up) for k, lo, up in
                   zip(hist.indices.tolist(), hist.lower, hist.upper)}
            assert set(got) == set(upper)
            for cell, (lo, up) in got.items():
                ref_up = min(upper[cell], 1.0)
                ref_lo = min(lower.get(cell, 0.0), 1.0)
                assert abs(up - ref_up) <= 1e-15 + 1e-14 * ref_up
                assert abs(lo - ref_lo) <= 1e-15 + 1e-14 * ref_lo
    assert multi_total > 0, "no enclosure touched several cells on both axes"


def _direct_histogram(ifs, p, n, extra_depth):
    """Oracle for adaptive refinement: every word grows to depth h.

    Same merging per level, depth, enclosure radius, eps and box as
    histogram(), but no word settles early: all rows are binned at depth h.
    Returns (indices, lower, upper).
    """
    h = dyadic_depth(ifs, n, extra_depth)
    z = np.atleast_1d(ifs.attractor_center).astype(float)
    r0 = ifs.attractor_radius
    eps = _EPS_BASE * max(1.0, float(np.max(np.abs(z)) + r0))
    quantum = 2.0 ** -(n + _MERGE_GUARD_BITS)
    centers, weights = cylinder_words(
        ifs, p, h, level_hook=lambda depth, c, w: _merge_close_points(c, w, quantum))
    centers = centers + ifs.apply_power(h, z)
    rho = ifs.map.ratio ** h * r0
    k0, k1 = zip(*(_box_range(c - r0, c + r0, n, eps) for c in z))
    return bin_weighted_intervals(centers - rho, centers + rho, weights, weights,
                                  n, k0, k1, eps)


def _assert_matches_direct(ifs, p, n, extra_depth):
    idx, lower, upper = _direct_histogram(ifs, p, n, extra_depth)
    hist = histogram(ifs, p, n, extra_depth=extra_depth)
    assert np.array_equal(hist.indices, idx)
    for got, want in ((hist.lower, lower), (hist.upper, upper)):
        assert np.all(np.abs(got - want) <= 1e-15 + 1e-13 * want)


def _weights(m):
    return st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m).map(
        lambda raw: np.asarray(raw) / sum(raw))


@st.composite
def _refinement_systems(draw, kind=None):
    """1D systems of both signs, 2D rotating ones and the golden Bernoulli
    system, whose overlaps make histogram() merge words."""
    kind = kind or draw(st.sampled_from(["1d", "2d", "golden"]))
    if kind == "golden":
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        ifs = HomogeneousIfs(1, Similarity(ratio=golden, sign=1), np.array([-1.0, 1.0]))
        return ifs, uniform_weights(2)
    m = draw(st.integers(2, 3))
    ratio = draw(st.floats(0.15, 0.45 if m == 2 else 0.3))
    if kind == "1d":
        sim = Similarity(ratio=ratio, sign=draw(st.sampled_from([-1, 1])))
        shape = (m,)
    else:
        sim = Similarity(ratio=ratio, alpha=draw(st.floats(0.01, 0.99)))
        shape = (m, 2)
    a = draw(st.lists(st.floats(-1.0, 1.0), min_size=math.prod(shape),
                      max_size=math.prod(shape), unique=True))
    return HomogeneousIfs(len(shape), sim, np.reshape(a, shape)), draw(_weights(m))


@settings(max_examples=60, deadline=None)
@given(system=_refinement_systems(), n=st.integers(4, 12),
       extra_depth=st.integers(0, 6))
def test_adaptive_refinement_matches_direct(system, n, extra_depth):
    """Settling words early leaves every cell index and, up to summation
    order, every mass of the depth-h enumeration unchanged."""
    ifs, p = system
    if ifs.ratio < 0.5:  # the golden system merges, so its rows stay few
        assume(ifs.m ** dyadic_depth(ifs, n, extra_depth) <= 2 ** 17)
    _assert_matches_direct(ifs, p, n, extra_depth)


@pytest.mark.parametrize("sign,translations,p,n,extra_depth", [
    (1, [0.0, 0.375, 0.75], [0.5, 0.3, 0.2], 6, 0),
    (1, [0.0, 0.375, 0.75], [0.5, 0.3, 0.2], 10, 4),
    (1, [0.0, 0.375, 0.75], [0.5, 0.3, 0.2], 14, 6),
    (-1, [1.0, 0.5], [0.5, 0.5], 4, 3)],
    ids=["edges-6", "edges-10", "edges-14", "all-settle-4"])
def test_adaptive_refinement_fixed_cases(sign, translations, p, n, extra_depth):
    """Ratio 1/4 with dyadic translations: in the 3-map system, enclosure
    ends land exactly on cell edges and never settle; in the 2-map one,
    every word settles before depth h and the deeper levels are empty."""
    ifs = HomogeneousIfs(1, Similarity(ratio=0.25, sign=sign), np.array(translations))
    _assert_matches_direct(ifs, np.array(p), n, extra_depth)


# Oracles for the histogram layer's shortcuts: the merge that always sorts
# and the binning of settled words by their enclosure ends, as they were
# before the duplicate pre-check and the settled cells (cell sums through
# the collect-then-sum aggregate of kernel_oracles, and _place_lower).


def _sorting_merge(centers: np.ndarray, weights: np.ndarray, quantum: float):
    if centers.shape[0] < 4096:
        return centers, weights
    scale = 1.0 / quantum
    mx = float(np.max(np.abs(centers))) if centers.size else 0.0
    if mx * scale >= 2.0 ** 62:
        return centers, weights
    keys = np.round(centers * scale).astype(np.int64)
    order = (np.argsort(keys, kind="stable") if centers.ndim == 1
             else np.lexsort((keys[:, 1], keys[:, 0])))
    ks = keys[order]
    change = ks[1:] != ks[:-1]
    if centers.ndim == 2:
        change = change.any(axis=1)
    starts = np.flatnonzero(np.concatenate(([True], change)))
    if starts.size == centers.shape[0]:
        return centers, weights
    w_sorted = weights[order]
    merged_w = np.add.reduceat(w_sorted, starts)
    merged_c = centers[order[starts]]
    return merged_c, merged_w


def _ends_binning(e_lo, e_hi, w_lower, w_upper, n, k_min, k_max, eps):
    scale = 2.0 ** n
    contained = True
    low, t_lo, t_hi = [], [], []
    for lo, hi in zip(np.atleast_2d(e_lo.T), np.atleast_2d(e_hi.T)):
        c_lo = np.floor((lo + eps) * scale).astype(np.int64)
        contained = contained & (c_lo == np.floor((hi - eps) * scale).astype(np.int64))
        low.append(c_lo)
        t_lo.append(np.floor((lo - eps) * scale).astype(np.int64))
        t_hi.append(np.floor((hi + eps) * scale).astype(np.int64))
    return _ends_bin_cells([c[contained] for c in low], w_lower[contained], t_lo,
                           t_hi, w_upper, np.atleast_1d(k_min), np.atleast_1d(k_max))


def _ends_bin_cells(low_cells, low_w, t_lo, t_hi, w_upper, k_min, k_max):
    spans = [int(k1 - k0 + 1) for k0, k1 in zip(k_min, k_max)]
    for arr, k0, k1 in zip(low_cells, k_min, k_max):
        np.clip(arr, k0, k1, out=arr)
        arr -= k0
    for cells in (t_lo, t_hi):
        for arr, k0, k1 in zip(cells, k_min, k_max):
            np.clip(arr, k0, k1, out=arr)

    widths = [hi - lo for lo, hi in zip(t_lo, t_hi)]
    up_cells, up_w = [np.empty(0, np.int64)], [np.empty(0)]
    for offs in itertools.product(*(range(int(w.max()) + 1 if w.size else 0)
                                    for w in widths)):
        mask = widths[0] >= offs[0]
        for w, off in zip(widths[1:], offs[1:]):
            mask &= w >= off
        up_cells.append(_flat_code(
            [lo[mask] + off - k0 for lo, off, k0 in zip(t_lo, offs, k_min)], spans))
        up_w.append(w_upper[mask])
    up_cells, up_w = np.concatenate(up_cells), np.concatenate(up_w)

    span = math.prod(spans)
    lo_idx, lo_sum = aggregate(_flat_code(low_cells, spans), low_w, span)
    up_idx, up_sum = aggregate(up_cells, up_w, span)

    if len(spans) == 1:
        indices = up_idx + k_min[0]
    else:
        indices = np.stack(np.unravel_index(up_idx, spans), axis=1) + np.asarray(k_min)
    upper = np.minimum(up_sum, 1.0)
    lower = _place_lower(up_idx, lo_idx, lo_sum)
    return indices, lower, upper


def _ends_histogram(ifs, p, n, extra_depth):
    """histogram() with the sorting merge and settled words binned by their
    enclosure ends. Returns (indices, lower, upper)."""
    h = dyadic_depth(ifs, n, extra_depth)
    zs = np.atleast_1d(ifs.attractor_center).astype(float)
    r0 = ifs.attractor_radius
    coord_bound = float(np.max(np.abs(zs)) + r0)
    eps = _EPS_BASE * max(1.0, coord_bound)
    scale = 2.0 ** n
    quantum = 2.0 ** -(n + _MERGE_GUARD_BITS)
    e_lo, e_hi, ws = [], [], []

    def merge_and_settle(depth, centers, weights):
        centers, weights = _sorting_merge(centers, weights, quantum)
        rho = ifs.map.ratio ** depth * r0
        if depth < h and 2.0 * (rho + eps) * scale >= 1.0:
            return centers, weights
        c = centers + ifs.apply_power(depth, zs)
        lo, hi = c - rho, c + rho
        if depth < h:
            one_cell = np.floor((lo - eps) * scale) == np.floor((hi + eps) * scale)
            done = one_cell if one_cell.ndim == 1 else one_cell.all(axis=1)
        else:
            done = np.ones(centers.shape[0], dtype=bool)
        e_lo.append(lo[done])
        e_hi.append(hi[done])
        ws.append(weights[done])
        return centers[~done], weights[~done]

    cylinder_words(ifs, p, h, None, merge_and_settle)
    k0, k1 = zip(*(_box_range(z - r0, z + r0, n, eps) for z in zs))
    weights = np.concatenate(ws)
    return _ends_binning(np.concatenate(e_lo), np.concatenate(e_hi), weights,
                         weights, n, k0, k1, eps)


_CORNERS = np.array([[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3], [2 / 3, 2 / 3]])


@st.composite
def _oracle_systems(draw):
    """1D systems of both signs, 2D rotating ones, the rotation-free
    four-corner set, and two merging systems: the golden Bernoulli
    convolution (1D) and its half-turn product (2D)."""
    kind = draw(st.sampled_from(["1d", "2d", "four_corner", "golden", "half_turn"]))
    if kind == "half_turn":
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        corners = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        return (HomogeneousIfs(2, Similarity(ratio=golden, alpha=0.5), corners),
                draw(_weights(4)))
    if kind == "four_corner":
        return (HomogeneousIfs(2, Similarity(ratio=1 / 3, alpha=0.0), _CORNERS),
                draw(_weights(4)))
    return draw(_refinement_systems(kind))


def _oracle_size_ok(ifs, n, extra_depth):
    h = dyadic_depth(ifs, n, extra_depth)
    if ifs.ratio > 0.5:  # merging keeps the overlapping systems' rows few
        return (ifs.ambient_dim == 1 and n <= 11) or (ifs.ambient_dim == 2 and n <= 6)
    return ifs.m ** h <= 2 ** 18


@settings(max_examples=50, deadline=None)
@given(system=_oracle_systems(), n=st.integers(3, 12), extra_depth=st.integers(0, 5))
def test_histogram_bit_identical_to_oracles(system, n, extra_depth):
    """The duplicate pre-check and the settled cells change no bit of the
    indices, lower or upper masses."""
    ifs, p = system
    assume(_oracle_size_ok(ifs, n, extra_depth))
    idx, lower, upper = _ends_histogram(ifs, p, n, extra_depth)
    hist = histogram(ifs, p, n, extra_depth=extra_depth)
    assert np.array_equal(hist.indices, idx)
    assert np.array_equal(hist.lower, lower)
    assert np.array_equal(hist.upper, upper)


_GOLDEN_BC = HomogeneousIfs(1, Similarity(ratio=(math.sqrt(5.0) - 1.0) / 2.0, sign=1),
                            np.array([-1.0, 1.0]))
_HALF_TURN = HomogeneousIfs(2, Similarity(ratio=(math.sqrt(5.0) - 1.0) / 2.0, alpha=0.5),
                            np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]))


@pytest.mark.parametrize("ifs,n,extra_depth,block", [
    (_GOLDEN_BC, 14, 4, 1 << 15), (_HALF_TURN, 7, 1, 1 << 15),
    (_GOLDEN_BC, 11, 4, 7), (_HALF_TURN, 5, 1, 7)],
    ids=["golden-14", "half-turn-7", "golden-11-block-7", "half-turn-5-block-7"])
def test_merging_histograms_bit_identical(ifs, n, extra_depth, block, monkeypatch):
    """Deep levels of both merging systems, where most calls merge rows,
    against the oracle at the default block size; blocks of 7 rows run
    the settle test, the 2D merge keys and binning in thousands of blocks,
    at smaller levels that still merge at 3 or more depths."""
    p = uniform_weights(ifs.m)
    idx, lower, upper = _ends_histogram(ifs, p, n, extra_depth)
    merging = []

    def counted(centers, weights, quantum):
        out = _merge_close_points(centers, weights, quantum)
        merging.append(out[0].shape[0] < centers.shape[0])
        return out

    # selfsim.histogram is the function; the module is reached by name.
    module = importlib.import_module("selfsim.histogram")
    monkeypatch.setattr(module, "_merge_close_points", counted)
    monkeypatch.setattr(module, "_BLOCK_ROWS", block)
    hist = histogram(ifs, p, n, extra_depth=extra_depth)
    assert sum(merging) >= 3
    assert np.array_equal(hist.indices, idx)
    assert np.array_equal(hist.lower, lower)
    assert np.array_equal(hist.upper, upper)


HISTOGRAM = importlib.import_module("selfsim.histogram")


def _assert_matches_collecting(ifs, p, n, extra_depth):
    idx, lower, upper = collecting_histogram(ifs, p, n, extra_depth)
    hist = histogram(ifs, p, n, extra_depth=extra_depth)
    assert np.array_equal(hist.indices, idx)
    assert np.array_equal(hist.lower, lower)
    assert np.array_equal(hist.upper, upper)


@settings(max_examples=60, deadline=None)
@given(system=_oracle_systems(), n=st.integers(3, 12), extra_depth=st.integers(0, 5),
       cap=st.sampled_from([1 << 23, 200, 0]), block=st.sampled_from([1 << 15, 500, 7]))
def test_histogram_matches_collecting_oracle(system, n, extra_depth, cap, block):
    """Adding settled words into per-cell sums as they settle, block by
    block, and binning the depth-h words block by block change no bit of
    collecting every cell and weight first. A cap of 200 or 0 cells sends
    small boxes above it (sorted sums), and blocks of 500 or 7 rows run
    the settle test and binning in many."""
    ifs, p = system
    assume(_oracle_size_ok(ifs, n, extra_depth))
    if block < 500:
        assume(ifs.ratio > 0.5 or ifs.m ** dyadic_depth(ifs, n, extra_depth) <= 2 ** 12)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HISTOGRAM, "_DENSE_SPAN_CAP", cap)
        mp.setattr(HISTOGRAM, "_BLOCK_ROWS", block)
        _assert_matches_collecting(ifs, p, n, extra_depth)


@st.composite
def _row_masks(draw):
    """Empty, full, alternating, run-structured and random masks."""
    rows = draw(st.integers(0, 3000))
    kind = draw(st.sampled_from(["empty", "full", "alternating", "runs", "random"]))
    if kind in ("empty", "full"):
        return np.full(rows, kind == "full")
    if kind == "alternating":
        return np.arange(rows) % 2 == draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        return rng.random(rows) < draw(st.floats(0.0, 1.0))
    run = draw(st.integers(1, 64))
    return np.repeat(rng.random(rows // run + 1) < 0.5, run)[:rows]


@settings(max_examples=200, deadline=None)
@given(mask=_row_masks())
def test_take_rows_matches_boolean_indexing(mask):
    """Selecting rows by position gives boolean indexing's values, dtype,
    shape and row order, on 1D and (rows, 2) arrays."""
    rows = mask.size
    arrays = [np.arange(rows) * 0.5 - 7.0, np.arange(rows, dtype=np.int64)[::-1].copy(),
              np.arange(2 * rows, dtype=float).reshape(rows, 2) ** 1.5]
    got = _take_rows(mask, *arrays)
    assert len(got) == len(arrays)
    for g, a in zip(got, arrays):
        want = a[mask]
        assert g.dtype == want.dtype and g.shape == want.shape
        assert np.array_equal(g, want)


@pytest.mark.parametrize("n,extra_depth,block", [
    (10, 2, None), (11, 1, None), (10, 2, 500), (11, 1, 500)],
    ids=["10-2", "11-1", "10-2-block-500", "11-1-block-500"])
def test_rotating_histogram_matches_collecting_oracle(n, extra_depth, block, monkeypatch):
    """The rotating four-corner set at the real cap: its box has 1449^2
    cells at n = 10 (dense sums) and 2897^2 > 2^23 at n = 11 (sorted).
    Blocks of 500 rows put many block edges in the 2D settle test and
    binning, whose rows are selected by position; block None keeps the
    module's own block size."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    ifs = HomogeneousIfs(2, Similarity(ratio=1 / 3, alpha=golden), _CORNERS)
    if block is not None:
        monkeypatch.setattr(HISTOGRAM, "_BLOCK_ROWS", block)
    hist = histogram(ifs, uniform_weights(4), n, extra_depth=extra_depth)
    spans = np.asarray(hist.k_max) - np.asarray(hist.k_min) + 1
    assert (math.prod(spans.tolist()) > HISTOGRAM._DENSE_SPAN_CAP) == (n == 11)
    _assert_matches_collecting(ifs, uniform_weights(4), n, extra_depth)


def test_histogram_peak_memory():
    """Settled words go into per-cell sums as they settle, and the settle
    test and binning work on blocks of rows, with the depth-h enclosure
    ends formed a block at a time, so the traced peak of the level-12
    histogram of the four-corner set seen along 1 rad stays near that of
    its live words (about 12.0 MB; level-sized ends read 14.7 MB,
    level-sized temporaries 24 MB, and collecting every cell first 64 MB)."""
    ifs, p = project_ifs(HomogeneousIfs(2, Similarity(ratio=1 / 3, alpha=0.0), _CORNERS),
                         uniform_weights(4), 1.0)
    tracemalloc.start()
    try:
        histogram(ifs, p, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13.5e6, f"traced peak {peak / 1e6:.1f} MB"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]),
       rows=st.integers(4096, 9000), distinct=st.integers(2, 20000),
       block=st.sampled_from([1 << 15, 7]))
def test_merge_matches_sorting_merge(seed, dim, rows, distinct, block):
    """Rows drawn from a small set of points (plus sub-quantum noise) merge
    exactly as the merge that always sorts does, with the int64 keys formed
    in one block or in blocks of 7 rows, and inputs without duplicates come
    back as the same objects."""
    rng = np.random.default_rng(seed)
    quantum = 2.0 ** -30
    shape = (rows,) if dim == 1 else (rows, 2)
    centers = rng.integers(-distinct, distinct, size=shape) * 2.0 ** -10
    centers += rng.uniform(-0.25, 0.25, size=shape) * quantum
    weights = rng.uniform(0.1, 1.0, size=rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HISTOGRAM, "_BLOCK_ROWS", block)
        got_c, got_w = _merge_close_points(centers, weights, quantum)
    want_c, want_w = _sorting_merge(centers, weights, quantum)
    assert np.array_equal(got_c, want_c)
    assert np.array_equal(got_w, want_w)
    if want_c.shape[0] == rows:
        assert got_c is centers and got_w is weights


def test_merge_returns_inputs_without_duplicates():
    rng = np.random.default_rng(5)
    for shape in ((5000,), (5000, 2)):
        centers = rng.permutation(np.arange(int(np.prod(shape)))).reshape(shape) * 1e-3
        weights = rng.uniform(size=5000)
        got_c, got_w = _merge_close_points(centers, weights, 2.0 ** -30)
        assert got_c is centers and got_w is weights


def _colliding_pair():
    """Distinct 2D integer keys (0, 0) and (d, -r) with d * _PAIR_HASH = r
    mod 2^64: both hash to 0. Both are exact floats below 2^61."""
    for j in range(1, 1 << 16):
        d = j << 11
        r = (d * _PAIR_HASH) % 2 ** 64
        r -= 2 ** 64 if r >= 2 ** 63 else 0
        if abs(r) < 2 ** 61:
            return d, -r
    raise AssertionError("no colliding pair found")


@pytest.mark.parametrize("with_duplicate", [False, True])
def test_merge_hash_collision_falls_through(with_duplicate):
    """Distinct key pairs sharing a hash take the exact path, which merges
    only true duplicates."""
    d, y = _colliding_pair()
    rows = np.stack([np.arange(1, 4999, dtype=float),
                     np.arange(1, 4999, dtype=float) * 3.0], axis=1)
    extra = [[0.0, 0.0], [float(d), float(y)]] + ([[5.0, 15.0]] if with_duplicate else [])
    centers = np.concatenate((rows, np.array(extra)))
    keys = centers.astype(np.int64)
    hashed = keys[:, 0].view(np.uint64) * np.uint64(_PAIR_HASH) + keys[:, 1].view(np.uint64)
    assert np.unique(hashed).size < np.unique(keys, axis=0).size
    weights = np.linspace(0.1, 1.0, centers.shape[0])
    got_c, got_w = _merge_close_points(centers, weights, 1.0)
    want_c, want_w = _sorting_merge(centers, weights, 1.0)
    assert np.array_equal(got_c, want_c)
    assert np.array_equal(got_w, want_w)
    assert got_c.shape[0] == centers.shape[0] - with_duplicate


def test_budget_bounds_live_words():
    """Only words meeting a cell boundary keep growing, so the budget holds
    at n = 19 although depth 15 has 3^15 words."""
    ifs = HomogeneousIfs(1, Similarity(ratio=0.25, sign=1), np.array([0.0, 0.375, 0.75]))
    p = np.array([0.5, 0.3, 0.2])
    assert ifs.m ** dyadic_depth(ifs, 19, 6) > 2 ** 18
    small = histogram(ifs, p, 19, extra_depth=6, word_budget=2 ** 18)
    full = histogram(ifs, p, 19, extra_depth=6)
    assert np.array_equal(small.indices, full.indices)
    assert np.array_equal(small.lower, full.lower)
    assert np.array_equal(small.upper, full.upper)


def test_budget_error(cantor13):
    ifs, p = cantor13
    with pytest.raises(BudgetError):
        histogram(ifs, p, 10, word_budget=8)


def test_precision_error(cantor13):
    ifs, p = cantor13
    with pytest.raises(PrecisionError):
        histogram(ifs, p, 60)


def test_moment_sums_lebesgue(lebesgue_unit):
    ifs, p = lebesgue_unit
    h = histogram(ifs, p, 6)
    s_lo, s_up = moment_sums(h, 2.0)
    # the true moment sum is exactly 2^-6; the lower side hits it
    assert s_lo == pytest.approx(2.0 ** -6, rel=1e-12)
    assert s_lo <= 2.0 ** -6 <= s_up
    # q < 1 keeps the same bound roles since x^q is increasing
    s_lo_half, s_up_half = moment_sums(h, 0.5)
    assert s_lo_half <= 2.0 ** 3 <= s_up_half
    assert s_lo_half == pytest.approx(2.0 ** 3, rel=1e-12)


def test_moment_sums_ordering(cantor13):
    ifs, p = cantor13
    h = histogram(ifs, p, 8)
    for q in (0.5, 1.5, 2.0, 3.0):
        s_lo, s_up = moment_sums(h, q)
        assert 0.0 < s_lo <= s_up


def test_moment_sums_rejects_q_one(cantor13):
    ifs, p = cantor13
    h = histogram(ifs, p, 4)
    with pytest.raises(SpecError):
        moment_sums(h, 1.0)
    with pytest.raises(SpecError):
        moment_sums(h, -2.0)


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_moment_sums_rejects_non_finite_q(cantor13, q):
    """A NaN or infinite order is refused, not summed to (nan, nan) or (0, 0)."""
    ifs, p = cantor13
    with pytest.raises(SpecError, match="q must be positive and finite"):
        moment_sums(histogram(ifs, p, 4), q)


def test_entropy_sum_lebesgue(lebesgue_unit):
    ifs, p = lebesgue_unit
    h = histogram(ifs, p, 5)
    h_lo, h_up = entropy_sum(h)
    # the true level-5 entropy is exactly 5 bits; the lower side hits it
    assert h_lo == pytest.approx(5.0, abs=1e-9)
    assert h_lo <= 5.0 + 1e-9 <= h_up + 1e-9
    assert h_up <= 6.5


def test_entropy_sum_bounds(biased13):
    ifs, p = biased13
    h = histogram(ifs, p, 9)
    h_lo, h_up = entropy_sum(h)
    assert 0.0 <= h_lo <= h_up


def test_entropy_growth(cantor13):
    ifs, p = cantor13
    mids = []
    for n in (5, 8, 11):
        h_lo, h_up = entropy_sum(histogram(ifs, p, n))
        mids.append(0.5 * (h_lo + h_up))
    assert mids[0] < mids[1] < mids[2]


@settings(max_examples=80, deadline=None)
@given(span=st.sampled_from([1, 2, 1 << 16, (1 << 16) + 1, 2897 ** 2,
                             (1 << 32) - 1, 1 << 32, (1 << 32) + 5,
                             1 << 47, 1 << 62]) | st.integers(1, 1 << 62),
       size=st.integers(0, 5000), distinct=st.integers(1, 300),
       seed=st.integers(0, 2 ** 32 - 1))
@example(span=1 << 62, size=4, distinct=4, seed=0)
@example(span=1 << 61, size=4, distinct=4, seed=0)
def test_stable_order_is_stable_argsort(span, size, distinct, seed):
    """The sorted sums of parts take np.argsort(kind="stable")'s order of
    the joined codes, bit for bit: through unique keys code << b | row, and
    through the stable argsort itself where a key would pass 63 bits (spans
    near 2^62; the examples need 64 and 63 bits), with many equal codes,
    and on empty input."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, span, size=distinct, dtype=np.int64)
    pool[0] = span - 1
    codes = rng.choice(pool, size=size)
    weights = rng.random(size)
    cuts = np.sort(rng.integers(0, size + 1, size=3))
    idx, sums = _sorted_sums(list(zip(np.split(codes, cuts), np.split(weights, cuts))), span)
    want_idx, want_sums = stable_sums(codes, weights)
    assert np.array_equal(idx, want_idx)
    assert sums.tobytes() == want_sums.tobytes()


def test_sorted_sums_peak_memory():
    """The over-cap sums of 2^20 rows in 2^15-row parts hold at most the
    joined codes (turned into keys), the joined weights, the rows of the
    sorted keys and the weights in that order: 32 traced bytes per row
    (16-bit radix passes over the codes read 43)."""
    rng = np.random.default_rng(9)
    span, rows = 2897 ** 2, 1 << 20
    pool = rng.integers(0, span, size=1 << 17)
    sums = _CellSums(span)
    for _ in range(0, rows, 1 << 15):
        sums.add(rng.choice(pool, size=1 << 15), rng.random(1 << 15))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sums.sums()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 36 * rows


def test_dense_copy_keeps_sum_bits():
    """Copying only the occupied cells of dense sums gives the bits of a
    full copy, and the copy goes on taking adds like one, apart from the
    sums it came from."""
    rng = np.random.default_rng(6)
    span = 1 << 20
    sums = _CellSums(span)
    sums.add(rng.integers(0, span, size=3000), rng.random(3000))
    before = sums.dense.tobytes()
    full = copy.copy(sums)
    full.dense = sums.dense.copy()
    part = sums.copy()
    assert part.dense.tobytes() == full.dense.tobytes()
    codes, weights = rng.integers(0, span, size=4000), rng.random(4000)
    for other in (full, part):
        other.add(codes, weights)
    assert part.dense.tobytes() == full.dense.tobytes()
    assert sums.dense.tobytes() == before


def test_sparse_aggregate_keeps_sum_bits():
    """Above the dense cap the sums are the stable-argsort reduceat sums."""
    rng = np.random.default_rng(4)
    span = 2897 ** 2
    codes = rng.choice(rng.integers(0, span, size=3000), size=20000)
    weights = rng.random(20000) * 10.0 ** rng.uniform(-12, 0, 20000)
    idx, sums = _sorted_sums([(codes, weights)], span)
    want_idx, want_sums = stable_sums(codes, weights)
    assert np.array_equal(idx, want_idx)
    assert sums.tobytes() == want_sums.tobytes()
