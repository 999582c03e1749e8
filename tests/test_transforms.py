"""Projections, convolutions, digit splits, products, and spec documents."""

import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfsim import (BudgetError, DyadicHistogram, HomogeneousIfs,
                     SelfSimilarMeasure, Similarity, SpecError, convolve_hist,
                     histogram, histogram_project, load_measure_spec,
                     product_ifs, project_ifs, resolve_spec,
                     similarity_dimension, skip_keep_measure, transforms,
                     uniform_weights)
from selfsim.histogram import _EPS_BASE, _box_range, bin_weighted_intervals

from kernel_oracles import buffered_pair_sums, collecting_bin_cells


def _overlap_gap(h_a, h_b):
    """Worst violation of per-cell interval overlap between two 1D sandwiches."""
    da = dict(zip(h_a.indices.tolist(), zip(h_a.lower, h_a.upper)))
    db = dict(zip(h_b.indices.tolist(), zip(h_b.lower, h_b.upper)))
    worst = 0.0
    for k in set(da) | set(db):
        lo_a, up_a = da.get(k, (0.0, 0.0))
        lo_b, up_b = db.get(k, (0.0, 0.0))
        worst = max(worst, lo_a - up_b, lo_b - up_a)
    return worst


def test_projection_merge_oracle(four_corner):
    """beta = pi/4 collapses the two off-diagonal corners onto one map."""
    ifs, p = four_corner
    merged, w = project_ifs(ifs, p, math.pi / 4)
    assert merged.m == 3
    assert np.allclose(sorted(w), [0.25, 0.25, 0.5])
    expected = 1.5 / math.log2(3.0)
    assert similarity_dimension(merged, w) == pytest.approx(expected, abs=1e-12)


def test_projection_no_merge(four_corner):
    ifs, p = four_corner
    proj, w = project_ifs(ifs, p, 1.0)
    assert proj.m == 4
    assert np.allclose(w, 0.25)
    assert similarity_dimension(proj, w) == pytest.approx(
        2 * math.log(2) / math.log(3), abs=1e-12)


def test_projection_axis_marginal(four_corner, cantor13):
    """beta = 0 recovers the x-marginal, here a Cantor factor."""
    ifs, p = four_corner
    c13, _ = cantor13
    proj, w = project_ifs(ifs, p, 0.0)
    assert np.allclose(proj.translations, c13.translations)
    assert np.allclose(w, 0.5)


def test_projection_rejects_rotation():
    rot = HomogeneousIfs(2, Similarity(ratio=0.4, alpha=0.3),
                         np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(SpecError):
        project_ifs(rot, uniform_weights(2), 0.5)


def test_histogram_project_brackets_mass(four_corner):
    ifs, p = four_corner
    h2 = histogram(ifs, p, 7)
    h1 = histogram_project(h2, 1.0, 7)
    assert h1.ambient_dim == 1
    assert h1.total_lower() <= 1.0 + 1e-12
    assert h1.total_upper() >= 1.0 - 1e-12


def test_histogram_project_matches_merged_system(four_corner):
    """Pushforward binning and the merged 1D system bound the same measure."""
    ifs, p = four_corner
    merged, w = project_ifs(ifs, p, math.pi / 4)
    direct = histogram(merged, w, 6)
    pushed = histogram_project(histogram(ifs, p, 6), math.pi / 4, 6)
    assert _overlap_gap(pushed, direct) <= 1e-12


def test_convolution_triangle(lebesgue_unit):
    """Lebesgue * Lebesgue is the triangle density on [0, 2]."""
    ifs, p = lebesgue_unit
    h = histogram(ifs, p, 10)
    conv = convolve_hist(h, h, 1.0, n_out=4)
    w = conv.cell_width

    def triangle_cdf(x):
        x = min(max(x, 0.0), 2.0)
        if x <= 1.0:
            return x * x / 2.0
        return 1.0 - (2.0 - x) ** 2 / 2.0

    for k, lo, up in zip(conv.indices.tolist(), conv.lower, conv.upper):
        true_mass = triangle_cdf((k + 1) * w) - triangle_cdf(k * w)
        assert lo <= true_mass + 1e-12
        assert up >= true_mass - 1e-12


def test_convolution_negative_u(cantor13):
    """u = -1 reflects the second factor; totals still bracket 1."""
    ifs, p = cantor13
    h = histogram(ifs, p, 10)
    conv = convolve_hist(h, h, -1.0, n_out=6)
    assert conv.total_lower() <= 1.0 + 1e-12
    assert conv.total_upper() >= 1.0 - 1e-12
    # difference of two Cantor copies is symmetric about 0
    w = conv.cell_width
    mids = dict(zip(conv.indices.tolist(), 0.5 * (conv.lower + conv.upper)))
    for k, m in mids.items():
        mirror = -k - 1
        assert mirror in mids
        assert m == pytest.approx(mids[mirror], abs=1e-9)


def test_convolution_validation(cantor13):
    ifs, p = cantor13
    h8 = histogram(ifs, p, 8)
    h9 = histogram(ifs, p, 9)
    with pytest.raises(SpecError):
        convolve_hist(h8, h9, 1.0, n_out=5)
    with pytest.raises(SpecError):
        convolve_hist(h8, h8, 0.0, n_out=5)
    with pytest.raises(SpecError):
        convolve_hist(h8, h8, 1.0, n_out=9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_beta_and_u(bad, four_corner, cantor13):
    with pytest.raises(SpecError):
        histogram_project(histogram(*four_corner, 4), bad, 4)
    with pytest.raises(SpecError):
        transforms.project_measure(transforms.SelfSimilarMeasure(*four_corner),
                                   bad)
    h = histogram(*cantor13, 6)
    with pytest.raises(SpecError):
        convolve_hist(h, h, bad, n_out=4)
    m = transforms.SelfSimilarMeasure(*cantor13)
    with pytest.raises(SpecError):
        transforms.ConvolvedMeasure(m, m, bad)


def test_convolution_pair_budget(lebesgue_unit):
    """At n_out = n every column has its own code, so every pair is formed."""
    ifs, p = lebesgue_unit
    h = histogram(ifs, p, 13)
    assert h.num_cells == 8192
    with pytest.raises(BudgetError) as err:
        convolve_hist(h, h, 1.0, n_out=13)
    assert "forms 67108864 cell pairs (8192 x 8192 cells" in str(err.value)


def test_convolution_n17_within_default_budget():
    """Cantor(1/3) * T_0.7 Cantor(1/4) at n = 17 has 18962 x 4094 = 77.6M
    cell pairs at level 21, but forms fewer pairs than the 50M budget."""
    m = transforms.ConvolvedMeasure(
        transforms.SelfSimilarMeasure(_CANTOR13, [0.5, 0.5]),
        transforms.SelfSimilarMeasure(_CANTOR14, [0.5, 0.5]), 0.7)
    h = m.histogram(17)
    assert h.n == 17
    assert h.total_lower() <= 1.0 <= h.total_upper()


def _formed_pairs(h1, h2, u, n_out):
    """Pairs the pair stage forms, counted from the float pair geometry.

    Rows of h1 with the same k mod g pair with one sum per distinct column
    code: the output cell relative to k // g holding the whole pair (lower
    pass), or the first cell touched and the number touched (upper pass).
    Zero weights form no pair. Returns the larger of the two passes.
    """
    g = 1 << (h1.n - n_out)
    w_in = h1.cell_width
    y = np.stack([h2.indices * w_in * u, (h2.indices + 1) * w_in * u])
    (a0, a1), (b0, b1) = h1.box()[0], h2.box()[0]
    eps = _EPS_BASE * max(1.0, abs(a0 + min(u * b0, u * b1)),
                          abs(a1 + max(u * b0, u * b1)))
    scale = 2.0 ** n_out
    passes = [0, 0]
    for r in np.unique(h1.indices % g):
        rows = h1.indices % g == r
        k = h1.indices[rows][0]
        lo = k * w_in + y.min(axis=0)
        hi = k * w_in + w_in + y.max(axis=0)
        c_lo = np.floor((lo + eps) * scale).astype(np.int64) - k // g
        inside = (c_lo + k // g == np.floor((hi - eps) * scale)) & (h2.lower > 0)
        t_lo = np.floor((lo - eps) * scale).astype(np.int64)
        t_hi = np.floor((hi + eps) * scale).astype(np.int64)
        up_codes = set(zip((t_lo - k // g).tolist(), (t_hi - t_lo).tolist()))
        passes[0] += (np.count_nonzero(h1.lower[rows])
                      * np.unique(c_lo[inside]).size)
        passes[1] += np.count_nonzero(h1.upper[rows]) * len(up_codes)
    return max(passes)


def test_convolution_budget_bounds_column_sums(monkeypatch, lebesgue_unit):
    """With many residue groups the column sums' work is charged up front,
    even when few pairs would be formed."""
    ifs, p = lebesgue_unit
    h = histogram(ifs, p, 10)
    monkeypatch.setattr(transforms, "_PAIR_BUDGET", 100_000)
    assert _formed_pairs(h, h, 1.0, 1) <= 100_000 < 512 * 1024
    with pytest.raises(BudgetError) as err:
        convolve_hist(h, h, 1.0, n_out=1)
    assert "visits 512 x 1024 = 524288 group-column pairs" in str(err.value)


@pytest.fixture
def many_columns_per_code():
    """Cantor factors at level 12 binned at level 8 with u = 0.3."""
    h1 = histogram(_CANTOR13, [0.4, 0.6], 12)
    h2 = histogram(_CANTOR14, [0.7, 0.3], 12)
    return h1, h2, 0.3, 8


def test_convolution_budget_charges_formed_pairs(monkeypatch,
                                                 many_columns_per_code):
    """A budget between the pairs formed and h1 x h2 cells lets the call run."""
    h1, h2, u, n_out = many_columns_per_code
    want = convolve_hist(h1, h2, u, n_out=n_out)
    formed = _formed_pairs(h1, h2, u, n_out)
    raw = h1.num_cells * h2.num_cells
    assert formed * 4 < raw
    for budget in (formed, (formed + raw) // 2):
        monkeypatch.setattr(transforms, "_PAIR_BUDGET", budget)
        got = convolve_hist(h1, h2, u, n_out=n_out)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.lower, want.lower)
        assert np.array_equal(got.upper, want.upper)


def test_convolution_budget_names_formed_pairs(monkeypatch,
                                               many_columns_per_code):
    """A budget below the pairs formed raises and names their count."""
    h1, h2, u, n_out = many_columns_per_code
    formed = _formed_pairs(h1, h2, u, n_out)
    monkeypatch.setattr(transforms, "_PAIR_BUDGET", formed - 1)
    with pytest.raises(BudgetError) as err:
        convolve_hist(h1, h2, u, n_out=n_out)
    assert f"forms {formed} cell pairs" in str(err.value)
    assert f"over the budget {formed - 1}" in str(err.value)


def _all_pairs_convolve(h1, h2, u, n_out):
    """Reference convolution: every cell pair binned as a float interval."""
    w_in = h1.cell_width
    x_lo = h1.indices * w_in
    y_edges = np.stack([h2.indices * w_in * u, (h2.indices + 1) * w_in * u])
    y_lo = y_edges.min(axis=0)
    y_hi = y_edges.max(axis=0)

    pair_lo = (x_lo[:, None] + y_lo[None, :]).ravel()
    pair_hi = (x_lo[:, None] + w_in + y_hi[None, :]).ravel()
    low_w = (h1.lower[:, None] * h2.lower[None, :]).ravel()
    up_w = (h1.upper[:, None] * h2.upper[None, :]).ravel()

    (a0, a1) = h1.box()[0]
    (b0, b1) = h2.box()[0]
    cand = [a0 + min(u * b0, u * b1), a1 + max(u * b0, u * b1)]
    eps = _EPS_BASE * max(1.0, abs(cand[0]), abs(cand[1]))
    k0, k1 = _box_range(cand[0], cand[1], n_out, eps)
    idx, lower, upper = bin_weighted_intervals(
        pair_lo, pair_hi, low_w, up_w, n_out, k0, k1, eps)
    return DyadicHistogram(1, n_out, min(h1.depth_used, h2.depth_used),
                           (k0,), (k1,), idx, lower, upper)


_CANTOR13 = HomogeneousIfs(1, Similarity(ratio=1 / 3, sign=1),
                           np.array([0.0, 2 / 3]))
_CANTOR14 = HomogeneousIfs(1, Similarity(ratio=0.25, sign=1),
                           np.array([0.0, 0.75]))


def _check_matches_all_pairs(h1, h2, u, n_out):
    """convolve_hist against the oracle: same cells, same masses.

    The oracle sums every pair product; convolve_hist first sums the
    column weights that share a code and multiplies each row by those sums.
    The two sums are equal in exact arithmetic and differ in float rounding
    only, so a cell's mass may differ by 1e-15 plus 1e-14 of the mass
    (about 45 units in the last place). Sums of over a thousand products
    per cell reach 1.1e-15 at a mass of 0.55.
    """
    got = convolve_hist(h1, h2, u, n_out=n_out)
    want = _all_pairs_convolve(h1, h2, u, n_out)
    assert np.array_equal(got.indices, want.indices)
    assert (got.k_min, got.k_max) == (want.k_min, want.k_max)
    for a, b in ((got.lower, want.lower), (got.upper, want.upper)):
        assert np.all(np.abs(a - b) <= 1e-15 + 1e-14 * b)
    return got


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(u=st.sampled_from([1.0, -1.0, 0.5, 2.0, 0.7, -0.7, 0.3, 1.5]),
       guard=st.integers(0, 4), n=st.integers(8, 12),
       w1=st.floats(0.05, 0.95), w2=st.floats(0.05, 0.95))
def test_convolution_matches_all_pairs(u, guard, n, w1, w2):
    """Integer-offset accumulation reproduces the all-pairs float binning.

    The grid-exact scales (1, 1/2, 2, 3/2) put pair ends on cell edges, where
    the binning eps decides containment and touch.
    """
    h1 = histogram(_CANTOR13, [w1, 1.0 - w1], n)
    h2 = histogram(_CANTOR14, [w2, 1.0 - w2], n)
    got = _check_matches_all_pairs(h1, h2, u, n - guard)
    assert np.all(got.lower >= 0.0) and np.all(got.lower <= got.upper)
    assert got.total_lower() <= 1.0 <= got.total_upper()


def test_convolution_matches_all_pairs_many_columns_per_code(
        many_columns_per_code):
    """u = 0.3 with guard 4 puts many columns of h2 on each output code."""
    _check_matches_all_pairs(*many_columns_per_code)


@pytest.mark.parametrize("guard", [0, 1, 3])
def test_convolution_matches_all_pairs_rounded_edge(guard):
    """0.7 k rounds to just below an integer for k = 90, 170, 180.

    Only the inward eps then puts that pair end on the cell edge, so the
    containment rule is exercised where the float product undershoots.
    """
    n = 10
    h1 = DyadicHistogram(1, n, 1, (0,), (7,), np.arange(8), np.full(8, 0.1),
                         np.full(8, 0.125))
    h2 = DyadicHistogram(1, n, 1, (90,), (180,), np.array([90, 170, 180]),
                         np.full(3, 0.3), np.full(3, 1 / 3))
    _check_matches_all_pairs(h1, h2, 0.7, n - guard)


@pytest.mark.parametrize("chunk", [1, 97, 5000])
def test_convolution_matches_all_pairs_chunked(monkeypatch, chunk):
    """Folding pairs into the running sums chunk by chunk changes no cell."""
    monkeypatch.setattr(transforms, "_PAIR_CHUNK", chunk)
    h1 = histogram(_CANTOR13, [0.4, 0.6], 10)
    h2 = histogram(_CANTOR14, [0.7, 0.3], 10)
    _check_matches_all_pairs(h1, h2, -0.7, 8)


@pytest.mark.parametrize("u,guard", [(0.5, 1), (-1.5, 2)])
def test_convolution_matches_all_pairs_wide_span(u, guard):
    """Output spans above the dense cap take the sorted accumulation path."""
    sparse = HomogeneousIfs(1, Similarity(ratio=0.1, sign=1),
                            np.array([0.0, 0.9]))
    h = histogram(sparse, uniform_weights(2), 24)
    got = _check_matches_all_pairs(h, h, u, 24 - guard)
    assert got.k_max[0] - got.k_min[0] > 1 << 23
    assert np.count_nonzero(got.lower) > 0


_GOLDEN = HomogeneousIfs(1, Similarity(ratio=(math.sqrt(5.0) - 1.0) / 2.0, sign=1),
                         np.array([-1.0, 1.0]))
_NEGATIVE = HomogeneousIfs(1, Similarity(ratio=0.4, sign=-1), np.array([0.0, 0.6]))


def _buffered_convolve(h1, h2, u, n_out):
    """convolve_hist with the two-chunk pair buffer and every output cell
    binned in one call, as before the per-code sums."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "_pair_sums", buffered_pair_sums)
        mp.setattr(transforms, "_bin_cells",
                   lambda chunks, k_min, k_max: collecting_bin_cells(*chunks[0], k_min, k_max))
        return convolve_hist(h1, h2, u, n_out=n_out)


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from([("c13", "c14"), ("golden", "golden"), ("golden", "neg"),
                             ("neg", "c13")]),
       u=st.sampled_from([1.0, -1.0, 0.7, -1.3, 0.3]), n=st.integers(7, 11),
       guard=st.integers(0, 3), w=st.floats(0.05, 0.95),
       cap=st.sampled_from([1 << 23, 300, 0]), chunk=st.sampled_from([1 << 21, 97, 1]))
def test_convolution_matches_buffered_oracle(pair, u, n, guard, w, cap, chunk):
    """Adding each chunk of pairs into per-code sums as it forms changes no
    bit of the buffered folds, on both sides of the dense cap (patched to
    300 or 0 cells) and with many chunks (97 or 1 pairs, at least a row).
    The golden factors merge words."""
    assume(n <= 8 or "golden" not in pair)  # golden levels hold ~2^n cells
    systems = {"c13": (_CANTOR13, [w, 1.0 - w]), "c14": (_CANTOR14, [1.0 - w, w]),
               "golden": (_GOLDEN, [0.5, 0.5]), "neg": (_NEGATIVE, [w, 1.0 - w])}
    h1, h2 = (histogram(*systems[name], n) for name in pair)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(importlib.import_module("selfsim.histogram"), "_DENSE_SPAN_CAP", cap)
        mp.setattr(transforms, "_PAIR_CHUNK", chunk)
        got = convolve_hist(h1, h2, u, n_out=n - guard)
        want = _buffered_convolve(h1, h2, u, n - guard)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.lower, want.lower)
    assert np.array_equal(got.upper, want.upper)


@pytest.mark.parametrize("u,guard", [(0.5, 1), (-1.5, 2)])
def test_convolution_wide_span_matches_buffered_oracle(u, guard):
    """Pair codes above the real dense cap keep the fold every _PAIR_CHUNK
    pairs, patched small here so that several folds happen."""
    sparse = HomogeneousIfs(1, Similarity(ratio=0.1, sign=1), np.array([0.0, 0.9]))
    h = histogram(sparse, uniform_weights(2), 24)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "_PAIR_CHUNK", 64)
        got = convolve_hist(h, h, u, n_out=24 - guard)
        want = _buffered_convolve(h, h, u, 24 - guard)
    assert got.k_max[0] - got.k_min[0] > 1 << 23
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.lower, want.lower)
    assert np.array_equal(got.upper, want.upper)


def _no_words(*args, **kwargs):
    raise AssertionError("the keep factor expanded words")


def test_skip_keep_oracle(cantor13, monkeypatch):
    """Both factors at ratio r^k; the keep factor, its translations pushed
    through T^(k-1), never expands a word, so a deep stride is free, and
    the stride and part are checked before any word is."""
    m = SelfSimilarMeasure(*cantor13)
    skip = skip_keep_measure(m, 2, "skip")
    assert skip.ifs.map.ratio == pytest.approx(1 / 9)
    assert np.allclose(skip.ifs.translations, [0.0, 2 / 3])
    assert np.allclose(skip.p, 0.5)
    assert skip.label == "cantor13|skip2"
    monkeypatch.setattr(transforms, "cylinder_words", _no_words)
    keep = skip_keep_measure(m, 2, "keep")
    assert keep.ifs.map.ratio == pytest.approx(1 / 9)
    assert np.allclose(keep.ifs.translations, [0.0, 2 / 9])
    assert np.array_equal(keep.p, m.p)
    assert keep.label == "cantor13|keep2|scaled"
    deep = skip_keep_measure(m, 30, "keep")
    assert deep.ifs.map.ratio == pytest.approx(3.0 ** -30)
    assert np.array_equal(deep.ifs.translations,
                          (1 / 3) ** 29 * m.ifs.translations)
    with pytest.raises(SpecError, match="stride"):
        skip_keep_measure(m, 1, "keep")
    with pytest.raises(SpecError, match="part"):
        skip_keep_measure(m, 30, "both")


@pytest.mark.parametrize("k", [2, 3, 4])
def test_skip_keep_dimension_identity(k, ssc_factory):
    rng = np.random.default_rng(100 + k)
    for _ in range(4):
        ifs, p = ssc_factory(rng)
        s = similarity_dimension(ifs, p)
        nu = skip_keep_measure(SelfSimilarMeasure(ifs, p), k, "skip")
        s_k = similarity_dimension(nu.ifs, nu.p)
        assert abs(s_k - (1.0 - 1.0 / k) * s) <= 1e-12


def test_skip_keep_reconstruction(cantor13):
    """nu_k convolved with the scaled keep factor re-encloses the measure."""
    ifs, p = cantor13
    for k in (2, 3):
        nu, eta = (skip_keep_measure(SelfSimilarMeasure(ifs, p), k, part)
                   for part in ("skip", "keep"))
        h_nu = histogram(nu.ifs, nu.p, 12)
        h_eta = histogram(eta.ifs, eta.p, 12)
        recon = convolve_hist(h_nu, h_eta, 1.0, n_out=8)
        direct = histogram(ifs, p, 8)
        assert _overlap_gap(recon, direct) <= 1e-12


def test_product_matches_planar_fixture(cantor13, four_corner):
    c13, p = cantor13
    fc, _ = four_corner
    prod, w = product_ifs(c13, c13, p, p)
    assert prod.ambient_dim == 2
    assert prod.map.alpha == 0.0
    got = sorted(map(tuple, prod.translations.tolist()))
    want = sorted(map(tuple, fc.translations.tolist()))
    assert np.allclose(got, want)
    assert np.allclose(w, 0.25)


def test_product_negative_ratio_is_half_turn():
    a = HomogeneousIfs(1, Similarity(ratio=0.4, sign=-1), np.array([0.0, 0.6]))
    prod, _ = product_ifs(a, a, uniform_weights(2), uniform_weights(2))
    assert prod.map.alpha == 0.5
    pt = np.array([[1.0, 2.0]])
    assert np.allclose(prod.apply_power(1, pt), -0.4 * pt)


def test_product_requires_equal_ratio(cantor13, cantor14):
    c13, p13 = cantor13
    c14, p14 = cantor14
    with pytest.raises(SpecError) as err:
        product_ifs(c13, c14, p13, p14)
    assert "iterate" in str(err.value)


def test_resolve_plain_document(cantor13):
    ifs, p = cantor13
    doc = {"ambient_dim": 1, "ratio": 1 / 3, "sign": 1,
           "translations": [0.0, 2 / 3], "label": "c13"}
    rm = resolve_spec(doc)
    assert rm.kind == "ifs"
    assert np.allclose(rm.ifs.translations, ifs.translations)


def test_resolve_convolution_document(tmp_path):
    other = {"ambient_dim": 1, "ratio": 0.25, "sign": 1,
             "translations": [0.0, 0.75], "label": "c14"}
    (tmp_path / "c14.json").write_text(json.dumps(other))
    doc = {"ambient_dim": 1, "ratio": 1 / 3, "sign": 1,
           "translations": [0.0, 2 / 3], "label": "c13",
           "derive": {"kind": "convolution", "u": 0.7, "other": "c14.json"}}
    path = tmp_path / "conv.json"
    path.write_text(json.dumps(doc))
    rm = load_measure_spec(str(path))
    assert rm.kind == "convolution"
    assert rm.u == pytest.approx(0.7)
    assert rm.m1.ifs.map.ratio == pytest.approx(1 / 3)
    assert rm.m2.ifs.map.ratio == pytest.approx(0.25)
    h = rm.histogram(8)
    assert h.total_upper() >= 1.0 - 1e-12
    v, err = rm.ft(1.5)
    assert abs(v) <= 1.0 + err


def test_resolve_inline_other_and_product():
    doc = {"ambient_dim": 1, "ratio": 1 / 3, "sign": 1,
           "translations": [0.0, 2 / 3],
           "derive": {"kind": "product",
                      "other": {"ambient_dim": 1, "ratio": 1 / 3, "sign": 1,
                                "translations": [0.0, 2 / 3]}}}
    rm = resolve_spec(doc)
    assert rm.kind == "ifs"
    assert rm.ifs.ambient_dim == 2


def test_resolve_skip_keep_parts():
    base = {"ambient_dim": 1, "ratio": 1 / 3, "sign": 1,
            "translations": [0.0, 2 / 3]}
    skip = resolve_spec({**base, "derive": {"kind": "skip_keep", "k": 2,
                                            "part": "skip"}})
    assert skip.ifs.map.ratio == pytest.approx(1 / 9)
    keep = resolve_spec({**base, "derive": {"kind": "skip_keep", "k": 2,
                                            "part": "keep"}})
    assert np.allclose(keep.ifs.translations, [0.0, 2 / 9])
    with pytest.raises(SpecError):
        resolve_spec({**base, "derive": {"kind": "skip_keep", "k": 2,
                                         "part": "middle"}})


def test_resolve_projection_document(four_corner):
    ifs, _ = four_corner
    doc = {"ambient_dim": 2, "ratio": 1 / 3, "alpha": 0.0,
           "translations": [[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3],
                            [2 / 3, 2 / 3]],
           "derive": {"kind": "projection", "beta": math.pi / 4}}
    rm = resolve_spec(doc)
    assert rm.kind == "ifs", "rotation-free projection resolves to a 1D system"
    assert rm.ifs.m == 3
    rot = {"ambient_dim": 2, "ratio": 1 / 3, "alpha": 0.25,
           "translations": [[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3]],
           "derive": {"kind": "projection", "beta": 1.0}}
    rm2 = resolve_spec(rot)
    assert rm2.kind == "projection"
    h = rm2.histogram(6)
    assert h.ambient_dim == 1
    assert h.total_upper() >= 1.0 - 1e-12


def test_resolve_errors(tmp_path):
    base = {"ambient_dim": 1, "ratio": 0.5, "sign": 1,
            "translations": [0.0, 0.5]}
    with pytest.raises(SpecError):
        resolve_spec({**base, "derive": {"kind": "mystery"}})
    with pytest.raises(SpecError):
        resolve_spec({**base, "derive": {"kind": "convolution"}})
    with pytest.raises(SpecError):
        resolve_spec({**base, "derive": {"kind": "convolution", "u": 0.0,
                                         "other": base}})
    with pytest.raises(SpecError):
        load_measure_spec(str(tmp_path / "missing.json"))
    nested = {**base, "derive": {"kind": "convolution", "u": 1.0,
                                 "other": {**base,
                                           "derive": {"kind": "convolution",
                                                      "u": 1.0,
                                                      "other": base}}}}
    with pytest.raises(SpecError):
        resolve_spec(nested)
