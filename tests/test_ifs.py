"""System construction, coding map, separation, and JSON round trips."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracles import coding_map_partial
from selfsim import (BudgetError, HomogeneousIfs, Similarity, SpecError,
                     check_strong_separation, check_weights, cylinder_words,
                     entropy, ifs_from_json, similarity_dimension,
                     uniform_weights, unrank_word)
from selfsim import ifs as ifs_module
from selfsim.histogram import _merge_close_points
from selfsim.ifs import _grid_windows


def test_similarity_validation():
    with pytest.raises(SpecError):
        Similarity(ratio=1.0, sign=1)
    with pytest.raises(SpecError):
        Similarity(ratio=0.5, sign=1, alpha=0.25)
    with pytest.raises(SpecError):
        Similarity(ratio=0.5, sign=2)
    with pytest.raises(SpecError):
        Similarity(ratio=0.5, alpha=1.5)
    # a map with neither sign nor alpha is rejected at system construction
    bare = Similarity(ratio=0.5)
    with pytest.raises(SpecError):
        HomogeneousIfs(1, bare, np.array([0.0, 0.5]))


def test_ifs_validation():
    sim = Similarity(ratio=0.5, sign=1)
    with pytest.raises(SpecError):
        HomogeneousIfs(1, sim, np.array([0.3]))
    with pytest.raises(SpecError):
        HomogeneousIfs(1, sim, np.array([0.3, 0.3]))
    with pytest.raises(SpecError):
        HomogeneousIfs(2, sim, np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(SpecError):
        HomogeneousIfs(1, sim, np.array([0.0, np.inf]))


def test_weights_validation():
    p = check_weights([0.25, 0.75])
    assert not p.flags.writeable
    with pytest.raises(SpecError):
        check_weights([0.5, 0.6])
    with pytest.raises(SpecError):
        check_weights([1.0, 0.0])
    with pytest.raises(SpecError):
        check_weights([0.5, 0.5], 3)


def test_lam_and_attractor(cantor13):
    ifs, p = cantor13
    assert ifs.lam == pytest.approx(1 / 3)
    assert ifs.attractor_center == pytest.approx(0.5)
    assert ifs.attractor_radius == pytest.approx(0.5)


def test_negative_sign_lam():
    ifs = HomogeneousIfs(1, Similarity(ratio=0.4, sign=-1),
                         np.array([0.0, 0.6]))
    assert ifs.lam == pytest.approx(-0.4)
    assert ifs.linear_power(2) == pytest.approx(0.16)
    pts = np.array([1.0, 2.0])
    assert np.allclose(ifs.apply_power(1, pts), -0.4 * pts)


def test_rotation_linear_power():
    ifs = HomogeneousIfs(2, Similarity(ratio=0.5, alpha=0.125),
                         np.array([[0.0, 0.0], [1.0, 0.0]]))
    m1 = ifs.linear_power(1)
    m4 = ifs.linear_power(4)
    # alpha = 1/8 of a turn, so the fourth power is a half turn
    assert np.allclose(m4, -0.5 ** 4 * np.eye(2), atol=1e-15)
    assert np.allclose(np.linalg.matrix_power(m1, 4), m4, atol=1e-15)


def test_entropy_and_sim_dim(cantor13, biased13):
    ifs, p = cantor13
    assert entropy(p) == pytest.approx(1.0)
    assert similarity_dimension(ifs, p) == pytest.approx(
        math.log(2) / math.log(3), abs=1e-14)
    ifs_b, p_b = biased13
    hb = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert similarity_dimension(ifs_b, p_b) == pytest.approx(
        hb / math.log2(3), abs=1e-14)


def test_coding_map_partial(cantor13):
    ifs, _ = cantor13
    c, tail = coding_map_partial(ifs, (2, 2))
    assert c == pytest.approx(2 / 3 + 2 / 9)
    assert tail == pytest.approx(1 / 9)


def test_cylinder_ball_contains_deeper_centers(cantor13):
    """Every longer word starting with w stays inside w's enclosure, the
    ball B(c_w + T^|w| z*, r^|w| R) that histogram() settles words by."""
    ifs, _ = cantor13
    c, _ = coding_map_partial(ifs, (2, 1))
    center = c + ifs.apply_power(2, ifs.attractor_center)
    radius = ifs.map.ratio ** 2 * ifs.attractor_radius
    for word in [(2, 1, 1), (2, 1, 2), (2, 1, 1, 2, 2)]:
        c, tail = coding_map_partial(ifs, word)
        assert abs(c - center) <= radius + 1e-15


def test_cylinder_enumeration(cantor13):
    ifs, p = cantor13
    centers, w = cylinder_words(ifs, p, 2)
    assert np.allclose(centers, [0.0, 2 / 9, 2 / 3, 8 / 9])
    assert w.sum() == pytest.approx(1.0)
    # unrank agrees with the enumeration order
    for idx in range(4):
        word = unrank_word(idx, 2, ifs.m)
        c, _ = coding_map_partial(ifs, word)
        assert c == pytest.approx(centers[idx])


@st.composite
def _systems(draw):
    """Random 1D systems of either sign and 2D rotating ones, with weights."""
    dim = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(2, 4))
    ratio = draw(st.floats(0.1, 0.9))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    if dim == 1:
        sim = Similarity(ratio=ratio, sign=draw(st.sampled_from([-1, 1])))
        a = draw(st.lists(coord, min_size=m, max_size=m, unique=True))
    else:
        sim = Similarity(ratio=ratio, alpha=draw(st.floats(0.0, 0.999)))
        a = draw(st.lists(st.tuples(coord, coord), min_size=m, max_size=m,
                          unique=True))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    return HomogeneousIfs(dim, sim, np.array(a)), raw / raw.sum()


@settings(max_examples=60, deadline=None)
@given(system=_systems(), length=st.integers(1, 5))
def test_cylinder_words_match_coding_map(system, length):
    """Row i is the word unrank_word(i): its partial sum and product weight."""
    ifs, p = system
    centers, weights = cylinder_words(ifs, p, length)
    assert centers.shape == (ifs.m ** length,) + ifs.translations.shape[1:]
    scale = ifs.coarse_radius
    for i in range(ifs.m ** length):
        word = unrank_word(i, length, ifs.m)
        c, _ = coding_map_partial(ifs, word)
        assert np.max(np.abs(centers[i] - c)) <= 1e-12 * scale
        assert weights[i] == pytest.approx(math.prod(p[s - 1] for s in word),
                                           rel=1e-14)


def test_cylinder_words_budget():
    three = HomogeneousIfs(1, Similarity(ratio=0.3, sign=1),
                           np.array([0.0, 0.35, 0.7]))
    p = uniform_weights(3)
    with pytest.raises(BudgetError) as err:
        cylinder_words(three, p, 1, word_budget=2)
    assert "3 rows at depth 1" in str(err.value)
    with pytest.raises(BudgetError) as err:
        cylinder_words(three, p, 4, word_budget=80)
    assert "81 rows at depth 4" in str(err.value)
    assert cylinder_words(three, p, 4, word_budget=81)[0].shape == (81,)
    assert cylinder_words(three, p, 1, word_budget=3)[0].shape == (3,)
    with pytest.raises(SpecError):
        cylinder_words(three, p, 0)


def test_cylinder_words_merge(golden_bc):
    """Merging keeps the total weight and moves no center by more than
    one quantum per merged level."""
    ifs, p = golden_bc
    length, quantum = 14, 2.0 ** -30
    full_c, full_w = cylinder_words(ifs, p, length)
    assert full_c.size == 2 ** length > 4096
    depths = []

    def merge(depth, centers, weights):
        depths.append(depth)
        return _merge_close_points(centers, weights, quantum)

    merged_c, merged_w = cylinder_words(ifs, p, length, level_hook=merge)
    assert depths == list(range(1, length + 1))
    assert merged_c.size < 2 ** length
    assert abs(merged_w.sum() - full_w.sum()) <= 1e-12
    assert abs(merged_w.sum() - 1.0) <= 1e-12
    ref = np.sort(full_c)
    pos = np.clip(np.searchsorted(ref, merged_c), 1, ref.size - 1)
    nearest = np.minimum(np.abs(ref[pos] - merged_c), np.abs(ref[pos - 1] - merged_c))
    assert np.all(nearest <= (length - 1) * quantum)


def _brute_force_overlap(ifs, depth):
    """Every pair of depth-length words with different first symbols whose
    cylinder balls B(c_w + T^depth z*, r^depth R) meet, by a plain loop
    over the words."""
    words = list(itertools.product(range(1, ifs.m + 1), repeat=depth))
    shift = ifs.apply_power(depth, ifs.attractor_center)
    radius = ifs.map.ratio ** depth * ifs.attractor_radius
    balls = {w: (coding_map_partial(ifs, w)[0] + shift, radius) for w in words}
    pairs = []
    for w1, w2 in itertools.combinations(words, 2):
        if w1[0] != w2[0]:
            (c1, r1), (c2, r2) = balls[w1], balls[w2]
            if np.linalg.norm(np.atleast_1d(c1 - c2)) <= r1 + r2:
                pairs.append((w1, w2))
    return pairs, balls


@pytest.mark.parametrize("name,depth", [("golden", 8), ("rotating_overlap", 5),
                                        ("rotating_four_corner", 3),
                                        ("four_corner", 4), ("four_corner_overlap", 4)])
def test_separation_matches_brute_force(name, depth, golden_bc, four_corner,
                                        monkeypatch):
    if name == "golden":
        ifs = golden_bc[0]
    elif name == "rotating_overlap":
        ifs = HomogeneousIfs(2, Similarity(ratio=0.6, alpha=0.1),
                             np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]]))
    elif name == "four_corner":
        ifs = four_corner[0]
    elif name == "four_corner_overlap":
        # rotation-free, corners of the unit square at ratio 0.55: words
        # under different first symbols meet across both axes
        ifs = HomogeneousIfs(2, Similarity(ratio=0.55, alpha=0.0),
                             np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    else:
        ifs = HomogeneousIfs(2, Similarity(ratio=1 / 3, alpha=0.25),
                             four_corner[0].translations)
    cert = check_strong_separation(ifs, depth)
    # the grid scan, comparing a few word pairs at a time, gives the same
    # certificate as word_gap's shortcut where that applies
    monkeypatch.setattr(ifs_module, "_SCAN_PAIRS", 5)
    monkeypatch.setattr(ifs_module, "word_gap", lambda ifs: -math.inf)
    assert check_strong_separation(ifs, depth) == cert
    pairs, balls = _brute_force_overlap(ifs, depth)
    assert cert.depth == depth
    assert cert.separated == (not pairs)
    if not cert.separated:
        # the witness is the first pair by first symbols, then by words
        assert cert.overlap == min(pairs, key=lambda pr: (pr[0][0], pr[1][0], pr))
        w1, w2 = cert.overlap
        assert len(w1) == len(w2) == depth
        assert w1[0] != w2[0]
        (c1, _), (c2, _) = balls[w1], balls[w2]
        rho = ifs.map.ratio ** depth * ifs.attractor_radius
        assert np.linalg.norm(np.atleast_1d(c1 - c2)) <= 2 * rho + 1e-12


def test_separation_window_is_local(four_corner):
    """At depth 8 on the four-corner set, the grid window offers each word a
    few nearby words and none across groups; an x-only strip offers 128
    across the groups that share an x range."""
    ifs = four_corner[0]
    depth = 8
    centers = cylinder_words(ifs, uniform_weights(4), depth)[0]
    centers += ifs.apply_power(depth, ifs.attractor_center)
    gap = 2.0 * ifs.ratio ** depth * ifs.attractor_radius
    size = centers.shape[0] // 4
    blocks = [centers[j * size:(j + 1) * size] for j in range(4)]
    # a block against itself: every word's own neighbourhood
    assert _grid_windows(blocks[0], blocks[0], gap)[2].sum() <= 4 * size
    for j, j2 in itertools.combinations(range(4), 2):
        assert _grid_windows(blocks[j], blocks[j2], gap)[2].sum() == 0
    xs = np.sort(blocks[2][:, 0])
    strip = (np.searchsorted(xs, blocks[0][:, 0] + gap, "right")
             - np.searchsorted(xs, blocks[0][:, 0] - gap, "left"))
    assert strip.sum() == 128 * size
    assert check_strong_separation(ifs, depth).separated


@pytest.mark.parametrize("name,depth", [("cantor", 16), ("golden", 18)])
def test_separation_memory(name, depth, cantor13, golden_bc, monkeypatch):
    """Only nearby words are compared, a bounded number of pairs at a time.

    A 4096-row difference matrix against the other group took about 1 GiB
    at Cantor depth 16. The bound holds both when no pair is close (Cantor)
    and when many are (golden, whose candidate pairs alone would take about
    130 MB unchunked). Cantor's word_gap certifies it without a scan, so
    the scan is forced."""
    ifs = cantor13[0] if name == "cantor" else golden_bc[0]
    monkeypatch.setattr(ifs_module, "word_gap", lambda ifs: -math.inf)
    tracemalloc.start()
    try:
        separated = check_strong_separation(ifs, depth).separated
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert separated == (name == "cantor")
    assert peak < 64 * 2 ** 20


def test_separation_cantor(cantor13):
    ifs, _ = cantor13
    cert = check_strong_separation(ifs, 1)
    assert cert.separated
    assert cert.status == "Separated"


def test_separation_inconclusive(lebesgue_unit):
    ifs, _ = lebesgue_unit
    cert = check_strong_separation(ifs, 4)
    assert not cert.separated
    assert cert.overlap is not None
    w1, w2 = cert.overlap
    assert len(w1) == 4, "witness words carry the requested depth"
    assert w1 != w2


def test_separation_2d(four_corner):
    ifs, _ = four_corner
    assert check_strong_separation(ifs, 1).separated


def test_json_roundtrip(cantor13):
    ifs, p = cantor13
    doc = {"ambient_dim": 1, "ratio": 1 / 3, "sign": 1,
           "translations": [0.0, 2 / 3], "weights": [0.5, 0.5],
           "label": "cantor13"}
    back, q = ifs_from_json(doc)
    assert back.ambient_dim == 1
    assert back.map.ratio == pytest.approx(ifs.map.ratio)
    assert np.allclose(back.translations, ifs.translations)
    assert np.allclose(q, p)
    # string form parses too
    back2, _ = ifs_from_json(json.dumps(doc))
    assert back2.label == ifs.label


def test_json_roundtrip_2d(four_corner):
    ifs, p = four_corner
    doc = {"ambient_dim": 2, "ratio": 1 / 3, "alpha": 0.0,
           "translations": [[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3], [2 / 3, 2 / 3]],
           "weights": [0.25] * 4}
    back, q = ifs_from_json(doc)
    assert back.ambient_dim == 2
    assert back.map.alpha == 0.0
    assert np.allclose(back.translations, ifs.translations)
    assert np.allclose(q, p)


def test_json_integral_fields():
    """Integral floats are integers; other numbers are refused, not truncated."""
    doc = {"ambient_dim": 1, "ratio": 0.5, "sign": -1.0, "translations": [0.0, 0.5]}
    assert ifs_from_json(doc)[0].map.sign == -1
    for bad in (-1.7, "-1", True):
        with pytest.raises(SpecError) as err:
            ifs_from_json(dict(doc, sign=bad))
        assert "sign" in str(err.value)


def test_json_missing_field():
    with pytest.raises(SpecError) as err:
        ifs_from_json({"ambient_dim": 1, "ratio": 0.5})
    assert "translations" in str(err.value)


def test_json_default_weights():
    doc = {"ambient_dim": 1, "ratio": 0.5, "sign": 1,
           "translations": [0.0, 0.5]}
    _, q = ifs_from_json(doc)
    assert np.allclose(q, [0.5, 0.5])
