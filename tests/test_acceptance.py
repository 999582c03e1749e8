"""Acceptance suite: one test per headline criterion, pinned tolerances.

Each test prints one ACCEPTANCE line (also echoed in the terminal
summary) so the criterion outcomes are readable at a glance.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from selfsim import (ConvolvedMeasure, EkSpec, HomogeneousIfs,
                     SelfSimilarMeasure, Similarity, build_moment_table,
                     check_submultiplicativity, convolve_hist, ek_badness,
                     ek_count_sequences, estimate_D1, estimate_Dq, ft_eval,
                     histogram, project_ifs, similarity_dimension, skip_keep,
                     table_from_histograms, uniform_weights)
from selfsim.cli import main

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_criterion_1_closed_form_interval(acceptance, cantor13, biased13):
    """Certified interval contains the closed-form D_2; width <= 0.04; < 10 s."""
    targets = [
        (cantor13, math.log(2) / math.log(3), "uniform"),
        (biased13, math.log(8 / 5) / math.log(3), "biased"),
    ]
    parts = []
    ok = True
    for (ifs, p), truth, name in targets:
        t0 = time.perf_counter()
        table = build_moment_table(ifs, p, [2.0], n_min=6, n_max=20,
                                   extra_depth=6)
        est = estimate_Dq(table, 2.0)
        dt = time.perf_counter() - t0
        contains = est.lo <= truth <= est.hi
        ok = ok and contains and est.width <= 0.04 and dt < 10.0
        parts.append(f"{name}: [{est.lo:.5f},{est.hi:.5f}] truth {truth:.5f} "
                     f"width {est.width:.4f} in {dt:.1f}s")
    acceptance(1, ok, "; ".join(parts))
    assert ok


def test_criterion_2_submultiplicativity(acceptance, ssc_factory):
    """One M <= 64 covers all triples n, m <= 10 on 20 random fixtures."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250819)
    worst = 0.0
    holds = True
    for _ in range(20):
        ifs, p = ssc_factory(rng)
        table = build_moment_table(ifs, p, [1.5, 2.0, 3.0], n_min=1, n_max=20)
        for q in (1.5, 2.0, 3.0):
            rep = check_submultiplicativity(table, q, 64.0)
            holds = holds and rep.holds
            worst = max(worst, rep.m_min_empirical)
    dt = time.perf_counter() - t0
    ok = holds and dt < 60.0
    acceptance(2, ok, f"M=64 holds on 20 fixtures x 3 q; worst empirical "
                      f"M {worst:.3f}; {dt:.1f}s")
    assert ok


def test_criterion_3_fourier_closed_form(acceptance):
    """sinc match within 1e-6 + truncation, and the refinement identity."""
    t0 = time.perf_counter()
    sinc_ifs = HomogeneousIfs(1, Similarity(ratio=0.5, sign=1),
                              np.array([-1.0, 1.0]))
    p2 = uniform_weights(2)
    xi = np.linspace(0.1, 100.0, 1000)
    worst_excess = 0.0
    for x in xi:
        val, err = ft_eval(sinc_ifs, p2, float(x), tol=1e-9)
        target = math.sin(2 * math.pi * x) / (2 * math.pi * x)
        worst_excess = max(worst_excess, abs(val - target) - (1e-6 + err))
    dt_sinc = time.perf_counter() - t0
    sinc_ok = worst_excess <= 0.0 and dt_sinc < 5.0

    tol = 1e-9
    rng = np.random.default_rng(333)
    worst_refine = 0.0
    for _ in range(10):
        m = int(rng.integers(2, 4))
        lam = float(rng.uniform(0.25, 0.7))
        tr = np.sort(rng.uniform(-1.0, 1.0, size=m))
        w = rng.uniform(0.2, 1.0, size=m)
        w = w / w.sum()
        ifs = HomogeneousIfs(1, Similarity(ratio=lam, sign=1), tr)
        for x in rng.uniform(-80.0, 80.0, size=100):
            full, _ = ft_eval(ifs, w, float(x), tol=tol)
            tail, _ = ft_eval(ifs, w, float(lam * x), tol=tol)
            phi0 = np.sum(w * np.exp(1j * math.pi * tr * x))
            worst_refine = max(worst_refine, abs(full - phi0 * tail))
    refine_ok = worst_refine <= 2 * tol
    ok = sinc_ok and refine_ok
    acceptance(3, ok, f"sinc worst excess {worst_excess:.2e} in {dt_sinc:.1f}s; "
                      f"refinement worst {worst_refine:.2e} <= {2 * tol:.0e}")
    assert ok


def _exact_good_count(rep):
    """Good indices at the scan's witness t, recounted in exact rationals.

    Translations scan with u = 1: n is good when ||t theta^n|| <= c, with
    theta = 1/lam exactly for the float lam the spec holds, so the count is
    free of the rounding in the scanner's float grid products.
    """
    spec = rep.spec
    t = Fraction(rep.witness_t)
    theta = 1 / Fraction(spec.lam)
    c = Fraction(spec.c)
    return sum(abs(x - round(x)) <= c
               for x in (t * theta ** n for n in range(1, spec.N + 1)))


def test_criterion_4_pisot_non_decay(acceptance, golden_bc):
    """Golden |mu^(theta^n)| stays above P^2; badness is a true lower bound.

    With theta = 1/lam the Pisot identity theta^j + (-lam)^j in Z gives
    |cos(pi theta^j)| = |cos(pi lam^j)|, so for the kernel exp(i pi x xi)
    |mu^(theta^n)| = prod_{j=1..n} |cos(pi lam^j)| * P with
    P = prod_{j>=1} |cos(pi lam^j)|. This decreases in n to P^2 > 0, which
    the test computes with mpmath and uses as the floor over n = 10..25
    (less the reported truncation bound and 1e-12 of float rounding).
    t = theta puts ||t theta^n|| = lam^(n+1) <= 0.15 for every n >= 3, so
    the golden badness is at least 28/30 >= 0.9. The generic ratio 0.7
    must score below it, and for both scans the good indices recounted in
    exact rationals at the reported witness t must number badness * N.
    """
    mpmath = pytest.importorskip("mpmath")
    ifs, p = golden_bc
    theta = 1.0 / GOLDEN
    with mpmath.workdps(40):
        lam = (mpmath.sqrt(5) - 1) / 2
        P = mpmath.fprod(abs(mpmath.cos(mpmath.pi * lam ** j))
                         for j in range(1, 200))
        p_sq = float(P ** 2)
    values = [ft_eval(ifs, p, theta ** n, tol=1e-12) for n in range(10, 26)]
    floor = min(abs(val) for val, _ in values)
    slack = max(err for _, err in values) + 1e-12
    floor_ok = floor >= p_sq - slack

    N = 30
    golden_rep = ek_badness(EkSpec(kind="translations", N=N, c=0.15,
                                   lam=GOLDEN))
    golden_ok = golden_rep.badness >= 0.9
    generic_rep = ek_badness(EkSpec(kind="translations", N=N, c=0.15,
                                    lam=0.7))
    golden_count = _exact_good_count(golden_rep)
    generic_count = _exact_good_count(generic_rep)
    contrast_ok = (generic_rep.badness < golden_rep.badness
                   and golden_count == round(golden_rep.badness * N)
                   and generic_count == round(generic_rep.badness * N))

    ok = floor_ok and golden_ok and contrast_ok
    acceptance(4, ok,
               f"|mu^| floor {floor:.12f} (>= P^2 {p_sq:.12f} - "
               f"{slack:.1e}: {floor_ok}); "
               f"golden badness {golden_rep.badness:.4f} (>= 0.9: {golden_ok}); "
               f"lam 0.7 badness {generic_rep.badness:.4f} (< golden, exact "
               f"recounts {golden_count}/{N} and {generic_count}/{N}: "
               f"{contrast_ok})")
    assert floor_ok, f"floor {floor:.12f} is below P^2 = {p_sq:.12f}"
    assert golden_ok
    assert contrast_ok, (f"badness {golden_rep.badness:.4f} / "
                         f"{generic_rep.badness:.4f} against exact recounts "
                         f"{golden_count}/{N} / {generic_count}/{N}")


def test_criterion_5_skip_keep(acceptance, ssc_factory):
    """(1 - 1/k) s exact to 1e-12, and reconstruction sandwich containment."""
    rng = np.random.default_rng(555)
    fixtures = [ssc_factory(rng) for _ in range(10)]
    worst_dim = 0.0
    worst_gap = 0.0
    for ifs, p in fixtures:
        s = similarity_dimension(ifs, p)
        direct = histogram(ifs, p, 10)
        d_map = dict(zip(direct.indices.tolist(),
                         zip(direct.lower, direct.upper)))
        for k in (2, 3, 4):
            pair = skip_keep(ifs, p, k)
            s_k = similarity_dimension(pair.nu_ifs, pair.nu_weights)
            worst_dim = max(worst_dim, abs(s_k - (1.0 - 1.0 / k) * s))
            h_nu = histogram(pair.nu_ifs, pair.nu_weights, 14)
            h_eta = histogram(pair.eta_scaled_ifs, pair.eta_weights, 14)
            recon = convolve_hist(h_nu, h_eta, 1.0, n_out=10)
            r_map = dict(zip(recon.indices.tolist(),
                             zip(recon.lower, recon.upper)))
            for cell in set(d_map) | set(r_map):
                lo_d, up_d = d_map.get(cell, (0.0, 0.0))
                lo_r, up_r = r_map.get(cell, (0.0, 0.0))
                worst_gap = max(worst_gap, lo_d - up_r, lo_r - up_d)
    ok = worst_dim <= 1e-12 and worst_gap <= 1e-12
    acceptance(5, ok, f"10 fixtures, k in 2..4: worst |s_k - (1-1/k)s| "
                      f"{worst_dim:.2e}; worst reconstruction gap "
                      f"{worst_gap:.2e}")
    assert ok


def test_criterion_6_projection_directions(acceptance, four_corner):
    """Exact-overlap direction drops the dimension; a generic one does not."""
    ifs, p = four_corner
    merged, w = project_ifs(ifs, p, math.pi / 4)
    sim = similarity_dimension(merged, w)
    target = 1.5 / math.log2(3.0)
    sim_ok = abs(sim - target) <= 1e-10

    t_m = build_moment_table(merged, w, [2.0], n_min=6, n_max=14)
    d1_merged = estimate_D1(t_m)
    merged_ok = d1_merged.point < 0.98

    generic, w_g = project_ifs(ifs, p, 1.0)
    t_g = build_moment_table(generic, w_g, [2.0], n_min=6, n_max=14)
    d1_generic = estimate_D1(t_g)
    generic_ok = d1_generic.point >= 0.97

    ok = sim_ok and merged_ok and generic_ok
    acceptance(6, ok, f"merged sim dim {sim:.12f} (target {target:.12f}); "
                      f"D1(pi/4) {d1_merged.point:.4f} < 0.98; "
                      f"D1(1 rad) {d1_generic.point:.4f} >= 0.97")
    assert ok


def test_criterion_7_convolution_dimension(acceptance, cantor13, cantor14):
    """Cantor(1/3) * T_u Cantor(1/4) has correlation dimension near 1."""
    i1, p1 = cantor13
    i2, p2 = cantor14
    parts = []
    ok = True
    for u in (1.0, 0.7):
        t0 = time.perf_counter()
        conv = ConvolvedMeasure(SelfSimilarMeasure(i1, p1),
                                SelfSimilarMeasure(i2, p2), u)
        hists = [conv.histogram(n, guard=4) for n in range(6, 17)]
        est = estimate_Dq(table_from_histograms(hists, [2.0]), 2.0)
        dt = time.perf_counter() - t0
        in_range = 0.93 <= est.point <= 1.02
        ok = ok and in_range and dt < 120.0
        parts.append(f"u={u}: D2 {est.point:.4f} in {dt:.0f}s")
    acceptance(7, ok, "; ".join(parts))
    assert ok


def test_criterion_8_sequence_counting(acceptance):
    """Sub-threshold counts grow at most linearly; rates stable with slack."""
    rep0 = ek_count_sequences("convolutions", 18, 0.1, 0.0, theta1=2.0)
    by_n = dict(zip(rep0.ns, rep0.counts))
    base = by_n[8]
    linear_ok = all(by_n[n] <= base + 2 * (n - 8) for n in range(8, 19))

    rep25 = ek_count_sequences("convolutions", 18, 0.1, 0.25, theta1=2.0)
    rates = {n: r for n, r in zip(rep25.ns, rep25.rates)}
    picked = [rates[12], rates[15], rates[18]]
    rate_ok = max(picked) <= 2.0 * min(picked)

    ok = linear_ok and rate_ok
    acceptance(8, ok, f"delta=0 counts {rep0.counts[7:]} (linear: {linear_ok}); "
                      f"delta=0.25 rates {[round(r, 3) for r in picked]} "
                      f"within factor 2: {rate_ok}")
    assert ok


def test_criterion_9_cli_determinism(acceptance, tmp_path):
    """Every subcommand, run twice with one config, emits identical bytes."""
    c13 = {"ambient_dim": 1, "ratio": 1 / 3, "sign": 1,
           "translations": [0.0, 2 / 3], "label": "c13"}
    c14 = {"ambient_dim": 1, "ratio": 0.25, "sign": 1,
           "translations": [0.0, 0.75], "label": "c14"}
    golden = {"ambient_dim": 1, "ratio": GOLDEN, "sign": 1,
              "translations": [-1.0, 1.0], "label": "bc_golden"}
    four = {"ambient_dim": 2, "ratio": 1 / 3, "alpha": 0.0,
            "translations": [[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3],
                             [2 / 3, 2 / 3]], "label": "fc"}
    paths = {}
    for name, doc in (("c13", c13), ("c14", c14), ("golden", golden),
                      ("four", four)):
        fp = tmp_path / f"{name}.json"
        fp.write_text(json.dumps(doc))
        paths[name] = str(fp)

    invocations = {
        "dim": ["dim", "--ifs", paths["c13"], "--q", "2",
                "--levels", "6..10"],
        "entropy": ["entropy", "--ifs", paths["c13"], "--levels", "6..9"],
        "fourier": ["fourier", "--ifs", paths["golden"], "--bands", "8",
                    "--samples-per-band", "8", "--seed", "3"],
        "project": ["project", "--ifs", paths["four"], "--beta", "1.0",
                    "--n", "5"],
        "convolve": ["convolve", "--ifs", paths["c13"], "--other",
                     paths["c14"], "--u", "0.7", "--n", "6"],
        "skipkeep": ["skipkeep", "--ifs", paths["c13"], "--k", "2",
                     "--n", "6"],
        "ekscan": ["ekscan", "translations", "--lam", "0.618", "--N", "12",
                   "--c", "0.15", "--t-grid", "256"],
        "ekcount": ["ekcount", "convolutions", "--theta1", "2.0",
                    "--N", "10", "--delta", "0.25"],
        "sweep": ["sweep", "translations", "--vary", "lam", "--lo", "0.5",
                  "--hi", "0.7", "--steps", "4", "--N", "10", "--c", "0.1",
                  "--t-grid", "128", "--jobs", "2"],
        "check": ["check", "--ifs", paths["c13"]],
    }
    mismatched = []
    for name, argv in invocations.items():
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{name}_{run}.csv"
            code = main(argv + ["-o", str(out)])
            assert code == 0, f"{name} exited {code}"
            blob = out.read_bytes()
            extra = out.with_name(out.name + ".bands.csv")
            if extra.exists():
                blob += extra.read_bytes()
            outputs.append(blob)
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    ok = not mismatched
    acceptance(9, ok, f"10 subcommands byte-identical on rerun"
                      f"{'' if ok else '; mismatches: ' + ','.join(mismatched)}")
    assert ok
