"""Transform evaluation against closed forms, and decay fitting."""

import math

import numpy as np
import pytest

from selfsim import (BudgetError, ConvolvedMeasure, HomogeneousIfs,
                     PrecisionError, ProjectedMeasure, SelfSimilarMeasure,
                     Similarity, SpecError, decay_fit, ft_eval,
                     uniform_weights)

GOLDEN_FLOOR = 0.006613493036060793


def test_sinc_closed_form():
    """lambda = 1/2 with a = (-1, 1) gives exactly sin(2 pi xi)/(2 pi xi)."""
    ifs = HomogeneousIfs(1, Similarity(ratio=0.5, sign=1),
                         np.array([-1.0, 1.0]))
    p = uniform_weights(2)
    rng = np.random.default_rng(11)
    xi = rng.uniform(0.1, 100.0, size=200)
    for x in xi:
        val, err = ft_eval(ifs, p, float(x), tol=1e-9)
        target = math.sin(2 * math.pi * x) / (2 * math.pi * x)
        assert abs(val - target) <= 1e-6 + err


def test_value_at_zero(cantor13):
    ifs, p = cantor13
    val, err = ft_eval(ifs, p, 0.0)
    assert val == 1.0
    assert err == 0.0


def test_conjugate_symmetry(golden_bc):
    ifs, p = golden_bc
    for x in (0.7, 3.3, 21.0):
        v_pos, _ = ft_eval(ifs, p, x)
        v_neg, _ = ft_eval(ifs, p, -x)
        assert v_neg == pytest.approx(np.conj(v_pos), abs=1e-12)


def test_refinement_identity(cantor13, biased13, golden_bc):
    """mu^(xi) = Phi_0(xi) mu^(lam xi) within twice the truncation bound."""
    tol = 1e-9
    rng = np.random.default_rng(5)
    for ifs, p in (cantor13, biased13, golden_bc):
        lam = ifs.lam
        for x in rng.uniform(-50.0, 50.0, size=30):
            full, _ = ft_eval(ifs, p, float(x), tol=tol)
            tail, _ = ft_eval(ifs, p, float(lam * x), tol=tol)
            phi0 = np.sum(p * np.exp(1j * math.pi * ifs.translations * x))
            assert abs(full - phi0 * tail) <= 2 * tol


def test_golden_pisot_floor(golden_bc):
    """Frozen regression: |mu^| at Pisot power frequencies stays away from 0."""
    ifs, p = golden_bc
    theta = 1.0 / ifs.lam
    vals = [abs(ft_eval(ifs, p, theta ** n, tol=1e-12)[0])
            for n in range(10, 26)]
    assert min(vals) == pytest.approx(GOLDEN_FLOOR, rel=1e-9)
    assert min(vals) > 0.005


def test_precision_and_budget_errors(cantor13):
    ifs, p = cantor13
    with pytest.raises(PrecisionError):
        ft_eval(ifs, p, 1.0, tol=1e-16)
    slow = HomogeneousIfs(1, Similarity(ratio=0.999999, sign=1),
                          np.array([0.0, 1.0]))
    with pytest.raises(BudgetError):
        ft_eval(slow, uniform_weights(2), 1.0)


def test_ft_2d_product_structure(four_corner, cantor13):
    ifs2, p2 = four_corner
    ifs1, p1 = cantor13
    for s, t in ((1.3, 0.4), (7.0, 2.5)):
        v2, _ = ft_eval(ifs2, p2, (s, t))
        vx, _ = ft_eval(ifs1, p1, s)
        vy, _ = ft_eval(ifs1, p1, t)
        assert v2 == pytest.approx(vx * vy, abs=1e-9)


def test_projected_transform_matches_merge(four_corner):
    """Restriction to a direction equals the merged 1D system's transform."""
    from selfsim import project_ifs
    ifs, p = four_corner
    beta = math.pi / 4
    merged, w = project_ifs(ifs, p, beta)
    for x in (0.9, 4.2, 17.0):
        v_rest, _ = ProjectedMeasure(SelfSimilarMeasure(ifs, p), beta).ft(x)
        v_1d, _ = ft_eval(merged, w, x)
        assert v_rest == pytest.approx(v_1d, abs=1e-9)


def test_convolved_and_scaled_measures(cantor13, cantor14):
    i1, p1 = cantor13
    i2, p2 = cantor14
    m1, m2 = SelfSimilarMeasure(i1, p1), SelfSimilarMeasure(i2, p2)
    conv = ConvolvedMeasure(m1, m2, u=0.7)
    for x in (0.8, 5.0):
        v, err = conv.ft(x)
        v1, _ = m1.ft(x)
        v2, _ = m2.ft(0.7 * x)
        assert v == pytest.approx(v1 * v2, abs=1e-9)
        assert abs(v) <= 1.0 + err
    # self-convolution squares the transform
    auto = ConvolvedMeasure(m1, m1)
    v, _ = auto.ft(2.2)
    base, _ = m1.ft(2.2)
    assert v == pytest.approx(base ** 2, abs=1e-9)


def test_convolution_bound_within_tol(cantor13, cantor14):
    """Each factor gets sqrt(1 + tol) - 1, so the product bound stays <= tol."""
    conv = ConvolvedMeasure(SelfSimilarMeasure(*cantor13),
                            SelfSimilarMeasure(*cantor14), u=0.7)
    tol = 1e-12
    prof = decay_fit(conv, 2.0 ** 12, 12, samples_per_band=16, tol=tol)
    assert np.all(prof.error_bound <= tol)
    assert np.all(prof.abs_value <= 1.0 + prof.error_bound)
    with pytest.raises(PrecisionError):
        conv.ft(3.0, tol=1e-15)


def test_decay_fit_lebesgue(lebesgue_unit):
    """|sinc|-type decay fits sigma near 1."""
    ifs, p = lebesgue_unit
    prof = decay_fit(SelfSimilarMeasure(ifs, p), 2.0 ** 14, 14,
                     samples_per_band=32, seed=0)
    assert prof.sigma_hat == pytest.approx(1.0065437724, abs=1e-6)
    assert prof.fdim_est == pytest.approx(2 * prof.sigma_hat)


def test_decay_fit_cantor_resonant_bands(cantor13):
    """Sampling bands in ratio 3 reveals the non-decaying subsequence."""
    ifs, p = cantor13
    prof = decay_fit(SelfSimilarMeasure(ifs, p), 2.0 * 3.0 ** 12, 12,
                     samples_per_band=16, band_ratio=3.0, xi0=2.0, seed=0)
    assert prof.sigma_hat <= 1e-10
    tail = prof.band_max[-4:]
    assert np.max(tail) - np.min(tail) <= 1e-6


def test_decay_fit_deterministic(golden_bc):
    ifs, p = golden_bc
    a = decay_fit(SelfSimilarMeasure(ifs, p), 2.0 ** 10, 10, samples_per_band=8, seed=3)
    b = decay_fit(SelfSimilarMeasure(ifs, p), 2.0 ** 10, 10, samples_per_band=8, seed=3)
    assert np.array_equal(a.xi, b.xi)
    assert np.array_equal(a.abs_value, b.abs_value)
    assert a.sigma_hat == b.sigma_hat


def test_decay_fit_validation(four_corner, cantor13):
    ifs2, p2 = four_corner
    with pytest.raises(SpecError):
        decay_fit(SelfSimilarMeasure(ifs2, p2), 100.0, 5)
    ifs, p = cantor13
    with pytest.raises(SpecError):
        decay_fit(SelfSimilarMeasure(ifs, p), 2.0, 8)  # xi_max below the band range


def test_projected_measure_object(four_corner):
    ifs, p = four_corner
    pm = ProjectedMeasure(SelfSimilarMeasure(ifs, p), 1.0)
    v, err = pm.ft(3.0)
    assert abs(v) <= 1.0 + err
    prof = decay_fit(pm, 2.0 ** 8, 8, samples_per_band=8)
    assert prof.sigma_hat >= 0.0
