"""Transform evaluation against closed forms, and decay fitting."""

import math

import numpy as np
import pytest

from selfsim import (BudgetError, ConvolvedMeasure, HomogeneousIfs,
                     PrecisionError, ProjectedMeasure, SelfSimilarMeasure,
                     Similarity, SpecError, decay_fit, fourier, ft_eval,
                     uniform_weights)
from selfsim.fourier import ft_batch

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


def _band_frequencies(seed: int) -> np.ndarray:
    """Frequencies of both signs over five decades, with ones whose whole
    product is within tol (xi = 0 and 1e-14) and repeated factor counts."""
    xs = 10.0 ** np.random.default_rng(seed).uniform(-1.0, 4.0, size=300)
    xs[::7] *= -1.0
    return np.concatenate(([0.0, 1e-14], xs))


def _batch_measures(golden_bc, biased13):
    """The 1D systems of both signs, the rotating projection and a
    convolution with negative u."""
    neg = HomogeneousIfs(1, Similarity(ratio=0.45, sign=-1),
                         np.array([0.0, 0.3, 1.0]))
    rot = HomogeneousIfs(2, Similarity(ratio=0.4, alpha=0.3),
                         np.array([[0.0, 0.0], [0.6, 0.1], [0.2, 0.6]]))
    return {
        "golden": SelfSimilarMeasure(*golden_bc),
        "biased": SelfSimilarMeasure(*biased13),
        "negative": SelfSimilarMeasure(neg, np.array([0.2, 0.5, 0.3])),
        "rotating_projection": ProjectedMeasure(
            SelfSimilarMeasure(rot, uniform_weights(3)), 1.1),
        # Both factors complex-valued: a real factor would hide a product
        # rounded by numpy's vectorised complex multiply.
        "convolution_negative_u": ConvolvedMeasure(
            SelfSimilarMeasure(neg, uniform_weights(3)),
            SelfSimilarMeasure(*biased13), u=-1.3),
    }


def _bits(values) -> bytes:
    return np.asarray(values).tobytes()


def test_batched_ft_matches_scalar_bits(golden_bc, biased13):
    """One call per band gives every sample the bits of its own scalar call."""
    for i, (name, measure) in enumerate(_batch_measures(golden_bc, biased13).items()):
        xs = _band_frequencies(i)
        for tol in (1e-9, 1e-13):
            vals, errs = measure.ft(xs, tol=tol)
            pairs = [measure.ft(x, tol=tol) for x in xs]
            assert _bits(vals) == _bits(np.array([v for v, _ in pairs])), name
            assert _bits(errs) == _bits(np.array([e for _, e in pairs])), name


def test_decay_fit_keeps_scalar_bits(golden_bc, biased13):
    """decay_fit's moduli and bounds are those of one scalar call per sample."""
    for name, measure in _batch_measures(golden_bc, biased13).items():
        prof = decay_fit(measure, 2.0 ** 10, 10, samples_per_band=24,
                         tol=1e-12, seed=2)
        pairs = [measure.ft(x, tol=1e-12) for x in prof.xi]
        moduli = np.array([abs(v) for v, _ in pairs])
        assert _bits(prof.abs_value) == _bits(moduli), name
        assert _bits(prof.error_bound) == _bits(np.array([e for _, e in pairs])), name


def test_ft_bits_frozen(golden_bc, biased13):
    """Values and bounds pinned to the bit, as the one-sample-at-a-time
    kernel computed them; the CSV output of fourier depends on each bit."""
    measures = _batch_measures(golden_bc, biased13)
    frozen = [
        ("golden", 3.7, -0.003941122224500293, 0.0, 7.927390666551153e-13),
        ("golden", 21.0, 0.0426586839045371, 0.0, 6.564433765251012e-13),
        ("negative", 37.5, -0.01886963224022083, -0.01889924410173356,
         5.831013266225549e-13),
        ("rotating_projection", 17.0, -0.1920576948599981,
         -0.004831715535723478, 6.646258608396637e-13),
    ]
    for name, x, re_part, im_part, bound in frozen:
        for xs in (x, np.array([0.5, x, 2.0 * x])):
            v, e = measures[name].ft(xs, tol=1e-12)
            v, e = (v, e) if np.ndim(xs) == 0 else (v[1], e[1])
            assert (v.real, v.imag, e) == (re_part, im_part, bound), name


def test_batched_ft_chunk_invariant(monkeypatch, golden_bc, biased13):
    """Tiny phase chunks (down to one sample per chunk) change no bit."""
    measures = _batch_measures(golden_bc, biased13)
    xs = _band_frequencies(9)
    full = {name: m.ft(xs, tol=1e-12) for name, m in measures.items()}
    for chunk in (1, 1000):
        monkeypatch.setattr(fourier, "_PHASE_CHUNK", chunk)
        for name, m in measures.items():
            vals, errs = m.ft(xs, tol=1e-12)
            assert _bits(vals) == _bits(full[name][0]), (name, chunk)
            assert _bits(errs) == _bits(full[name][1]), (name, chunk)


def test_batched_ft_factor_cap(monkeypatch, cantor13):
    """One sample over the factor cap fails the whole batch."""
    ifs, p = cantor13
    monkeypatch.setattr(fourier, "_MAX_FACTORS", 25)
    ft_batch(ifs, p, np.array([1.0, 2.0, 3.0]), tol=1e-9)
    with pytest.raises(BudgetError, match="over the cap 25$"):
        ft_batch(ifs, p, np.array([1.0, 2.0, 1e6, 3.0]), tol=1e-9)
    with pytest.raises(SpecError):
        ft_batch(ifs, p, np.ones((3, 2)), tol=1e-9)


def test_batched_ft_against_mpmath(golden_bc):
    """A few batched values agree with a 40-digit product within the bound."""
    mpmath = pytest.importorskip("mpmath")
    neg = HomogeneousIfs(1, Similarity(ratio=0.45, sign=-1),
                         np.array([0.0, 0.3, 1.0]))
    xs = np.array([0.7, -13.0, 250.0])
    for ifs, p in (golden_bc, (neg, np.array([0.2, 0.5, 0.3]))):
        vals, errs = ft_batch(ifs, p, xs, tol=1e-12)
        with mpmath.workdps(40):
            lam = mpmath.mpf(ifs.lam)
            for x, v, e in zip(xs, vals, errs):
                ref, n = mpmath.mpc(1), 0
                while abs(lam) ** n * abs(x) > mpmath.mpf(10) ** -35:
                    ref *= mpmath.fsum(
                        mpmath.mpf(pj) * mpmath.expjpi(lam ** n * mpmath.mpf(aj) * x)
                        for pj, aj in zip(p, ifs.translations))
                    n += 1
                assert abs(complex(ref) - v) <= e + 1e-12
