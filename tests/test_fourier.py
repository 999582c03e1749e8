"""Transform evaluation against closed forms, and decay fitting."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfsim
from selfsim import (BudgetError, ConvolvedMeasure, HomogeneousIfs,
                     PrecisionError, ProjectedMeasure, SelfSimilarMeasure,
                     Similarity, SpecError, decay_fit, fourier, ft_eval,
                     transforms, uniform_weights)
from selfsim.fourier import _factor_counts, ft_batch
from selfsim.ifs import check_weights, max_norm

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
    prof = decay_fit(conv, 12, samples_per_band=16, tol=tol)
    assert np.all(prof.error_bound <= tol)
    assert np.all(prof.abs_value <= 1.0 + prof.error_bound)
    with pytest.raises(PrecisionError):
        conv.ft(3.0, tol=1e-15)


def test_decay_fit_lebesgue(lebesgue_unit):
    """|sinc|-type decay fits sigma near 1."""
    ifs, p = lebesgue_unit
    prof = decay_fit(SelfSimilarMeasure(ifs, p), 14,
                     samples_per_band=32, seed=0)
    assert prof.sigma_hat == pytest.approx(1.0065437724, abs=1e-6)
    assert prof.fdim_est == pytest.approx(2 * prof.sigma_hat)


def test_decay_fit_cantor_resonant_bands(cantor13):
    """Sampling bands in ratio 3 reveals the non-decaying subsequence."""
    ifs, p = cantor13
    prof = decay_fit(SelfSimilarMeasure(ifs, p), 12,
                     samples_per_band=16, band_ratio=3.0, xi0=2.0, seed=0)
    assert prof.sigma_hat <= 1e-10
    tail = prof.band_max[-4:]
    assert np.max(tail) - np.min(tail) <= 1e-6


def test_decay_fit_deterministic(golden_bc):
    ifs, p = golden_bc
    a = decay_fit(SelfSimilarMeasure(ifs, p), 10, samples_per_band=8, seed=3)
    b = decay_fit(SelfSimilarMeasure(ifs, p), 10, samples_per_band=8, seed=3)
    assert np.array_equal(a.xi, b.xi)
    assert np.array_equal(a.abs_value, b.abs_value)
    assert a.sigma_hat == b.sigma_hat


def test_decay_fit_validation(four_corner, cantor13):
    ifs2, p2 = four_corner
    with pytest.raises(SpecError):
        decay_fit(SelfSimilarMeasure(ifs2, p2), 5)
    measure = SelfSimilarMeasure(*cantor13)
    for bad in ({"xi0": math.nan}, {"xi0": 1e308}, {"tol": math.nan},
                {"tol": math.inf}, {"band_ratio": math.inf},
                {"band_ratio": 1e300}):
        with pytest.raises(SpecError):
            decay_fit(measure, 8, **bad)


def test_nan_tol(cantor13, cantor14):
    with pytest.raises(SpecError):
        ft_batch(*cantor13, np.array([1.0]), tol=math.nan)
    conv = ConvolvedMeasure(SelfSimilarMeasure(*cantor13),
                            SelfSimilarMeasure(*cantor14))
    with pytest.raises(SpecError):
        conv.ft(1.0, tol=math.nan)


def test_projected_measure_object(four_corner):
    ifs, p = four_corner
    pm = ProjectedMeasure(SelfSimilarMeasure(ifs, p), 1.0)
    v, err = pm.ft(3.0)
    assert abs(v) <= 1.0 + err
    prof = decay_fit(pm, 8, samples_per_band=8)
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
        prof = decay_fit(measure, 10, samples_per_band=24,
                         tol=1e-12, seed=2)
        pairs = [measure.ft(x, tol=1e-12) for x in prof.xi]
        moduli = np.array([abs(v) for v, _ in pairs])
        assert _bits(prof.abs_value) == _bits(moduli), name
        assert _bits(prof.error_bound) == _bits(np.array([e for _, e in pairs])), name


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_hypot_moduli_are_python_abs(seed):
    """decay_fit takes moduli as np.hypot(real, imag): the bits of Python's
    abs per value (both call libm hypot), where numpy's complex abs can
    differ in the last bit. Random values with moduli in [1e-20, 1e5]."""
    rng = np.random.default_rng(seed)
    values = (10.0 ** rng.uniform(-20.0, 5.0, 4096)
              * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 4096)))
    moduli = np.array([abs(v) for v in values.tolist()])
    assert _bits(np.hypot(values.real, values.imag)) == _bits(moduli)


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


# The complex-exp kernel ft_batch replaced, kept as an oracle: one
# np.exp(1j * phases) per translation and a scalar loop over the samples
# for factor counts and bounds.
def _exp_ft_batch(ifs, p, xi, tol=1e-9):
    p = check_weights(p, ifs.m)
    dim = ifs.ambient_dim
    xi = np.asarray(xi, dtype=float)
    xi_norm = np.abs(xi) if dim == 1 else np.hypot(xi[:, 0], xi[:, 1])
    r = ifs.map.ratio
    scale = math.pi * max_norm(ifs.translations)
    values = np.ones(xi.shape[0], dtype=complex)
    bounds = np.empty(xi.shape[0])
    groups = {}
    for i, norm in enumerate(xi_norm.tolist()):
        base = scale * norm / (1.0 - r)
        if base <= tol:
            bounds[i] = base
            continue
        n_factors = math.ceil(math.log(tol / base) / math.log(r))
        if n_factors > fourier._MAX_FACTORS:
            raise BudgetError(
                f"{n_factors} product factors needed at ratio {r}, over the "
                f"cap {fourier._MAX_FACTORS}")
        bounds[i] = base * r ** n_factors
        groups.setdefault(n_factors, []).append(i)
    a = ifs.translations.astype(float)
    for n_factors, rows in groups.items():
        ns = np.arange(n_factors)
        if dim == 1:
            factor_phases = np.outer(ifs.lam ** ns, a)
        else:
            ang = 2.0 * math.pi * ((ifs.map.alpha * ns) % 1.0)
            r_pows = r ** ns
            cos_a, sin_a = np.cos(ang)[:, None], np.sin(ang)[:, None]
            rot_x = r_pows[:, None] * (cos_a * a[None, :, 0] - sin_a * a[None, :, 1])
            rot_y = r_pows[:, None] * (sin_a * a[None, :, 0] + cos_a * a[None, :, 1])
        step = max(1, fourier._PHASE_CHUNK // (n_factors * ifs.m))
        for start in range(0, len(rows), step):
            idx = np.array(rows[start:start + step])
            if dim == 1:
                phases = (math.pi * xi[idx])[:, None, None] * factor_phases
            else:
                phases = math.pi * (rot_x * xi[idx, 0, None, None]
                                    + rot_y * xi[idx, 1, None, None])
            values[idx] = np.prod(np.exp(1j * phases) @ p, axis=1)
    return values, bounds


_COORD = st.sampled_from([0.0, 0.25, -0.25, 0.5, 1.0, -1.0, 2 / 3, -2 / 3]) | \
    st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 1e-3)


@st.composite
def _oracle_systems(draw):
    """1D systems of both signs and 2D rotating ones, whose translations
    include zero, negated and repeated entries (the (0, 0) corner in 2D)."""
    dim = draw(st.sampled_from([1, 2]))
    ratio = draw(st.floats(0.2, 0.8))
    shape = (1,) if dim == 1 else (2,)
    pool = [np.array(draw(st.lists(_COORD, min_size=shape[0],
                                   max_size=shape[0])))
            for _ in range(draw(st.integers(1, 3)))]
    rows = []
    for _ in range(draw(st.integers(2, 5))):
        row = pool[draw(st.integers(0, len(pool) - 1))]
        rows.append(draw(st.sampled_from([row, -row, 0.0 * row])))
    a = np.array(rows)
    if np.all(a == a[0]):
        a[-1] += 1.0
    if dim == 1:
        sim = Similarity(ratio=ratio, sign=draw(st.sampled_from([-1, 1])))
        a = a[:, 0]
    else:
        sim = Similarity(ratio=ratio, alpha=draw(st.floats(0.0, 0.99)))
    m = a.shape[0]
    p = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m)))
    return HomogeneousIfs(dim, sim, a), p / p.sum()


def _oracle_frequencies(ifs, tol, seed):
    """Frequencies of both signs over seven decades, plus ones whose factor
    quotient log(tol / base) / log r lies at an integer (where np.log and
    math.log can disagree) and ones within tol."""
    rng = np.random.default_rng(seed)
    r = ifs.map.ratio
    scale = math.pi * max_norm(ifs.translations) / (1.0 - r)
    norms = np.concatenate((
        10.0 ** rng.uniform(-2.0, 5.0, size=60),
        [tol / r ** k / scale for k in range(1, 60, 3)],
        [0.0, 0.5 * tol / scale]))
    norms *= np.where(rng.random(norms.size) < 0.3, -1.0, 1.0)
    if ifs.ambient_dim == 1:
        return norms
    ang = rng.uniform(0.0, 2.0 * math.pi, size=norms.size)
    return np.stack((norms * np.cos(ang), norms * np.sin(ang)), axis=1)


def _ft_outcome(kernel, ifs, p, xi, tol):
    """("ok", values, bounds), or the error the kernel raised and its message."""
    try:
        return ("ok",) + tuple(kernel(ifs, p, xi, tol=tol))
    except (BudgetError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=60, deadline=None)
@given(system=_oracle_systems(), tol=st.sampled_from([1e-6, 1e-9, 1e-12, 1e-15]),
       seed=st.integers(0, 1000), chunk=st.sampled_from([1 << 20, 40]))
def test_ft_batch_matches_exp_oracle(system, tol, seed, chunk):
    """Shared cos/sin columns and array factor counts change no value or bound."""
    ifs, p = system
    xi = _oracle_frequencies(ifs, tol, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fourier, "_PHASE_CHUNK", chunk)
        got = _ft_outcome(ft_batch, ifs, p, xi, tol)
        want = _ft_outcome(_exp_ft_batch, ifs, p, xi, tol)
    assert got[0] == want[0]
    assert all(np.array_equal(g, w) for g, w in zip(got[1:], want[1:]))


@settings(max_examples=25, deadline=None)
@given(u=st.floats(-3.0, 3.0).filter(lambda u: abs(u) > 0.05),
       tol=st.sampled_from([1e-9, 1e-12]), seed=st.integers(0, 1000),
       pair=st.sampled_from([("golden", "neg"), ("c13", "zero"), ("zero", "golden")]))
def test_convolution_ft_matches_exp_oracle(u, tol, seed, pair):
    """Convolution documents: both factor transforms through either kernel."""
    systems = {
        "golden": (HomogeneousIfs(1, Similarity(ratio=(math.sqrt(5.0) - 1.0) / 2.0,
                                                sign=1), np.array([-1.0, 1.0])),
                   uniform_weights(2)),
        "neg": (HomogeneousIfs(1, Similarity(ratio=0.4, sign=-1),
                               np.array([0.0, 0.6])), np.array([0.3, 0.7])),
        "c13": (HomogeneousIfs(1, Similarity(ratio=1 / 3, sign=1),
                               np.array([0.0, 2 / 3])), uniform_weights(2)),
        "zero": (HomogeneousIfs(1, Similarity(ratio=0.45, sign=1),
                                np.array([0.0, 1.0, -1.0, 1.0])),
                 np.array([0.1, 0.2, 0.3, 0.4])),
    }
    conv = ConvolvedMeasure(SelfSimilarMeasure(*systems[pair[0]]),
                            SelfSimilarMeasure(*systems[pair[1]]), u=u)
    xi = _oracle_frequencies(systems[pair[0]][0], tol, seed)
    values, bounds = conv.ft(xi, tol=tol)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "ft_batch", _exp_ft_batch)
        want_values, want_bounds = conv.ft(xi, tol=tol)
    assert np.array_equal(values, want_values)
    assert np.array_equal(bounds, want_bounds)


def test_factor_cap_names_first_offender(monkeypatch, cantor13):
    """The BudgetError names the first sample over the cap, as the scalar
    loop did, and frequencies that are not finite raise as they did."""
    ifs, p = cantor13
    monkeypatch.setattr(fourier, "_MAX_FACTORS", 30)
    for xi in ([1.0, 1e9, 1e6, 1e12], [1e6, 1e9], [2.0, 1e300, 3e5]):
        xi = np.array(xi)
        with pytest.raises(BudgetError) as got:
            ft_batch(ifs, p, xi, tol=1e-12)
        with pytest.raises(BudgetError) as want:
            _exp_ft_batch(ifs, p, xi, tol=1e-12)
        assert str(got.value) == str(want.value)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            ft_batch(ifs, p, np.array([1.0, bad]), tol=1e-9)
        with pytest.raises(ValueError):
            _exp_ft_batch(ifs, p, np.array([1.0, bad]), tol=1e-9)


def test_overflowing_base_is_a_spec_error(cantor13, four_corner):
    """A finite frequency whose truncation base overflows is refused by
    name, in 1D and in 2D (where |xi| itself overflows)."""
    for (ifs, p), xi in ((cantor13, np.array([1.0, 1e308])),
                         (four_corner, np.array([[1.0, 0.0], [1e308, 1e308]]))):
        with pytest.raises(SpecError, match="too large"):
            ft_batch(ifs, p, xi, tol=1e-9)
    with pytest.raises(SpecError, match="too large"):
        ft_eval(*cantor13, 1e308)


# (base, ratio) pairs where np.log(tol / base) / log r lies one ulp above
# the integer that math.log gives exactly (numpy 2.4.6 on x86-64, tol 1e-12),
# so the ceiling of the vectorised quotient would count one factor more.
_LOG_ULP_CASES = [
    (0.0038300342666283027, 0.02528130899530231),
    (0.0038300342666283027, 0.004019752695604785),
    (3.021346804049241e-08, 0.1791842790283328),
    (3.021346804049241e-08, 0.07584899930224916),
    (3.021346804049241e-08, 0.032107005850903425),
]


@pytest.mark.parametrize("base,r", _LOG_ULP_CASES)
def test_factor_counts_keep_scalar_log(base, r):
    """Quotients at an integer are recomputed with math.log."""
    tol = 1e-12
    want = math.ceil(math.log(tol / base) / math.log(r))
    bases = np.array([base, 0.5 * tol, base, 3.0 * base])
    got = _factor_counts(bases, r, tol)
    assert got.tolist() == [want, 0, want,
                            math.ceil(math.log(tol / (3.0 * base)) / math.log(r))]


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.01, 0.99), tol=st.sampled_from([1e-6, 1e-9, 1e-12, 1e-15]),
       seed=st.integers(0, 1000))
def test_factor_counts_match_scalar_formula(r, tol, seed):
    rng = np.random.default_rng(seed)
    bases = np.concatenate((10.0 ** rng.uniform(-16.0, 6.0, size=200),
                            [tol / r ** k for k in range(1, 40)], [0.0, tol]))
    want = [math.ceil(math.log(tol / b) / math.log(r)) if b > tol else 0
            for b in bases.tolist()]
    assert _factor_counts(bases, r, tol).tolist() == want


def test_ft_batch_leaves_numpy_ma_unimported():
    """Grouping samples by factor count imports nothing: np.unique would
    load numpy.ma (tens of ms on a fresh process)."""
    script = ("import sys\n"
              "import numpy as np\n"
              "from selfsim import HomogeneousIfs, Similarity\n"
              "from selfsim.fourier import ft_batch\n"
              "ifs = HomogeneousIfs(1, Similarity(ratio=0.5, sign=1), np.array([-1.0, 1.0]))\n"
              "values, _ = ft_batch(ifs, np.array([0.5, 0.5]), np.geomspace(0.1, 1e4, 64))\n"
              "assert values.size == 64\n"
              "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(selfsim.__file__)))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False"]
