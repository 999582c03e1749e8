"""Fourier transforms of self-similar measures and decay-exponent fits.

With the kernel exp(i pi <x, xi>) the transform factors as the infinite
product over n >= 0 of Phi_n(xi) = sum_j p_j exp(i pi <T^n a_j, xi>).
Truncating after N factors costs at most pi r^N max|a| |xi| / (1 - r)
because every factor lies in the closed unit disc. That bound is reported
alongside each evaluated value; it covers the truncation only, not the
float rounding of the phases, which grows with |xi|.

ft_batch evaluates many frequencies of one system with array operations,
giving each sample the bits a call for that sample alone gives it;
ft_eval is its batch of one. Each factor term exp(i phase) is assembled
from real cos and sin, evaluated once per distinct phase column: a zero
translation contributes 1, and a translation equal to or the negation of
an earlier one reuses that column's cos and its sin or negated sin. On
the numpy build this was written for, exp(1j y) equals (cos y, sin y)
bit for bit, cos is even and sin odd, so the values keep the bits of one
complex exp per translation; tests/test_fourier.py holds that kernel as
the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, PrecisionError, SpecError
from .ifs import HomogeneousIfs, check_weights, max_norm

_MAX_FACTORS = 1 << 20
# Phase entries (samples x factors x maps) evaluated at once by ft_batch.
_PHASE_CHUNK = 1 << 20
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def ft_eval(ifs: HomogeneousIfs, p, xi, tol: float = 1e-9):
    """Evaluate mu-hat at one frequency. Returns (complex value, error bound).

    xi is a scalar for 1D systems and a length-2 vector for 2D systems.
    The reported bound covers the discarded tail of the factor product and
    never exceeds tol. This is ft_batch on a batch of one.
    """
    xi_vec = np.asarray(xi, dtype=float).ravel()
    if xi_vec.size != ifs.ambient_dim:
        raise SpecError(f"{ifs.ambient_dim}D systems take a frequency of "
                        f"length {ifs.ambient_dim} per call")
    values, bounds = ft_batch(ifs, p, xi_vec.reshape(1, -1)
                              if ifs.ambient_dim == 2 else xi_vec, tol=tol)
    return complex(values[0]), float(bounds[0])


def ft_batch(ifs: HomogeneousIfs, p, xi, tol: float = 1e-9):
    """Evaluate mu-hat at many frequencies of one system.

    xi has shape (S,) for 1D systems and (S, 2) for 2D systems. Returns
    the complex values and the truncation bounds, each of shape (S,).
    Every sample gets its own factor count and bound, equal to the scalar
    expressions (see _factor_counts), so any batch gives each sample the
    bits a batch of one gives it. Samples sharing a factor count are
    evaluated together, at most about _PHASE_CHUNK phase entries at a
    time: cos and sin of each distinct phase column (see _shared_columns)
    fill the complex factor terms, which are weighted by p and multiplied
    along the factors. A sample that needs more than _MAX_FACTORS factors
    raises BudgetError, naming the first such sample's count, before any
    work, and a finite frequency whose truncation base overflows raises
    SpecError.
    """
    p = check_weights(p, ifs.m)
    if not tol > 0.0:
        raise SpecError("tol must be positive")
    if tol < 1e-15:
        raise PrecisionError("tol below 1e-15 is not resolvable in float64")
    dim = ifs.ambient_dim
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != dim or xi.shape[1:] != (2,) * (dim - 1):
        raise SpecError(f"{dim}D systems take frequencies of shape "
                        f"{'(S, 2)' if dim == 2 else '(S,)'}")
    r = ifs.map.ratio
    with np.errstate(over="ignore"):
        xi_norm = np.abs(xi) if dim == 1 else np.hypot(xi[:, 0], xi[:, 1])
        base = math.pi * max_norm(ifs.translations) * xi_norm / (1.0 - r)
    # Frequencies that are not finite raise below, in _factor_counts.
    overflow = np.isfinite(xi).reshape(xi.shape[0], -1).all(axis=1) & ~np.isfinite(base)
    if overflow.any():
        raise SpecError(f"frequency {xi[np.argmax(overflow)].tolist()} is too large: "
                        "its truncation base pi max|a| |xi| / (1 - r) overflows")
    values = np.ones(xi.shape[0], dtype=complex)
    bounds, n_factors = base.copy(), _factor_counts(base, r, tol)

    a = ifs.translations.astype(float)
    keep, src, sign = _shared_columns(a)
    a_u = a[keep]
    # Distinct counts in ascending order; np.unique would import numpy.ma.
    for n_count in sorted(set(n_factors[n_factors > 0].tolist())):
        rows = np.flatnonzero(n_factors == n_count)
        bounds[rows] = base[rows] * r ** n_count
        ns = np.arange(n_count)
        if dim == 1:
            lam_pows = ifs.lam ** ns
            factor_phases = np.outer(lam_pows, a_u)
        else:
            ang = 2.0 * math.pi * ((ifs.map.alpha * ns) % 1.0)
            r_pows = r ** ns
            cos_a, sin_a = np.cos(ang)[:, None], np.sin(ang)[:, None]
            rot_x = r_pows[:, None] * (cos_a * a_u[None, :, 0] - sin_a * a_u[None, :, 1])
            rot_y = r_pows[:, None] * (sin_a * a_u[None, :, 0] + cos_a * a_u[None, :, 1])
        step = max(1, _PHASE_CHUNK // (n_count * ifs.m))
        for start in range(0, len(rows), step):
            idx = rows[start:start + step]
            if dim == 1:
                phases = (math.pi * xi[idx])[:, None, None] * factor_phases
            else:
                phases = math.pi * (rot_x * xi[idx, 0, None, None]
                                    + rot_y * xi[idx, 1, None, None])
            cos, sin = np.cos(phases), np.sin(phases)
            factors = np.empty(phases.shape[:2] + (ifs.m,), dtype=complex)
            re, im = factors.real, factors.imag
            for j, (k, g) in enumerate(zip(src, sign)):
                if g == 0:
                    factors[..., j] = 1.0
                    continue
                re[..., j] = cos[..., k]
                if g > 0:
                    im[..., j] = sin[..., k]
                else:
                    np.negative(sin[..., k], out=im[..., j])
            values[idx] = np.prod(factors @ p, axis=1)
    return values, bounds


def _factor_counts(base: np.ndarray, r: float, tol: float) -> np.ndarray:
    """Factors ceil(log(tol / base) / log r) per sample; 0 where base <= tol.

    Equal to the scalar math.log expression for every sample: np.log may
    differ from math.log in the last bit, which can only move the ceiling
    of a quotient within rounding of an integer, so those quotients are
    recomputed by the scalar formula. The first sample over _MAX_FACTORS
    (or whose count is not finite) goes through the scalar formula alone,
    which raises as a sample-by-sample loop would.
    """
    active = np.flatnonzero(~(base <= tol))
    log_r = math.log(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = np.log(tol / base[active]) / log_r
        near = np.abs(quot - np.rint(quot)) <= 1e-9
    for i in np.flatnonzero(near).tolist():
        quot[i] = math.log(tol / float(base[active[i]])) / log_r
    counts = np.ceil(quot)
    over = ~(counts <= _MAX_FACTORS)
    if over.any():
        first = math.ceil(math.log(tol / float(base[active[np.argmax(over)]]))
                          / log_r)
        raise BudgetError(
            f"{first} product factors needed at ratio {r}, over the "
            f"cap {_MAX_FACTORS}")
    n_factors = np.zeros(base.size, dtype=np.int64)
    n_factors[active] = counts
    return n_factors


def _shared_columns(a: np.ndarray):
    """Translations whose phases ft_batch evaluates, and how the rest reuse them.

    Returns (keep, src, sign): translation j takes the cos of column
    src[j] of a[keep] and sign[j] times its sin. keep holds the first
    translation of each class a_j = +-a_k; equal or negated translations
    give equal or negated phases bit for bit, and cos is even and sin odd.
    sign[j] = 0 marks a zero translation, whose factor term is exactly 1.
    """
    flat = a.reshape(a.shape[0], -1)
    keep, src, sign = [], [], []
    for j, row in enumerate(flat):
        pair = (0, 0) if not row.any() else next(
            ((i, g) for i, k in enumerate(keep) for g in (1, -1)
             if np.array_equal(flat[k], g * row)), None)
        if pair is None:
            pair = (len(keep), 1)
            keep.append(j)
        src.append(pair[0])
        sign.append(pair[1])
    return keep, src, sign


@dataclass(frozen=True)
class FourierProfile:
    """Sampled |mu-hat| values, per-band maxima, and the fitted decay rate.

    sigma_hat estimates the exponent in |mu-hat(xi)| <~ xi^(-sigma) from
    band maxima over the top half of the bands; fdim_est = 2 sigma_hat.
    Band maxima are sampling lower bounds for the true suprema, so
    sigma_hat can overestimate decay on adversarial measures; the anchor
    sample at each band start keeps classical non-decay sequences visible.
    """

    xi: np.ndarray
    abs_value: np.ndarray
    error_bound: np.ndarray
    band_start: np.ndarray
    band_max: np.ndarray
    sigma_hat: float
    fdim_est: float
    requested_tol: float
    fit_residual: float

    def __post_init__(self):
        val = np.asarray(self.abs_value, dtype=float)
        err = np.asarray(self.error_bound, dtype=float)
        if np.any(val > 1.0 + err + 1e-12):
            raise SpecError("sampled moduli exceed 1 + truncation bound")
        if np.any(err > self.requested_tol * (1.0 + 1e-12)):
            raise SpecError("a truncation bound exceeds the requested tol")
        if self.fdim_est < 0.0:
            raise SpecError("fdim estimate must be nonnegative")
        for name in ("xi", "abs_value", "error_bound", "band_start", "band_max"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def decay_fit(measure, bands: int, samples_per_band: int = 64,
              tol: float = 1e-9, band_ratio: float = 2.0, xi0: float = 1.0,
              seed: int = 0) -> FourierProfile:
    """Fit a power-decay exponent to band maxima of |mu-hat|.

    measure is any object with ft(xi, tol) and a true scalar_frequency,
    such as the measure classes of selfsim.transforms; ft is called once
    per band with the band's frequencies as an array.

    Bands are geometric, [xi0 ratio^k, xi0 ratio^(k+1)) for k < bands, and
    the last band edge must be finite. Within each band one sample sits
    exactly at the band start and the rest follow a golden-ratio ladder in
    log scale, offset deterministically by the seed.
    """
    if not getattr(measure, "scalar_frequency", False):
        raise SpecError("decay_fit needs a scalar-frequency measure; "
                        "project 2D measures onto a direction first")
    if bands < 2:
        raise SpecError("need at least 2 bands")
    if samples_per_band < 1:
        raise SpecError("samples_per_band must be >= 1")
    if not 1.0 < band_ratio < math.inf:
        raise SpecError("band_ratio must be finite and exceed 1")
    if not 0.0 < xi0 < math.inf:
        raise SpecError("xi0 must be positive and finite")
    if not 0.0 < tol < math.inf:
        raise SpecError("tol must be positive and finite")
    with np.errstate(over="ignore"):
        if xi0 * np.float64(band_ratio) ** bands == math.inf:
            raise SpecError(f"the last band edge xi0 band_ratio^{bands} "
                            "is not finite")

    offsets = np.empty(samples_per_band)
    offsets[0] = 0.0
    if samples_per_band > 1:
        i = np.arange(1, samples_per_band, dtype=float)
        offsets[1:] = np.sort(((i + float(seed)) * _GOLDEN) % 1.0)

    xi_all = []
    val_all = []
    err_all = []
    band_max = np.zeros(bands)
    for k in range(bands):
        xs = xi0 * band_ratio ** (k + offsets)
        values, errs = measure.ft(xs, tol=tol)
        # The moduli of Python's abs, which calls libm hypot as np.hypot does;
        # numpy's complex abs can differ from it in the last bit.
        vals = np.hypot(values.real, values.imag)
        band_max[k] = vals.max()
        xi_all.append(xs)
        val_all.append(vals)
        err_all.append(errs)

    w = max(2, bands // 2)
    ks = np.arange(bands, dtype=float)[-w:]
    x_fit = ks * math.log2(band_ratio)
    y_fit = np.log2(np.maximum(band_max[-w:], np.finfo(float).tiny))
    xb = x_fit - x_fit.mean()
    slope = float(np.dot(xb, y_fit - y_fit.mean()) / np.dot(xb, xb))
    resid = float(np.max(np.abs(y_fit - y_fit.mean() - slope * xb)))
    sigma = max(0.0, -slope)
    return FourierProfile(
        xi=np.concatenate(xi_all), abs_value=np.concatenate(val_all),
        error_bound=np.concatenate(err_all),
        band_start=xi0 * band_ratio ** np.arange(bands), band_max=band_max,
        sigma_hat=sigma, fdim_est=2.0 * sigma, requested_tol=tol,
        fit_residual=resid)
