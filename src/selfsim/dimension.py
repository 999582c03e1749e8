"""L^q and entropy dimension estimation from certified moment tables.

The point estimate of D_q is the least-squares slope of log2 S_{n,q}
against (1-q) n over the top half of the level range (an odd number of
levels, which cancels the period-2 oscillation that lattice examples such
as r = 1/4 exhibit at dyadic levels). The reported interval widens that
point by three terms: the sandwich gaps of the moment bounds at the window
endpoints pushed through the difference quotient, a nonlinearity allowance
proportional to the worst fit residual, and a finite-level drift allowance
that decays like 1/n_max. The allowance constants are frozen against the
closed-form product family exercised in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .histogram import entropy_sum, histogram, moment_sums
from .ifs import HomogeneousIfs, check_weights, similarity_dimension

_RESIDUAL_WEIGHT = 0.5
_DRIFT_ALLOWANCE = 0.13
_AMBIENT_SLACK = 0.05


@dataclass(frozen=True)
class MomentTable:
    """Per-level moment and entropy bounds for one measure.

    s_lower and s_upper have shape (levels, len(q_list)); h_lower and
    h_upper have shape (levels,).
    """

    ambient_dim: int
    levels: tuple
    q_list: tuple
    s_lower: np.ndarray
    s_upper: np.ndarray
    h_lower: np.ndarray
    h_upper: np.ndarray

    def __post_init__(self):
        lv = tuple(int(n) for n in self.levels)
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise SpecError("table levels must be strictly increasing")
        sl = np.asarray(self.s_lower, dtype=float)
        su = np.asarray(self.s_upper, dtype=float)
        if sl.shape != (len(lv), len(self.q_list)) or su.shape != sl.shape:
            raise SpecError("moment arrays must be (levels, q) shaped")
        hl = np.asarray(self.h_lower, dtype=float)
        hu = np.asarray(self.h_upper, dtype=float)
        if np.any(hl > hu + 1e-12):
            raise SpecError("entropy bounds out of order")
        for name, arr in (("s_lower", sl), ("s_upper", su),
                          ("h_lower", hl), ("h_upper", hu)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "q_list", tuple(float(q) for q in self.q_list))

    def q_index(self, q: float) -> int:
        for i, qq in enumerate(self.q_list):
            if abs(qq - q) < 1e-12:
                return i
        raise SpecError(f"q = {q} not present in the table (has {self.q_list})")


@dataclass(frozen=True)
class DimEstimate:
    """Point estimate with a bracketing interval and fit diagnostics."""

    q: float
    point: float
    lo: float
    hi: float
    levels: tuple
    residual: float

    def __post_init__(self):
        if not (self.lo <= self.point <= self.hi):
            raise SpecError("estimate must satisfy lo <= point <= hi")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def build_moment_table(ifs: HomogeneousIfs, p, q_list, n_min: int = 6,
                       n_max: int = 20, extra_depth: int = 4,
                       word_budget: int | None = None) -> MomentTable:
    """Histogram the measure at each level n_min..n_max and tabulate bounds."""
    if n_max < n_min:
        raise SpecError("n_max must be >= n_min")
    return table_from_histograms(
        [histogram(ifs, p, n, extra_depth=extra_depth, word_budget=word_budget)
         for n in range(int(n_min), int(n_max) + 1)], q_list)


def table_from_histograms(hists, q_list) -> MomentTable:
    """Tabulate bounds from prebuilt histograms (one per level, ascending)."""
    hists = list(hists)
    if not hists:
        raise SpecError("need at least one histogram")
    qs = tuple(float(q) for q in np.atleast_1d(q_list))
    levels = tuple(h.n for h in hists)
    s_lo = np.zeros((len(levels), len(qs)))
    s_hi = np.zeros_like(s_lo)
    h_lo = np.zeros(len(levels))
    h_hi = np.zeros(len(levels))
    for i, hist in enumerate(hists):
        for j, q in enumerate(qs):
            s_lo[i, j], s_hi[i, j] = moment_sums(hist, q)
        h_lo[i], h_hi[i] = entropy_sum(hist)
    return MomentTable(hists[0].ambient_dim, levels, qs, s_lo, s_hi, h_lo, h_hi)


def _fit_window(count: int) -> int:
    w = count // 2
    if w % 2 == 0:
        w += 1
    return max(w, 3)


def _slope_fit(x: np.ndarray, y: np.ndarray):
    xb = x - x.mean()
    yb = y - y.mean()
    denom = float(np.dot(xb, xb))
    slope = float(np.dot(xb, yb) / denom)
    res = yb - slope * xb
    return slope, float(np.max(np.abs(res)))


def _estimate(levels, y_mid, gaps, x_vals, ambient_dim, q) -> DimEstimate:
    if len(levels) < 4:
        raise SpecError("need at least 4 levels to estimate a dimension")
    w = _fit_window(len(levels))
    lv = levels[-w:]
    x = x_vals[-w:]
    y = y_mid[-w:]
    slope, resmax = _slope_fit(x, y)
    dx = abs(float(x[-1] - x[0]))
    n_max = lv[-1]
    gterm = (gaps[-w] + gaps[-1]) / dx
    half = gterm + _RESIDUAL_WEIGHT * resmax / dx + _DRIFT_ALLOWANCE / n_max + 2.0 ** -n_max
    lo = max(0.0, slope - half)
    hi = max(lo, min(ambient_dim + _AMBIENT_SLACK, slope + half))
    point = min(max(slope, lo), hi)
    return DimEstimate(q=q, point=point, lo=lo, hi=hi,
                       levels=tuple(lv), residual=resmax)


def estimate_Dq(table: MomentTable, q: float) -> DimEstimate:
    """Estimate D_q from tabulated moment bounds; q must not be 1."""
    if abs(q - 1.0) < 1e-12:
        raise SpecError("q = 1 is the entropy dimension, use estimate_D1")
    j = table.q_index(q)
    tiny = np.finfo(float).tiny
    log_lo = np.log2(np.maximum(table.s_lower[:, j], tiny))
    log_hi = np.log2(np.maximum(table.s_upper[:, j], tiny))
    y_mid = 0.5 * (log_lo + log_hi)
    gaps = 0.5 * (log_hi - log_lo)
    ns = np.array(table.levels, dtype=float)
    x = (1.0 - q) * ns
    return _estimate(table.levels, y_mid, gaps, x, table.ambient_dim, q)


def estimate_D1(table: MomentTable) -> DimEstimate:
    """Entropy (information) dimension estimate from the H_n bounds."""
    y_mid = 0.5 * (table.h_lower + table.h_upper)
    gaps = 0.5 * (table.h_upper - table.h_lower)
    x = np.array(table.levels, dtype=float)
    return _estimate(table.levels, y_mid, gaps, x, table.ambient_dim, 1.0)


def closed_form_Dq(ifs: HomogeneousIfs, p, q: float) -> float:
    """log2(sum p_i^q) / ((q-1) log2 r); at q = 1 the entropy-over-log ratio.

    The formula equals D_q only for separated systems; for overlapping
    ones it is merely an upper bound, so callers should hold an SSC
    certificate before treating the value as exact.
    """
    p = check_weights(p, ifs.m)
    if abs(q - 1.0) < 1e-12:
        return similarity_dimension(ifs, p)
    if q <= 0.0:
        raise SpecError(f"q must be positive, got {q}")
    num = math.log2(float(np.sum(p ** q)))
    return num / ((q - 1.0) * math.log2(ifs.map.ratio))


@dataclass(frozen=True)
class SubmultReport:
    """Outcome of the moment submultiplicativity scan over level triples."""

    q: float
    m_candidate: float
    m_min_empirical: float
    holds: bool
    triples_checked: int
    worst_triple: tuple


def check_submultiplicativity(table: MomentTable, q: float,
                              m_candidate: float) -> SubmultReport:
    """Verify S_{n+m,q} <= M^(q-1) S_{n,q} S_{m,q} over all table triples.

    Upper bounds are used on the left and lower bounds on the right, so a
    passing report is a certified verification. Also reports the smallest
    M that would satisfy every triple.
    """
    if q <= 1.0:
        raise SpecError("submultiplicativity check requires q > 1")
    j = table.q_index(q)
    level_pos = {n: i for i, n in enumerate(table.levels)}
    m_needed = 0.0
    worst = None
    checked = 0
    for n in table.levels:
        for m in table.levels:
            nm = n + m
            if nm not in level_pos:
                continue
            s_nm = table.s_upper[level_pos[nm], j]
            s_n = table.s_lower[level_pos[n], j]
            s_m = table.s_lower[level_pos[m], j]
            checked += 1
            if s_n <= 0.0 or s_m <= 0.0:
                m_needed = math.inf
                worst = (n, m, nm)
                continue
            ratio = s_nm / (s_n * s_m)
            cand = ratio ** (1.0 / (q - 1.0))
            if cand > m_needed:
                m_needed = cand
                worst = (n, m, nm)
    if checked == 0:
        raise SpecError("table contains no triples n, m, n+m")
    return SubmultReport(q=q, m_candidate=float(m_candidate),
                         m_min_empirical=float(m_needed),
                         holds=bool(m_needed <= m_candidate * (1.0 + 1e-12)),
                         triples_checked=checked, worst_triple=worst or ())


@dataclass(frozen=True)
class AcDecision:
    """Absolute-continuity prediction from dimension and decay estimates."""

    status: str
    margin: float
    lhs: float
    rhs: float

    @property
    def predicts(self) -> bool:
        return self.status == "PredictsLq"


def ac_predicate(d: int, dp_est: DimEstimate, fdim_est: float, p: float) -> AcDecision:
    """Decide the L^q-density prediction from calibrated inputs.

    For p in (1, 2] the hypothesis is d - D_p < fdim; for p > 2 it is
    (p-1)(d - D_p) < fdim. The conservative lower interval end of the
    D_p estimate feeds the left side. NoPrediction is not a negative
    result, only an absence of evidence at these estimates.
    """
    if p <= 1.0:
        raise SpecError("the predicate needs p > 1")
    if fdim_est < 0.0:
        raise SpecError("fdim estimate must be nonnegative")
    shortfall = d - dp_est.lo
    lhs = shortfall if p <= 2.0 else (p - 1.0) * shortfall
    margin = fdim_est - lhs
    status = "PredictsLq" if lhs < fdim_est else "NoPrediction"
    return AcDecision(status=status, margin=float(margin), lhs=float(lhs),
                      rhs=float(fdim_est))
