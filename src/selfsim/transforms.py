"""Derived measures: projections, convolutions, products, digit splits.

Constructions that stay self-similar come back as plain systems plus
weights. Measures come in three classes with one interface (histogram,
ft, scalar_frequency, kind, label): SelfSimilarMeasure, and the two that
are not self-similar in general, ProjectedMeasure (a rotating planar
measure pushed onto a line) and ConvolvedMeasure (m1 * T_u m2), which are
consumed through histogram pushforward or transform multiplication.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, SpecError
from .fourier import ft_batch, ft_eval
from .histogram import (DyadicHistogram, _bin_cells, _cell_box, _CellSums,
                        bin_weighted_intervals, histogram)
from .ifs import (HomogeneousIfs, Similarity, check_weights, cylinder_words,
                  ifs_from_json, parse_field, strict_int)

_MERGE_TOL = 1e-12
_PAIR_BUDGET = 50_000_000
# Cell pairs formed in convolve_hist per chunk. Above the dense cap of
# _CellSums the pair stage folds its sums every _PAIR_CHUNK pairs, so the
# value fixes the bits of those sums.
_PAIR_CHUNK = 1 << 21


def _merge_coincident(points: np.ndarray, weights: np.ndarray):
    """Collapse translations that agree within the exact-overlap tolerance."""
    order = np.argsort(points, kind="stable")
    pts = points[order]
    wts = weights[order]
    groups = np.concatenate(([True], np.diff(pts) > _MERGE_TOL))
    starts = np.flatnonzero(groups)
    merged_w = np.add.reduceat(wts, starts)
    sums = np.add.reduceat(pts * wts, starts)
    merged_p = sums / merged_w
    return merged_p, merged_w


def project_ifs(ifs: HomogeneousIfs, p, beta: float):
    """Project a rotation-free planar system onto the direction at angle beta.

    Returns the 1D system with translations <a_j, (cos beta, sin beta)> and
    the same contraction ratio; translations that coincide to within 1e-12
    merge with summed weights (the exact-overlap collapse).
    """
    if ifs.ambient_dim != 2:
        raise SpecError("project_ifs needs a 2D system")
    if abs(ifs.map.alpha) > 1e-15:
        raise SpecError("projection of rotating systems is not self-similar; "
                        "use Fourier restriction or histogram pushforward")
    p = check_weights(p, ifs.m)
    omega = np.array([math.cos(beta), math.sin(beta)])
    t = ifs.translations @ omega
    merged_t, merged_w = _merge_coincident(t, p.astype(float))
    if merged_t.size < 2:
        raise SpecError("projection collapsed every map onto one point")
    out = HomogeneousIfs(
        1, Similarity(ratio=ifs.map.ratio, sign=1), merged_t,
        label=f"{ifs.label}|proj{beta:.6g}" if ifs.label else f"proj{beta:.6g}")
    return out, check_weights(merged_w)


def histogram_project(hist2d: DyadicHistogram, beta: float,
                      n_out: int) -> DyadicHistogram:
    """Push a 2D histogram onto the direction at angle beta, re-binned dyadically.

    Each square cell maps to an interval of length 2^-n (|cos| + |sin|);
    its lower mass lands in an output cell only on containment, its upper
    mass in every touched cell, so the output stays a certified sandwich.
    """
    if hist2d.ambient_dim != 2:
        raise SpecError("histogram_project needs a 2D histogram")
    if not math.isfinite(beta):
        raise SpecError("beta must be finite")
    if n_out < 1:
        raise SpecError("output level must be >= 1")
    w = hist2d.cell_width
    cb, sb = math.cos(beta), math.sin(beta)
    base = hist2d.indices[:, 0] * w * cb + hist2d.indices[:, 1] * w * sb
    lo = base + w * (min(cb, 0.0) + min(sb, 0.0))
    hi = base + w * (max(cb, 0.0) + max(sb, 0.0))

    (bx0, bx1), (by0, by1) = hist2d.box()
    corners = [cx * cb + cy * sb for cx in (bx0, bx1) for cy in (by0, by1)]
    eps, k0, k1 = _cell_box([min(corners)], [max(corners)], n_out)
    idx, lower, upper = bin_weighted_intervals(
        lo, hi, hist2d.lower, hist2d.upper, n_out, k0, k1, eps)
    return DyadicHistogram(1, n_out, hist2d.depth_used, k0, k1, idx, lower, upper)


def convolve_hist(h1: DyadicHistogram, h2: DyadicHistogram, u: float,
                  n_out: int) -> DyadicHistogram:
    """Certified histogram of mu1 * T_u mu2 at a coarser output level.

    Both inputs must be 1D at the same level n; the second coordinate is
    scaled by u. Pair sum-intervals feed lower mass on containment and
    upper mass on touch, exactly like first-order histogram binning.

    The pair stage is exact integer arithmetic. Positions are measured in
    input cells of width 2^-n: cell k of h2 scales to [s, s + |u|] with
    s = min(u k, u (k + 1)) = f + frac, f an integer and 0 <= frac < 1, so
    pair (i, j) covers [k_i + s_j, k_i + s_j + 1 + |u|]. Four integer
    offsets per cell of h2, f + floor(frac + d) for d in eps', 1 + |u| - eps',
    -eps' and 1 + |u| + eps' (eps' is the binning eps in input cells), give
    the input cells holding each end moved inward (containment, lower mass)
    and outward (touch, upper mass). An output cell spans g = 2^(n - n_out)
    input cells, so with k_i = g q_i + r_i the pair's first and last output
    cells are q_i plus floor((r_i + offset) / g), which depends only on r_i
    and j. Rows of h1 are grouped by r_i; within a group a pair adds its
    mass at q_i plus a column code (first cell, and for upper mass also the
    number of cells touched). Many columns share a code, so within a group
    the weights of h2 are first summed per distinct code, and each row
    pairs with those sums only. Pairs are formed about _PAIR_CHUNK at a
    time and added into per-code sums as they form (see _pair_sums, which
    also gives the order of the sums), so memory is bounded by one chunk
    and the sums, not by the number of pairs. The pair budget
    caps the groups times the cells of h2 (the column sums' work) and the
    pairs of the larger of the lower and upper passes; both are at most
    h1 cells x h2 cells.
    """
    if h1.ambient_dim != 1 or h2.ambient_dim != 1:
        raise SpecError("convolution needs 1D histograms")
    if u == 0.0 or not math.isfinite(u):
        raise SpecError("scaling factor u must be finite and nonzero")
    if h1.n != h2.n:
        raise SpecError("histograms must share a level; rebuild one of them")
    if not (1 <= n_out <= h1.n):
        raise SpecError("output level must lie in [1, input level]")

    (a0, a1) = h1.box()[0]
    (b0, b1) = h2.box()[0]
    eps, k0, k1 = _cell_box([a0 + min(u * b0, u * b1)], [a1 + max(u * b0, u * b1)], n_out)

    g = 1 << (h1.n - n_out)
    s = np.minimum(u * h2.indices, u * (h2.indices + 1))
    f = np.floor(s)
    frac = s - f
    e = eps * 2.0 ** h1.n
    ext = 1.0 + abs(u)
    # Offsets in input cells from k_i to the ends of pair (i, j), moved by
    # eps inward (containment, lower mass) and outward (touch, upper mass).
    in_lo, in_hi, out_lo, out_hi = (
        (f + np.floor(frac + d)).astype(np.int64) for d in (e, ext - e, -e, ext + e))

    q, res = np.divmod(h1.indices, g)
    base = int(q.min()) + int(out_lo.min()) // g
    span = int(q.max()) + (g - 1 + int(out_hi.max())) // g - base + 1
    # Upper codes carry the number of extra cells touched: cell * nw + width.
    nw = int((out_hi - out_lo).max()) // g + 2
    order = np.argsort(res, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(res[order])) + 1)
    # The column sums visit every cell of h2 once per residue group.
    visits = len(groups) * h2.num_cells
    if visits > _PAIR_BUDGET:
        raise BudgetError(
            f"summing columns per output code visits {len(groups)} x "
            f"{h2.num_cells} = {visits} group-column pairs, over the budget "
            f"{_PAIR_BUDGET}")
    low_blocks, up_blocks = [], []
    for rows in groups:
        # Rows sharing k_i mod g send column j to the same output cells.
        r = int(res[rows[0]])
        rq = q[rows] - base
        first, last = (r + in_lo) // g, (r + in_hi) // g
        # Boolean indices here and in _pair_sums: these masks keep most
        # rows in long runs, where they beat selection by position.
        inside = first == last
        low_blocks.append((rq, h1.lower[rows],
                           *_column_sums(first[inside], h2.lower[inside])))
        first, last = (r + out_lo) // g, (r + out_hi) // g
        up_blocks.append((rq * nw, h1.upper[rows],
                          *_column_sums(first * nw + last - first, h2.upper)))
    # Pairs _pair_sums forms (it skips zero weights), charged before any is.
    pairs = max(sum(np.count_nonzero(wr) * np.count_nonzero(wc)
                    for _, wr, _, wc in blocks)
                for blocks in (low_blocks, up_blocks))
    if pairs > _PAIR_BUDGET:
        raise BudgetError(
            f"the pair stage forms {pairs} cell pairs ({h1.num_cells} x "
            f"{h2.num_cells} cells, columns summed per output code), over "
            f"the budget {_PAIR_BUDGET}")
    low_cells, low_w = _pair_sums(low_blocks, span)
    up_codes, up_w = _pair_sums(up_blocks, span * nw)
    t_lo, widths = np.divmod(up_codes, nw)
    t_lo += base
    idx, lower, upper = _bin_cells([([low_cells + base], low_w, [t_lo],
                                     [t_lo + widths], up_w)], k0, k1)
    return DyadicHistogram(1, n_out, min(h1.depth_used, h2.depth_used),
                           k0, k1, idx, lower, upper)


def _column_sums(codes: np.ndarray, weights: np.ndarray):
    """Sum weights per distinct code. Returns (codes, sums), codes sorted."""
    cols, inverse = np.unique(codes, return_inverse=True)
    return cols, np.bincount(inverse, weights=weights)


def _pair_sums(blocks: list, length: int):
    """Sum w_rows[i] * w_cols[j] per code rows[i] + cols[j] in [0, length).

    blocks holds (rows, w_rows, cols, w_cols) tuples. Zero weights are
    skipped. Pairs are formed about _PAIR_CHUNK at a time and each chunk
    goes into the per-code sums (_CellSums) as it forms, so memory stays
    bounded by one chunk plus the sums. Up to the dense cap each pair is
    added one at a time in the order the pairs form, which gives the bits
    of np.bincount over all of them in that order. Above the cap the sums
    fold every _PAIR_CHUNK pairs, the running sums first: they use
    np.add.reduceat, which adds pairwise, so this schedule fixes their
    bits. Returns (codes, sums) sorted.
    """
    sums = _CellSums(length, fold_every=_PAIR_CHUNK)
    for rows, w_rows, cols, w_cols in blocks:
        rows, w_rows = rows[w_rows > 0.0], w_rows[w_rows > 0.0]
        cols, w_cols = cols[w_cols > 0.0], w_cols[w_cols > 0.0]
        step = max(1, _PAIR_CHUNK // max(1, cols.size))
        for i in range(0, rows.size, step):
            sums.add((rows[i:i + step, None] + cols).ravel(),
                     (w_rows[i:i + step, None] * w_cols).ravel())
    return sums.sums()


@dataclass(frozen=True)
class SkipKeepPair:
    """The digit-split factors nu_k and eta_k of a self-similar measure.

    nu_k collects the length-(k-1) partial digit blocks (ratio r^k,
    translations over all such words, product weights, no merging so the
    entropy identity stays exact). eta_k is the same system run at ratio
    r^k with the original translations; the measure reconstructs as
    mu = nu_k * (image of eta_k under the recorded affine factor T^(k-1)).
    """

    k: int
    nu_ifs: HomogeneousIfs
    nu_weights: np.ndarray
    eta_ifs: HomogeneousIfs
    eta_weights: np.ndarray
    eta_scale: object

    @property
    def eta_scaled_ifs(self) -> HomogeneousIfs:
        """eta_k pushed through its affine factor, again self-similar."""
        base = self.eta_ifs
        if base.ambient_dim == 1:
            scaled = float(self.eta_scale) * base.translations
        else:
            scaled = base.translations @ np.asarray(self.eta_scale).T
        return HomogeneousIfs(base.ambient_dim, base.map, scaled,
                              label=f"{base.label}|scaled" if base.label else "")


def _power_similarity(ifs: HomogeneousIfs, k: int) -> Similarity:
    if ifs.ambient_dim == 1:
        return Similarity(ratio=ifs.map.ratio ** k, sign=ifs.map.sign ** k)
    return Similarity(ratio=ifs.map.ratio ** k, alpha=(ifs.map.alpha * k) % 1.0)


def skip_keep(ifs: HomogeneousIfs, p, k: int,
              word_budget: int | None = None) -> SkipKeepPair:
    """Split the digit expansion at stride k into the nu_k and eta_k factors."""
    if k < 2:
        raise SpecError("skip/keep stride k must be >= 2")
    p = check_weights(p, ifs.m)
    blocks, bw = cylinder_words(ifs, p, k - 1, word_budget)
    sim_k = _power_similarity(ifs, k)
    nu = HomogeneousIfs(ifs.ambient_dim, sim_k, blocks,
                        label=f"{ifs.label}|skip{k}" if ifs.label else f"skip{k}")
    eta = HomogeneousIfs(ifs.ambient_dim, sim_k, ifs.translations,
                         label=f"{ifs.label}|keep{k}" if ifs.label else f"keep{k}")
    return SkipKeepPair(k=k, nu_ifs=nu, nu_weights=check_weights(bw),
                        eta_ifs=eta, eta_weights=p,
                        eta_scale=ifs.linear_power(k - 1))


def iterate_ifs(ifs: HomogeneousIfs, p, k: int,
                word_budget: int | None = None):
    """The k-fold iterated system: ratio r^k, one map per length-k word."""
    if k < 1:
        raise SpecError("iteration depth k must be >= 1")
    p = check_weights(p, ifs.m)
    if k == 1:
        return ifs, p
    centers, weights = cylinder_words(ifs, p, k, word_budget)
    out = HomogeneousIfs(ifs.ambient_dim, _power_similarity(ifs, k), centers,
                         label=f"{ifs.label}^/{k}" if ifs.label else "")
    return out, check_weights(weights)


def product_ifs(ifs1: HomogeneousIfs, ifs2: HomogeneousIfs, p1, p2):
    """Product of two 1D systems with one signed ratio, as a planar system.

    A common negative ratio becomes the half-turn rotation alpha = 1/2.
    Unequal ratios are rejected; pre-iterate the factors with iterate_ifs
    until the ratios match when they are log-commensurable.
    """
    if ifs1.ambient_dim != 1 or ifs2.ambient_dim != 1:
        raise SpecError("product needs two 1D systems")
    if abs(ifs1.lam - ifs2.lam) > 1e-12:
        raise SpecError(
            f"signed ratios differ ({ifs1.lam} vs {ifs2.lam}); equalize them "
            "with iterate_ifs before taking the product")
    p1 = check_weights(p1, ifs1.m)
    p2 = check_weights(p2, ifs2.m)
    ax = np.repeat(ifs1.translations, ifs2.m)
    ay = np.tile(ifs2.translations, ifs1.m)
    translations = np.stack([ax, ay], axis=1)
    weights = (p1[:, None] * p2[None, :]).ravel()
    alpha = 0.0 if ifs1.lam > 0 else 0.5
    sim = Similarity(ratio=ifs1.map.ratio, alpha=alpha)
    label = f"{ifs1.label}x{ifs2.label}" if ifs1.label and ifs2.label else ""
    return HomogeneousIfs(2, sim, translations, label=label), check_weights(weights)


class SelfSimilarMeasure:
    """The self-similar measure of a system and its weights."""

    kind = "ifs"

    def __init__(self, ifs: HomogeneousIfs, p):
        self.ifs = ifs
        self.p = check_weights(p, ifs.m)
        self.label = ifs.label
        self.scalar_frequency = ifs.ambient_dim == 1

    def histogram(self, n: int, extra_depth: int = 4, guard: int = 4,
                  word_budget: int | None = None) -> DyadicHistogram:
        """Level-n histogram; guard is unused (only convolutions need it)."""
        return histogram(self.ifs, self.p, n, extra_depth=extra_depth,
                         word_budget=word_budget)

    def ft(self, xi, tol: float = 1e-9):
        """(value, bound) at one frequency, a scalar in 1D and a 2-vector in
        2D, or arrays of both at frequencies stacked along the first axis."""
        if np.ndim(xi) < self.ifs.ambient_dim:
            return ft_eval(self.ifs, self.p, xi, tol=tol)
        return ft_batch(self.ifs, self.p, xi, tol=tol)


class ProjectedMeasure:
    """Pushforward of a planar self-similar measure onto a direction.

    Reached only through histogram pushforward and through the planar
    transform restricted to the line of (cos beta, sin beta); projections
    of rotation-free systems are self-similar again (see project_measure).
    """

    kind = "projection"
    scalar_frequency = True

    def __init__(self, base: SelfSimilarMeasure, beta: float):
        self.base = base
        self.beta = float(beta)
        self.label = f"{base.label}|proj{beta:.6g}"

    def histogram(self, n: int, extra_depth: int = 4, guard: int = 4,
                  word_budget: int | None = None) -> DyadicHistogram:
        """The planar level-n histogram pushed onto the direction."""
        return histogram_project(
            self.base.histogram(n, extra_depth=extra_depth,
                                word_budget=word_budget), self.beta, n)

    def ft(self, xi, tol: float = 1e-9):
        direction = np.array([math.cos(self.beta), math.sin(self.beta)])
        return self.base.ft(np.multiply.outer(xi, direction), tol=tol)


class ConvolvedMeasure:
    """The convolution m1 * T_u m2 of two 1D self-similar measures."""

    kind = "convolution"
    scalar_frequency = True

    def __init__(self, m1: SelfSimilarMeasure, m2: SelfSimilarMeasure,
                 u: float = 1.0):
        _require_plain(m1)
        _require_plain(m2)
        if m1.ifs.ambient_dim != 1 or m2.ifs.ambient_dim != 1:
            raise SpecError("convolution needs two 1D systems")
        if u == 0.0 or not math.isfinite(u):
            raise SpecError("convolution scale u must be finite and nonzero")
        self.m1 = m1
        self.m2 = m2
        self.u = float(u)
        self.label = f"{m1.label}*{m2.label}"

    def histogram(self, n: int, extra_depth: int = 4, guard: int = 4,
                  word_budget: int | None = None) -> DyadicHistogram:
        """Both factors histogrammed at level n + guard, then convolved."""
        h1, h2 = (m.histogram(n + guard, extra_depth=extra_depth,
                              word_budget=word_budget)
                  for m in (self.m1, self.m2))
        return convolve_hist(h1, h2, self.u, n_out=n)

    def ft(self, xi, tol: float = 1e-9):
        """Product of the factor transforms.

        Each factor gets the bound t = sqrt(1 + tol) - 1 (written without
        cancellation), so the product's bound e1 + e2 + e1 e2 <= 2t + t^2
        stays within tol. xi is one frequency or an array of them.
        """
        if not tol > 0.0:
            raise SpecError("tol must be positive")
        t = tol / (1.0 + math.sqrt(1.0 + tol))
        v1, e1 = self.m1.ft(xi, tol=t)
        v2, e2 = self.m2.ft(self.u * np.asarray(xi, dtype=float), tol=t)
        bound = e1 + e2 + e1 * e2
        if np.ndim(xi) == 0:
            return v1 * v2, bound
        # Python complex products: numpy's vectorised complex multiply can
        # round differently in the last bit.
        return np.array([a * b for a, b in zip(v1.tolist(), v2.tolist())],
                        dtype=complex), bound


def _require_plain(m) -> None:
    if not isinstance(m, SelfSimilarMeasure):
        raise SpecError(f"expected a plain system, got a {m.kind}; "
                        "nested derivations are not supported")


def project_measure(m: SelfSimilarMeasure, beta: float):
    """Projection onto the direction at angle beta.

    Rotation-free planar systems project exactly to a self-similar
    measure (project_ifs); rotating ones give a ProjectedMeasure.
    """
    _require_plain(m)
    if not math.isfinite(beta):
        raise SpecError("beta must be finite")
    if abs(m.ifs.map.alpha or 0.0) <= 1e-15:
        return SelfSimilarMeasure(*project_ifs(m.ifs, m.p, beta))
    return ProjectedMeasure(m, beta)


def skip_keep_measure(m: SelfSimilarMeasure, k: int, part: str,
                      word_budget: int | None = None) -> SelfSimilarMeasure:
    """The "skip" (nu_k) or "keep" (scaled eta_k) factor of skip_keep."""
    _require_plain(m)
    pair = skip_keep(m.ifs, m.p, k, word_budget=word_budget)
    if part == "skip":
        return SelfSimilarMeasure(pair.nu_ifs, pair.nu_weights)
    if part == "keep":
        return SelfSimilarMeasure(pair.eta_scaled_ifs, pair.eta_weights)
    raise SpecError("skip_keep part must be 'skip' or 'keep'")


def resolve_spec(doc: dict, base_dir: str = ".", resolving: tuple = ()):
    """Interpret a measure document, following its derive clause if present.

    Returns a SelfSimilarMeasure, a ProjectedMeasure or a ConvolvedMeasure.
    base_dir is the directory of the document doc comes from (an inline
    'other' shares its parent's); an 'other' path is relative to it.
    resolving holds the real paths of the documents whose derive clauses
    lead here; an 'other' path naming one of them is a cycle and raises
    SpecError.
    """
    base = SelfSimilarMeasure(*ifs_from_json(doc))
    derive = doc.get("derive")
    if derive is None:
        return base
    if not isinstance(derive, dict) or "kind" not in derive:
        raise SpecError("derive clause must be an object with a kind")
    kind = derive["kind"]
    if kind == "projection":
        return project_measure(
            base, parse_field(float, derive.get("beta", 0.0), "derive.beta"))
    if kind in ("convolution", "product"):
        other = derive.get("other")
        if other is None:
            raise SpecError(f"{kind} derivation needs an 'other' reference")
        if isinstance(other, str):
            path = os.path.join(base_dir, other)
            real = os.path.realpath(path)
            if real in resolving:
                raise SpecError(f"cyclic 'other' reference: {path} is already being resolved")
            other_doc, resolving = _load_json(path), (*resolving, real)
            other_dir = os.path.dirname(path)
        elif isinstance(other, dict):
            other_doc, other_dir = other, base_dir
        else:
            raise SpecError("'other' must be a path or an inline document")
        m2 = resolve_spec(other_doc, other_dir, resolving)
        if kind == "product":
            _require_plain(m2)
            return SelfSimilarMeasure(*product_ifs(base.ifs, m2.ifs, base.p, m2.p))
        return ConvolvedMeasure(
            base, m2, parse_field(float, derive.get("u", 1.0), "derive.u"))
    if kind == "skip_keep":
        return skip_keep_measure(
            base, parse_field(strict_int, derive.get("k", 0), "derive.k"),
            derive.get("part", "skip"))
    raise SpecError(f"unknown derive kind {kind!r}")


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read measure document {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def load_measure_spec(path: str):
    """Load a measure document from disk, resolving relative references."""
    doc = _load_json(path)
    return resolve_spec(doc, os.path.dirname(os.path.abspath(path)),
                        (os.path.realpath(path),))
