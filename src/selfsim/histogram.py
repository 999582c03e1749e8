"""Certified dyadic histograms for self-similar measures.

For a target dyadic level n the measure is unrolled to cylinder words of
depth h (chosen so the cylinder diameter is below the cell width, plus a
caller-controlled extra_depth), each word carrying its product weight and
a ball enclosure of its cylinder set. A word's weight counts toward the
lower mass of a cell only when the enclosure lies wholly inside the cell
and toward the upper mass of every cell the enclosure touches, so the
per-cell interval [lower, upper] always brackets the true cell measure.

Refinement is adaptive. A word whose enclosure, widened outward by eps,
already lies inside one cell is settled: its whole weight goes to the
lower and upper mass of that cell and it stops growing. A child's ball
lies inside its parent's (|a_j - abar| <= (1 - r) R), so every depth-h
descendant of a settled word would also lie in that cell and touch no
other; the cells and the sandwich equal those of expanding every word to
depth h, up to the order of float summation. Only words whose enclosure
meets a cell boundary keep growing, so the cost follows the number of
such boundary words rather than m^h.

A settled word carries its integer cell floor((lo - eps) 2^n) =
floor((hi + eps) 2^n) to binning, not its enclosure ends: floor is
monotone, so the inward floors of the ends name the same cell and the
word adds its weight to both masses there. Settled cells come ahead of the
depth-h words in every sum, the order in which binning all ends would add
them, so the masses are bit for bit the same.

Words of overlapping systems whose partial sums round to one multiple of
2^-(n+40) are merged after each level. Most levels (all of them for separated
systems) have no two such words, and an unstable sort with a neighbour
check finds that before the stable sort that groups them is paid for.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PrecisionError, SpecError
from .ifs import HomogeneousIfs, cylinder_words

_EPS_BASE = 1e-14
_DENSE_SPAN_CAP = 1 << 23
_MERGE_GUARD_BITS = 40
# Odd multiplier (2^64 over the golden ratio) of the 2D merge keys' hash.
_PAIR_HASH = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class DyadicHistogram:
    """Sparse per-cell mass intervals on the dyadic grid of side 2^-n.

    indices holds absolute cell indices k (cell = [k 2^-n, (k+1) 2^-n)),
    shape (K,) in 1D and (K, 2) in 2D, sorted. k_min and k_max bound the
    box covering the support (per axis in 2D).
    """

    ambient_dim: int
    n: int
    depth_used: int
    k_min: tuple
    k_max: tuple
    indices: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if self.ambient_dim == 1 and idx.ndim != 1:
            raise SpecError("1D histogram indices must be flat")
        if self.ambient_dim == 2 and (idx.ndim != 2 or idx.shape[1] != 2):
            raise SpecError("2D histogram indices must have shape (K, 2)")
        if lo.shape != (idx.shape[0],) or up.shape != (idx.shape[0],):
            raise SpecError("mass arrays must match the index count")
        if np.any(lo < -1e-12) or np.any(up > 1.0 + 1e-9) or np.any(lo > up + 1e-12):
            raise SpecError("per-cell masses must satisfy 0 <= lower <= upper <= 1")
        if lo.sum() > 1.0 + 1e-9:
            raise SpecError("total lower mass exceeds 1")
        if up.sum() < 1.0 - 1e-9:
            raise SpecError("total upper mass falls below 1")
        for arr, name in ((idx, "indices"), (lo, "lower"), (up, "upper")):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "k_min", tuple(int(v) for v in np.atleast_1d(self.k_min)))
        object.__setattr__(self, "k_max", tuple(int(v) for v in np.atleast_1d(self.k_max)))

    @property
    def cell_width(self) -> float:
        return 2.0 ** -self.n

    @property
    def num_cells(self) -> int:
        return self.indices.shape[0]

    def total_lower(self) -> float:
        return float(self.lower.sum())

    def total_upper(self) -> float:
        return float(self.upper.sum())

    def box(self) -> tuple:
        """((lo, hi)) per axis, in coordinates."""
        w = self.cell_width
        return tuple((k0 * w, (k1 + 1) * w) for k0, k1 in zip(self.k_min, self.k_max))

    def cell_left(self) -> np.ndarray:
        """Left (or lower-left) coordinates of every stored cell."""
        return self.indices * self.cell_width


def dyadic_depth(ifs: HomogeneousIfs, n: int, extra_depth: int = 4) -> int:
    """Smallest h with r^(h+1) <= 2^-n < r^h, plus extra_depth."""
    if n < 1:
        raise SpecError("dyadic level n must be >= 1")
    if extra_depth < 0:
        raise SpecError("extra_depth must be >= 0")
    bits = -math.log2(ifs.map.ratio)
    h0 = math.ceil(n / bits - 1e-12) - 1
    r = ifs.map.ratio
    while r ** (h0 + 1) > 2.0 ** -n:
        h0 += 1
    while h0 > 1 and r ** (h0 - 1 + 1) <= 2.0 ** -n:
        h0 -= 1
    return max(1, h0) + extra_depth


def _merge_close_points(centers: np.ndarray, weights: np.ndarray, quantum: float):
    """Merge words whose partial sums agree to within the quantum.

    Keeps the lexicographically first representative per group. Purely an
    optimization for overlapping (lattice-like) systems; skipping it only
    costs memory, never correctness.

    A level usually has no two words with one rounded key (separated
    systems never do), so an unstable sort first checks for equal
    neighbours: of the keys in 1D, of a wrapped uint64 hash of the key pair
    in 2D. With none, every group is one row and the inputs come back
    unchanged. Otherwise the stable sort below groups the rows; a hash
    collision of distinct pairs only sends a level down that exact path.
    """
    if centers.shape[0] < 4096:
        return centers, weights
    scale = 1.0 / quantum
    mx = max(float(centers.max()), -float(centers.min()))
    if mx * scale >= 2.0 ** 62:
        return centers, weights
    keys = centers * scale
    np.round(keys, out=keys)
    keys = keys.astype(np.int64)
    if centers.ndim == 1:
        probe = np.sort(keys)
    else:
        pair = keys.view(np.uint64)
        probe = pair[:, 0] * np.uint64(_PAIR_HASH)
        probe += pair[:, 1]
        probe.sort()
    if not np.any(probe[1:] == probe[:-1]):
        return centers, weights
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


def _aggregate(cells: np.ndarray, weights: np.ndarray, span: int):
    """Sum weights per cell code in [0, span). Returns (codes, sums) sorted."""
    if span <= _DENSE_SPAN_CAP:
        acc = np.bincount(cells, weights=weights, minlength=span)
        nz = np.flatnonzero(acc)
        return nz, acc[nz]
    if cells.size == 0:
        return cells, weights
    order = np.argsort(cells, kind="stable")
    cs = cells[order]
    ws = weights[order]
    starts = np.flatnonzero(np.concatenate(([True], cs[1:] != cs[:-1])))
    return cs[starts], np.add.reduceat(ws, starts)


def bin_weighted_intervals(e_lo: np.ndarray, e_hi: np.ndarray,
                           w_lower: np.ndarray, w_upper: np.ndarray,
                           n: int, k_min, k_max, eps: float,
                           settled: np.ndarray | None = None,
                           settled_w: np.ndarray | None = None):
    """Bin weighted intervals or boxes into level-n dyadic cells of a box.

    e_lo and e_hi hold the enclosure ends, shape (K,) for intervals with
    scalar k_min, k_max, or (K, d) for boxes with one bound per axis.
    w_lower feeds the lower mass of the cell containing an enclosure on
    every axis, w_upper the upper mass of every cell it touches.

    settled, shape (S,) or (S, d), holds the absolute cells of enclosures
    already known to lie in one cell (histogram() finds them while it
    settles words), with their weights in settled_w; it is overwritten.
    Each adds its weight to the lower and upper mass of its cell, ahead of
    the enclosures in every sum, so the masses are bit for bit those of
    binning the settled enclosures' ends first. Returns (indices, lower,
    upper) with absolute cell indices.
    """
    scale = 2.0 ** n

    def cell(x, shift):
        """floor((x + shift) 2^n) as int64, with one float temporary."""
        t = x + shift
        t *= scale
        return np.floor(t, out=t).astype(np.int64)

    contained = True
    low, t_lo, t_hi = [], [], []
    # Rows of the transposed (1, K) or (d, K) views are per-axis coordinates.
    for lo, hi in zip(np.atleast_2d(e_lo.T), np.atleast_2d(e_hi.T)):
        c_lo = cell(lo, eps)
        contained = contained & (c_lo == cell(hi, -eps))
        low.append(c_lo)
        t_lo.append(cell(lo, -eps))
        t_hi.append(cell(hi, eps))
    return _bin_cells([c[contained] for c in low], w_lower[contained], t_lo,
                      t_hi, w_upper, np.atleast_1d(k_min), np.atleast_1d(k_max),
                      settled, settled_w)


def _bin_cells(low_cells: list, low_w: np.ndarray, t_lo: list, t_hi: list,
               w_upper: np.ndarray, k_min, k_max, settled: np.ndarray | None = None,
               settled_w: np.ndarray | None = None):
    """Sum masses already assigned to integer cells, clipped to [k_min, k_max].

    Cells come per axis, one integer array per axis in low_cells, t_lo and
    t_hi, with one bound per axis in k_min and k_max. low_w lands in the
    cell low_cells; w_upper lands in every cell of the box [t_lo, t_hi].
    settled, shape (S,) or (S, d), adds settled_w to both masses of its
    cells, ahead of every other term of both sums. The cell arrays are
    overwritten (clipped to the box and shifted to start at 0, t_hi then
    turned into widths), so callers pass arrays they own. Returns
    (indices, lower, upper) over the cells with positive upper mass;
    indices are flat in 1D and (K, d) otherwise.
    """
    spans = [int(k1 - k0 + 1) for k0, k1 in zip(k_min, k_max)]
    for cells in (low_cells, t_lo, t_hi):
        for arr, k0, k1 in zip(cells, k_min, k_max):
            np.clip(arr, k0, k1, out=arr)
            arr -= k0
    low_code = _flat_code(low_cells, spans)
    # Offset 0 on every axis takes every row; the others a masked subset.
    up_cells, up_w = [_flat_code(t_lo, spans)], [w_upper]
    if settled is not None:
        np.clip(settled, k_min, k_max, out=settled)
        settled -= k_min
        code = _flat_code(list(np.atleast_2d(settled.T)), spans)
        low_code, low_w = np.concatenate((code, low_code)), np.concatenate((settled_w, low_w))
        up_cells.insert(0, code)
        up_w.insert(0, settled_w)
    widths = t_hi
    for lo, hi in zip(t_lo, widths):
        hi -= lo
    for offs in itertools.product(*(range(int(w.max()) + 1 if w.size else 0)
                                    for w in widths)):
        if not any(offs):
            continue
        mask = widths[0] >= offs[0]
        for w, off in zip(widths[1:], offs[1:]):
            mask &= w >= off
        up_cells.append(_flat_code([lo[mask] + off for lo, off in zip(t_lo, offs)], spans))
        up_w.append(w_upper[mask])
    up_cells, up_w = np.concatenate(up_cells), np.concatenate(up_w)

    span = math.prod(spans)
    lo_idx, lo_sum = _aggregate(low_code, low_w, span)
    up_idx, up_sum = _aggregate(up_cells, up_w, span)

    if len(spans) == 1:
        indices = up_idx + k_min[0]
    else:
        indices = np.stack(np.unravel_index(up_idx, spans), axis=1) + np.asarray(k_min)
    upper = np.minimum(up_sum, 1.0)
    lower = _place_lower(up_idx, lo_idx, lo_sum)
    return indices, lower, upper


def _flat_code(cells: list, spans: list) -> np.ndarray:
    """Row-major code of per-axis cell offsets; no copy in 1D."""
    return cells[0] if len(cells) == 1 else np.ravel_multi_index(tuple(cells), spans)


def _place_lower(up_idx: np.ndarray, lo_idx: np.ndarray, lo_sum: np.ndarray) -> np.ndarray:
    """Scatter lower-mass sums onto the touched-cell index set."""
    lower = np.zeros(up_idx.shape[0])
    if lo_idx.size == 0:
        return lower
    pos = np.searchsorted(up_idx, lo_idx)
    ok = (pos < up_idx.size) & (up_idx[np.minimum(pos, up_idx.size - 1)] == lo_idx)
    lower[pos[ok]] = np.minimum(lo_sum[ok], 1.0)
    return lower


def _box_range(lo: float, hi: float, n: int, eps: float) -> tuple[int, int]:
    scale = 2.0 ** n
    k0 = int(math.floor((lo + eps) * scale))
    k1 = int(math.floor((hi - eps) * scale))
    return k0, max(k0, k1)


def histogram(ifs: HomogeneousIfs, p, n: int, extra_depth: int = 4,
              word_budget: int | None = None) -> DyadicHistogram:
    """Certified cell-mass intervals of the self-similar measure at level n.

    Increasing extra_depth tightens every [lower, upper] interval. Words
    settle as soon as their enclosure fits in one cell (see the module
    docstring), so the cost grows with the words that still meet a cell
    boundary at depth h, not with m^h, and word_budget bounds the words
    still growing at each depth. The default of 4 keeps sandwich gaps
    below about one percent for separated examples up to n = 20.
    """
    h = dyadic_depth(ifs, n, extra_depth)

    zs = np.atleast_1d(ifs.attractor_center).astype(float)
    r0 = ifs.attractor_radius
    coord_bound = float(np.max(np.abs(zs)) + r0)
    if (coord_bound + 1.0) * 2.0 ** n >= 2.0 ** 52:
        raise PrecisionError(
            f"level {n} cells are below float64 resolution for coordinates "
            f"of magnitude {coord_bound:g}")
    eps = _EPS_BASE * max(1.0, coord_bound)
    scale = 2.0 ** n
    quantum = 2.0 ** -(n + _MERGE_GUARD_BITS)
    # Cells and weights of the words settled before depth h.
    cells, cell_w = [], []

    def merge_and_settle(depth, centers, weights):
        centers, weights = _merge_close_points(centers, weights, quantum)
        rho = ifs.map.ratio ** depth * r0
        # No enclosure fits one cell before 2 (rho + eps) < 2^-n; the words
        # left at depth h are binned by their ends.
        if depth == h or 2.0 * (rho + eps) * scale >= 1.0:
            return centers, weights
        # floor((c - rho - eps) 2^n) and floor((c + rho + eps) 2^n), in place.
        c = centers + ifs.apply_power(depth, zs)
        lo = c - rho
        lo -= eps
        lo *= scale
        np.floor(lo, out=lo)
        c += rho
        c += eps
        c *= scale
        np.floor(c, out=c)
        one_cell = lo == c
        done = one_cell if one_cell.ndim == 1 else one_cell.all(axis=1)
        cells.append(lo[done].astype(np.int64))
        cell_w.append(weights[done])
        keep = ~done
        return centers[keep], weights[keep]

    centers, weights = cylinder_words(ifs, p, h, word_budget, merge_and_settle)
    c = centers + ifs.apply_power(h, zs)
    rho = ifs.map.ratio ** h * r0
    k0, k1 = zip(*(_box_range(z - r0, z + r0, n, eps) for z in zs))
    settled = (np.concatenate(cells), np.concatenate(cell_w)) if cells else (None, None)
    idx, lower, upper = bin_weighted_intervals(
        c - rho, c + rho, weights, weights, n, k0, k1, eps, *settled)
    return DyadicHistogram(ifs.ambient_dim, n, h, k0, k1, idx, lower, upper)


def moment_sums(hist: DyadicHistogram, q: float) -> tuple[float, float]:
    """Bounds (S_lower, S_upper) for the moment sum S_{n,q} = sum mu(I)^q.

    Valid for any q > 0 except 1: since x -> x^q is increasing on [0, 1],
    raising the per-cell lower and upper masses to the q preserves the
    bracket regardless of whether q is above or below 1.
    """
    if q <= 0.0:
        raise SpecError(f"moment order q must be positive, got {q}")
    if abs(q - 1.0) < 1e-12:
        raise SpecError("q = 1 is the entropy case, use entropy_sum")
    lo = hist.lower[hist.lower > 0.0]
    up = hist.upper[hist.upper > 0.0]
    return float(np.sum(lo ** q)), float(np.sum(up ** q))


def entropy_sum(hist: DyadicHistogram) -> tuple[float, float]:
    """Bounds (H_lower, H_upper) for H_n = sum mu(I) log2(1/mu(I)).

    The summand g(x) = -x log2 x increases up to x = 1/e and decreases
    after, so each cell contributes the interval hull of g over its mass
    bracket, with the peak value inserted when the bracket straddles 1/e.
    """

    def g(x):
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = -x[pos] * np.log2(x[pos])
        return out

    lo = hist.lower
    up = hist.upper
    gl = g(lo)
    gu = g(up)
    xm = 1.0 / math.e
    h_hi = np.maximum(gl, gu)
    straddle = (lo < xm) & (up > xm)
    h_hi[straddle] = -xm * math.log2(xm)
    h_lo = np.minimum(gl, gu)
    return float(max(0.0, h_lo.sum())), float(h_hi.sum())
