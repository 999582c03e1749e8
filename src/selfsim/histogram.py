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

A settled word adds its weight to its integer cell floor((lo - eps) 2^n) =
floor((hi + eps) 2^n) as it settles, not by its enclosure ends: floor is
monotone, so the inward floors of the ends name the same cell, and the
weight counts in both masses there. Up to _DENSE_SPAN_CAP cells in the box
the weight goes straight into one dense float64 sum per cell (_CellSums);
when expansion ends the upper sums start as a copy of these, and the
depth-h words are binned behind them. Settled words thus come ahead of the
depth-h words in every sum, in the order binning every word's ends at once
would add them, so the masses are bit for bit the same, and memory follows
the live words, not every word settled. Larger boxes keep the settled cells
and weights and sum them at the end, with the upper ones, in the stable
order of the codes: one sort of unique (code, row) keys (_sorted_sums).

A level's rows go through the settle test and binning _BLOCK_ROWS at a
time, in row order, so each float temporary fits in cache rather than
spanning the level; every per-element expression and every order of
summation is that of one pass over the level, so blocks move no bit.

Rows are selected by position, in row order (_take_rows): one
np.flatnonzero per mask, then a take of every array that shares it. The
settle test's settled and kept rows, binning's contained rows, the rows
wider than one cell and those reaching each offset switch between kept
and dropped every two or three rows, where a boolean index costs two to
five times as much as this on numpy 2.4. Selection is exact and keeps
the order, so every sum adds the same terms in the same order.

Words of overlapping systems whose partial sums round to one multiple of
2^-(n+40) are merged after each level. A system with word_gap g > 0 has
distinct words' partial sums r^(d-1) g apart at depth d, at least
r^(d-1) g / sqrt(dim) on some axis, and their float centres within
err_d = centre_error(ifs, d) of them on every axis. Where
r^(d-1) g / sqrt(dim) - 2 err_d exceeds the quantum, two rows cannot round
to one key (equal keys put the centres within one quantum on every axis),
the merge would return its inputs unchanged, and it is not run: for the
separated examples that is every level. Elsewhere most levels still have
no two such words, and an unstable sort with a neighbour check, of the
rounded float keys in 1D and of a hash of the int64 key pair in 2D, finds
that before the stable sort that groups them is paid for.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PrecisionError, SpecError
from .ifs import HomogeneousIfs, centre_error, cylinder_words, word_gap

_EPS_BASE = 1e-14
_DENSE_SPAN_CAP = 1 << 23
# Rows of a level that binning, the settle test and the 2D merge keys work
# on at a time: a float64 temporary of this many rows (256 KB) stays in L2.
_BLOCK_ROWS = 1 << 15
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

    A level usually has no two words with one rounded key (histogram()
    does not call this at the depths where word_gap proves none can
    share one), so an unstable sort first checks for equal
    neighbours: of the rounded keys themselves, sorted as floats in 1D, of
    a wrapped uint64 hash of the int64 key pair in 2D. Rounded keys are
    integral floats below 2^62, equal exactly when their int64 casts are.
    With no equal neighbours every group is one row and the inputs come
    back unchanged. Otherwise the stable sort below groups the rows by
    their int64 keys; a hash collision of distinct pairs only sends a
    level down that exact path.
    """
    if centers.shape[0] < 4096:
        return centers, weights
    scale = 1.0 / quantum
    mx = max(float(centers.max()), -float(centers.min()))
    if mx * scale >= 2.0 ** 62:
        return centers, weights
    if centers.ndim == 1:
        probe = centers * scale
        np.round(probe, out=probe)
        probe.sort()
    else:
        keys = _int_keys(centers, scale)
        pair = keys.view(np.uint64)
        probe = pair[:, 0] * np.uint64(_PAIR_HASH)
        probe += pair[:, 1]
        probe.sort()
    if not np.any(probe[1:] == probe[:-1]):
        return centers, weights
    if centers.ndim == 1:
        keys = _int_keys(centers, scale)
    order = (np.argsort(keys, kind="stable") if centers.ndim == 1
             else np.lexsort((keys[:, 1], keys[:, 0])))
    ks = keys[order]
    change = ks[1:] != ks[:-1]
    if centers.ndim == 2:
        change = change[:, 0] | change[:, 1]
    starts = np.flatnonzero(np.concatenate(([True], change)))
    if starts.size == centers.shape[0]:
        return centers, weights
    w_sorted = weights[order]
    merged_w = np.add.reduceat(w_sorted, starts)
    merged_c = centers[order[starts]]
    return merged_c, merged_w


def _int_keys(centers: np.ndarray, scale: float) -> np.ndarray:
    """round(centers * scale) as int64, formed _BLOCK_ROWS rows at a time."""
    keys = np.empty(centers.shape, np.int64)
    for rows in _row_blocks(centers.shape[0]):
        t = centers[rows] * scale
        keys[rows] = np.round(t, out=t)
    return keys


def _take_rows(mask: np.ndarray, *arrays) -> list:
    """The rows of each array where mask holds, in row order: one
    np.flatnonzero, then a take along the first axis of every array."""
    rows = np.flatnonzero(mask)
    return [a.take(rows, axis=0) for a in arrays]


def _row_blocks(count: int):
    """Slices of _BLOCK_ROWS consecutive rows covering range(count)."""
    return (slice(s, s + _BLOCK_ROWS) for s in range(0, count, _BLOCK_ROWS))


class _CellSums:
    """Sums of weights per flat cell code in [0, span), added in order.

    Up to _DENSE_SPAN_CAP cells the sums are one dense float64 array and
    add() puts each weight into it with np.add.at, one at a time in input
    order: the bits np.bincount of every weight added so far would give.
    Above the cap add() keeps the (codes, weights) parts, and _sorted_sums
    folds them (in the stable order of the codes, by np.add.reduceat, which
    sums pairwise, so a fold's grouping fixes the bits): once at the end,
    or, with fold_every, each time that many weights are pending, the
    running sums first.
    """

    def __init__(self, span: int, fold_every: int | None = None):
        self.span, self.fold_every = span, fold_every
        self.dense = np.zeros(span) if span <= _DENSE_SPAN_CAP else None
        self.parts, self.pending = [], 0

    def add(self, codes: np.ndarray, weights: np.ndarray) -> None:
        if self.dense is not None:
            np.add.at(self.dense, codes, weights)
            return
        self.parts.append((codes, weights))
        self.pending += codes.size
        if self.fold_every is not None and self.pending >= self.fold_every:
            self.parts, self.pending = [self.sums()], 0

    def copy(self) -> _CellSums:
        """Sums that go on from these; the added arrays are shared, not copied.

        Dense sums copy only their nonzero cells into fresh zeros, so the
        pages of a mostly empty box stay untouched until written. A masked
        copy costs a fraction of np.flatnonzero over a sparse box.
        """
        other = copy.copy(self)
        other.parts = list(self.parts)
        if self.dense is not None:
            other.dense = np.zeros(self.span)
            np.copyto(other.dense, self.dense, where=self.dense != 0.0)
        return other

    def sums(self):
        """(codes, sums) sorted by code; the dense sums leave out zeros."""
        if self.dense is not None:
            # np.nonzero of a bool mask is several times faster than of floats.
            nz = np.flatnonzero(self.dense != 0.0)
            return nz, self.dense[nz]
        return _sorted_sums(self.parts, self.span)


def _sorted_sums(parts: list, span: int):
    """Sum the weights of (codes, weights) parts per code in [0, span) by
    np.add.reduceat, in the stable order of the joined codes. Returns
    (codes, sums) sorted.

    The joined codes become unique keys code << b | row in place, so one
    unstable sort gives the stable order and the low b bits the rows; keys
    past 63 bits take np.argsort(kind="stable").
    """
    if not any(c.size for c, _ in parts):
        return np.empty(0, np.int64), np.empty(0)
    codes, weights = (np.concatenate(a) for a in zip(*parts))
    b = (codes.size - 1).bit_length()
    if (span - 1).bit_length() + b > 63:
        order = np.argsort(codes, kind="stable")
        codes, weights = codes[order], weights[order]
    else:
        codes <<= b
        codes |= np.arange(codes.size)
        codes.sort()
        weights = weights[codes & ((1 << b) - 1)]
        codes >>= b
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    return codes[starts], np.add.reduceat(weights, starts)


def bin_weighted_intervals(e_lo: np.ndarray, e_hi: np.ndarray,
                           w_lower: np.ndarray, w_upper: np.ndarray,
                           n: int, k_min, k_max, eps: float,
                           sums: _CellSums | None = None, radius: float = 0.0):
    """Bin weighted intervals or boxes into level-n dyadic cells of a box.

    Row i encloses [e_lo[i] - radius, e_hi[i] + radius], shape (K,) for
    intervals with scalar k_min, k_max, or (K, d) for boxes with one bound
    per axis; histogram() passes its centres as both ends, with the ball
    radius, so the ends are only formed a block at a time. x - 0.0 == x,
    so the default radius leaves given ends as they are.
    w_lower feeds the lower mass of the cell containing an enclosure on
    every axis, w_upper the upper mass of every cell it touches.
    Enclosures are binned _BLOCK_ROWS at a time (see _bin_cells), so the
    temporaries of one block stay in cache, and memory follows one block
    and the rows wider than one cell, not every enclosure.

    sums, when given, holds the per-cell sums over the box's flat codes
    (see _flat_code) of weights already known to lie in one cell:
    histogram() adds each settled word's weight there as it settles. They
    start both masses, ahead of every enclosure, which is where binning
    the settled words' ends first would put them, so the masses keep
    those bits; sums itself goes on as the lower masses. Returns
    (indices, lower, upper) with absolute cell indices.
    """
    scale = 2.0 ** n

    def cell(x, shift):
        """floor((x + shift) 2^n) as int64, with one float temporary."""
        t = x + shift
        t *= scale
        return np.floor(t, out=t).astype(np.int64)

    def chunks():
        for rows in _row_blocks(w_upper.shape[0]):
            # Rows of the transposed (1, K) or (d, K) views are per-axis
            # coordinates.
            axes = list(zip(np.atleast_2d((e_lo[rows] - radius).T),
                            np.atleast_2d((e_hi[rows] + radius).T)))
            contained, low = True, []
            for lo, hi in axes:
                low.append(cell(lo, eps))
                contained = contained & (low[-1] == cell(hi, -eps))
            *low, low_w = _take_rows(contained, *low, w_lower[rows])
            yield (low, low_w, [cell(lo, -eps) for lo, _ in axes],
                   [cell(hi, eps) for _, hi in axes], w_upper[rows])

    return _bin_cells(chunks(), np.atleast_1d(k_min), np.atleast_1d(k_max), sums)


def _bin_cells(chunks, k_min, k_max, sums: _CellSums | None = None):
    """Sum masses already assigned to integer cells, clipped to [k_min, k_max].

    chunks yields (low_cells, low_w, t_lo, t_hi, w_upper). Cells come per
    axis, one integer array per axis in low_cells, t_lo and t_hi, with one
    bound per axis in k_min and k_max. low_w lands in the cell low_cells;
    w_upper lands in every cell of the box [t_lo, t_hi]. The cell arrays
    are overwritten, so chunks yields arrays it owns. sums (see
    bin_weighted_intervals) starts both masses.

    The masses are added as each chunk comes, in the order binning every
    row at once adds them, so chunking moves no bit. The lower sums take
    the contained rows. The upper sums take offset 0 from the first cell
    on every axis for all rows, then, after the last chunk, each nonzero
    offset in itertools.product order for the rows at least that wide,
    chunk by chunk; only each chunk's rows wider than one cell are kept
    for that. Up to _DENSE_SPAN_CAP cells each weight goes into a dense
    sum as it comes. Above the cap the codes are kept and summed once at
    the end, as when
    every row was binned at once: those sums use np.add.reduceat, which
    adds pairwise, so folding each chunk would regroup the terms and move
    bits. Returns (indices, lower, upper) over the cells with positive
    upper mass; indices are flat in 1D and (K, d) otherwise.
    """
    spans = [int(k1 - k0 + 1) for k0, k1 in zip(k_min, k_max)]
    lower = sums if sums is not None else _CellSums(math.prod(spans))
    upper = lower.copy()
    wide = [_bin_chunk(lower, upper, k_min, k_max, spans, *chunk) for chunk in chunks]
    # The widest row on each axis bounds the offsets.
    reach = [max([int(widths[a].max(initial=0)) for _, widths, _ in wide], default=0) + 1
             for a in range(len(spans))]
    for offs in itertools.product(*(range(r) for r in reach)):
        if not any(offs):
            continue
        for t_lo, widths, w_upper in wide:
            upper.add(*_offset_rows(t_lo, widths, w_upper, offs, spans))

    up_idx, up_sum = upper.sums()
    lo_idx, lo_sum = lower.sums()
    if len(spans) == 1:
        indices = up_idx + k_min[0]
    else:
        indices = np.stack(np.unravel_index(up_idx, spans), axis=1) + np.asarray(k_min)
    return indices, _place_lower(up_idx, lo_idx, lo_sum), np.minimum(up_sum, 1.0)


def _offset_rows(t_lo: list, widths: list, w_upper: np.ndarray, offs: tuple, spans: list):
    """Flat codes of the cells at offset offs from t_lo and the weights, over
    the rows at least offs wide on every axis; the selected rows die with
    the call, not with the caller's loop."""
    mask = widths[0] >= offs[0]
    for width, off in zip(widths[1:], offs[1:]):
        mask &= width >= off
    *cells, weights = _take_rows(mask, *t_lo, w_upper)
    for c, off in zip(cells, offs):
        c += off
    return _flat_code(cells, spans), weights


def _bin_chunk(lower: _CellSums, upper: _CellSums, k_min, k_max, spans: list,
               low_cells: list, low_w: np.ndarray, t_lo: list, t_hi: list,
               w_upper: np.ndarray):
    """Add one chunk's lower masses and its upper masses at offset 0.

    Returns (t_lo, widths, w_upper) of the rows wider than one cell on
    some axis, for the other offsets: per-axis cells in the box, per-axis
    widths in cells and the weights.
    """
    lower.add(_flat_code(_to_box(low_cells, k_min, k_max), spans), low_w)
    upper.add(_flat_code(_to_box(t_lo, k_min, k_max), spans), w_upper)
    widths = _to_box(t_hi, k_min, k_max)
    for lo, w in zip(t_lo, widths):
        w -= lo
    wide = np.logical_or.reduce([w > 0 for w in widths])
    *rows, w_wide = _take_rows(wide, *t_lo, *widths, w_upper)
    return rows[:len(t_lo)], rows[len(t_lo):], w_wide


def _to_box(cells: list, k_min, k_max) -> list:
    """Clip per-axis cells to [k_min, k_max] and shift them to start at 0, in place."""
    for arr, k0, k1 in zip(cells, k_min, k_max):
        np.clip(arr, k0, k1, out=arr)
        arr -= k0
    return cells


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


def _cell_box(lo, hi, n: int):
    """Enclosure margin and level-n cell box of the region [lo, hi].

    lo and hi hold one end per axis. The margin eps = _EPS_BASE
    max(1, max |end|) widens every enclosure outward (touch) and narrows
    it inward (containment) when binned. Returns (eps, k_min, k_max) with
    one cell bound per axis.
    """
    eps = _EPS_BASE * max(1.0, *(abs(float(x)) for x in (*lo, *hi)))
    k_min, k_max = zip(*(_box_range(a, b, n, eps) for a, b in zip(lo, hi)))
    return eps, k_min, k_max


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
    eps, k0, k1 = _cell_box(zs - r0, zs + r0, n)
    scale = 2.0 ** n
    quantum = 2.0 ** -(n + _MERGE_GUARD_BITS)
    spans = [b - a + 1 for a, b in zip(k0, k1)]
    # Per-cell sums of the words settled before depth h.
    settled = _CellSums(math.prod(spans))
    gap = word_gap(ifs)

    def merge_and_settle(depth, centers, weights):
        # Rows whose keys provably differ would come back unchanged (see
        # the module docstring); g <= 0 always merges.
        if (ifs.map.ratio ** (depth - 1) * gap / math.sqrt(ifs.ambient_dim)
                - 2.0 * centre_error(ifs, depth) <= quantum):
            centers, weights = _merge_close_points(centers, weights, quantum)
        rho = ifs.map.ratio ** depth * r0
        # No enclosure fits one cell before 2 (rho + eps) < 2^-n; the words
        # left at depth h are binned by their ends.
        if depth == h or 2.0 * (rho + eps) * scale >= 1.0:
            return centers, weights
        shift = ifs.apply_power(depth, zs)
        keep = np.empty(weights.shape[0], dtype=bool)
        for rows in _row_blocks(weights.shape[0]):
            # floor((c - rho - eps) 2^n) and floor((c + rho + eps) 2^n), in place.
            c = centers[rows] + shift
            lo = c - rho
            lo -= eps
            lo *= scale
            np.floor(lo, out=lo)
            c += rho
            c += eps
            c *= scale
            np.floor(c, out=c)
            one_cell = lo == c
            done = one_cell if one_cell.ndim == 1 else one_cell[:, 0] & one_cell[:, 1]
            cells, w_done = _take_rows(done, lo, weights[rows])
            cells = cells.astype(np.int64)
            settled.add(_flat_code(_to_box(list(np.atleast_2d(cells.T)), k0, k1), spans),
                        w_done)
            np.logical_not(done, out=keep[rows])
        return _take_rows(keep, centers, weights)

    centers, weights = cylinder_words(ifs, p, h, word_budget, merge_and_settle)
    # The depth-h balls: centres shifted in the rows' own array, and their radius.
    centers += ifs.apply_power(h, zs)
    idx, lower, upper = bin_weighted_intervals(
        centers, centers, weights, weights, n, k0, k1, eps, settled,
        radius=ifs.map.ratio ** h * r0)
    return DyadicHistogram(ifs.ambient_dim, n, h, k0, k1, idx, lower, upper)


def moment_sums(hist: DyadicHistogram, q: float) -> tuple[float, float]:
    """Bounds (S_lower, S_upper) for the moment sum S_{n,q} = sum mu(I)^q.

    Valid for any finite q > 0 except 1: since x -> x^q is increasing on [0, 1],
    raising the per-cell lower and upper masses to the q preserves the
    bracket regardless of whether q is above or below 1.
    """
    if not 0.0 < q < math.inf:
        raise SpecError(f"moment order q must be positive and finite, got {q}")
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
