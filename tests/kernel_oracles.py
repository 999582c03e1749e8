"""Reference kernels that the package's level-wide code replaced, kept as oracles.

coding_map_partial sums one word's coding map term by term: the per-word
reference that cylinder_words' rows are compared against.

histogram() used to collect the cells and weights of the words it settles
and bin them with the depth-h words in one call, and the convolution pair
stage used to write pairs behind running sums in one buffer and fold them
every _PAIR_CHUNK pairs. Both summed cell codes through aggregate: one
np.bincount up to the dense cap, a stable sort and np.add.reduceat above
it. The cap and the chunk are read when called, so a test that patches
them small patches these oracles too.
"""

import importlib
import itertools
import math

import numpy as np

from selfsim import cylinder_words, dyadic_depth
from selfsim.histogram import (_EPS_BASE, _MERGE_GUARD_BITS, _box_range,
                               _flat_code, _merge_close_points, _place_lower)

# selfsim.histogram is the function; the modules are reached by name.
_HISTOGRAM = importlib.import_module("selfsim.histogram")
_TRANSFORMS = importlib.import_module("selfsim.transforms")


def coding_map_partial(ifs, word):
    """Partial coding-map sum c = sum_{n=1}^{|w|} T^{n-1} a_{w_n} plus a tail radius.

    Every infinite extension of the word lands in the closed ball
    B(c, tail_radius) with tail_radius = r^{|w|} max_j |a_j| / (1 - r).
    Returns (c, tail_radius); c is a float in 1D and an array (2,) in 2D.
    The word holds symbols in 1..m and is not checked.
    """
    w = np.asarray(word, dtype=np.int64).ravel()
    a = ifs.translations[w - 1]
    if ifs.ambient_dim == 1:
        powers = ifs.lam ** np.arange(w.size)
        c = float(np.dot(powers, a))
    else:
        k = np.arange(w.size)
        ang = 2.0 * math.pi * ((ifs.map.alpha * k) % 1.0)
        r_pow = ifs.map.ratio ** k
        cos_a, sin_a = np.cos(ang), np.sin(ang)
        x = r_pow * (cos_a * a[:, 0] - sin_a * a[:, 1])
        y = r_pow * (sin_a * a[:, 0] + cos_a * a[:, 1])
        c = np.array([x.sum(), y.sum()])
    tail = ifs.map.ratio ** w.size * ifs.coarse_radius
    return c, tail


def aggregate(cells: np.ndarray, weights: np.ndarray, span: int):
    """Sum weights per cell code in [0, span). Returns (codes, sums) sorted."""
    if span <= _HISTOGRAM._DENSE_SPAN_CAP:
        acc = np.bincount(cells, weights=weights, minlength=span)
        nz = np.flatnonzero(acc)
        return nz, acc[nz]
    return stable_sums(cells, weights)


def stable_sums(cells: np.ndarray, weights: np.ndarray):
    """Sum weights per cell code by np.add.reduceat over the runs of the
    np.argsort(kind="stable") order. Returns (codes, sums) sorted."""
    if cells.size == 0:
        return cells, weights
    order = np.argsort(cells, kind="stable")
    cs, ws = cells[order], weights[order]
    starts = np.flatnonzero(np.concatenate(([True], cs[1:] != cs[:-1])))
    return cs[starts], np.add.reduceat(ws, starts)


def collecting_bin_cells(low_cells, low_w, t_lo, t_hi, w_upper, k_min, k_max,
                         settled=None, settled_w=None):
    """Bin every row at once; settled (S,) or (S, d) cells go first."""
    spans = [int(k1 - k0 + 1) for k0, k1 in zip(k_min, k_max)]
    for cells in (low_cells, t_lo, t_hi):
        for arr, k0, k1 in zip(cells, k_min, k_max):
            np.clip(arr, k0, k1, out=arr)
            arr -= k0
    low_code = _flat_code(low_cells, spans)
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
    lo_idx, lo_sum = aggregate(low_code, low_w, span)
    up_idx, up_sum = aggregate(up_cells, up_w, span)
    if len(spans) == 1:
        indices = up_idx + k_min[0]
    else:
        indices = np.stack(np.unravel_index(up_idx, spans), axis=1) + np.asarray(k_min)
    return indices, _place_lower(up_idx, lo_idx, lo_sum), np.minimum(up_sum, 1.0)


def collecting_histogram(ifs, p, n, extra_depth):
    """histogram() collecting settled cells in lists and binning them ahead
    of the depth-h words in one call. Returns (indices, lower, upper)."""
    h = dyadic_depth(ifs, n, extra_depth)
    zs = np.atleast_1d(ifs.attractor_center).astype(float)
    r0 = ifs.attractor_radius
    eps = _EPS_BASE * max(1.0, float(np.max(np.abs(zs)) + r0))
    scale = 2.0 ** n
    quantum = 2.0 ** -(n + _MERGE_GUARD_BITS)
    cells, cell_w = [], []

    def merge_and_settle(depth, centers, weights):
        centers, weights = _merge_close_points(centers, weights, quantum)
        rho = ifs.map.ratio ** depth * r0
        if depth == h or 2.0 * (rho + eps) * scale >= 1.0:
            return centers, weights
        c = centers + ifs.apply_power(depth, zs)
        lo = np.floor((c - rho - eps) * scale)
        one_cell = lo == np.floor((c + rho + eps) * scale)
        done = one_cell if one_cell.ndim == 1 else one_cell.all(axis=1)
        cells.append(lo[done].astype(np.int64))
        cell_w.append(weights[done])
        return centers[~done], weights[~done]

    centers, weights = cylinder_words(ifs, p, h, None, merge_and_settle)
    c = centers + ifs.apply_power(h, zs)
    rho = ifs.map.ratio ** h * r0
    k_min, k_max = zip(*(_box_range(z - r0, z + r0, n, eps) for z in zs))
    e_lo, e_hi = c - rho, c + rho
    contained = True
    low, t_lo, t_hi = [], [], []
    for lo, hi in zip(np.atleast_2d(e_lo.T), np.atleast_2d(e_hi.T)):
        c_lo = np.floor((lo + eps) * scale).astype(np.int64)
        contained = contained & (c_lo == np.floor((hi - eps) * scale).astype(np.int64))
        low.append(c_lo)
        t_lo.append(np.floor((lo - eps) * scale).astype(np.int64))
        t_hi.append(np.floor((hi + eps) * scale).astype(np.int64))
    settled = (np.concatenate(cells), np.concatenate(cell_w)) if cells else (None, None)
    return collecting_bin_cells([c[contained] for c in low], weights[contained], t_lo,
                                t_hi, weights, k_min, k_max, *settled)


def buffered_pair_sums(blocks: list, length: int):
    """Pairs written behind the running sums in one buffer and folded into
    them once _PAIR_CHUNK are pending. Returns (codes, sums) sorted."""
    chunk = _TRANSFORMS._PAIR_CHUNK
    blocks = [(r[wr > 0.0], wr[wr > 0.0], c[wc > 0.0], wc[wc > 0.0])
              for r, wr, c, wc in blocks]
    size = (min(length, sum(r.size * c.size for r, _, c, _ in blocks))
            + 2 * chunk + max([c.size for _, _, c, _ in blocks] + [0]))
    codes, sums = np.empty(size, np.int64), np.empty(size)
    used = pending = 0
    for rows, w_rows, cols, w_cols in blocks:
        step = max(1, chunk // max(1, cols.size))
        for i in range(0, rows.size, step):
            shape = (rows[i:i + step].size, cols.size)
            end = used + shape[0] * shape[1]
            np.add(rows[i:i + step, None], cols, out=codes[used:end].reshape(shape))
            np.multiply(w_rows[i:i + step, None], w_cols, out=sums[used:end].reshape(shape))
            used, pending = end, pending + end - used
            if pending >= chunk:
                merged_codes, merged_sums = aggregate(codes[:used], sums[:used], length)
                used, pending = merged_codes.size, 0
                codes[:used], sums[:used] = merged_codes, merged_sums
    return aggregate(codes[:used], sums[:used], length)
