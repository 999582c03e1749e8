"""Homogeneous iterated function systems and their elementary invariants.

An IFS here is a finite family of contractions x -> Tx + a_i sharing one
linear part T. In ambient dimension 1 the linear part is a signed ratio
lam = sign * r with 0 < r < 1; in dimension 2 it is r times a rotation by
the angle 2*pi*alpha. All logarithms in this package are base 2.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, SpecError

WORD_BUDGET = 2 ** 24

_WEIGHT_TOL = 1e-12
# Word pairs compared at a time by the separation check.
_SCAN_PAIRS = 1 << 18


@dataclass(frozen=True)
class Similarity:
    """Shared linear part of a homogeneous IFS.

    ratio is the contraction factor r in (0, 1). Exactly one of sign
    (ambient dim 1) or alpha (ambient dim 2, rotation fraction in [0, 1))
    is set; the other must be None.
    """

    ratio: float
    sign: int | None = None
    alpha: float | None = None

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise SpecError(f"contraction ratio must lie in (0,1), got {self.ratio}")
        if self.sign is not None and self.alpha is not None:
            raise SpecError("a similarity carries either sign (1D) or alpha (2D), not both")
        if self.sign is not None and self.sign not in (-1, 1):
            raise SpecError(f"sign must be -1 or +1, got {self.sign}")
        if self.alpha is not None and not (0.0 <= self.alpha < 1.0):
            raise SpecError(f"rotation fraction alpha must lie in [0,1), got {self.alpha}")


@dataclass(frozen=True)
class HomogeneousIfs:
    """Family {x -> Tx + a_i, i = 1..m} with common linear part T.

    translations has shape (m,) in dimension 1 and (m, 2) in dimension 2.
    Instances are immutable and safe to share across workers.
    """

    ambient_dim: int
    map: Similarity
    translations: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.ambient_dim not in (1, 2):
            raise SpecError(f"ambient_dim must be 1 or 2, got {self.ambient_dim}")
        a = np.asarray(self.translations, dtype=float)
        if self.ambient_dim == 1:
            a = np.atleast_1d(a)
            if a.ndim != 1:
                raise SpecError("1D translations must be a flat sequence")
            if self.map.sign is None:
                raise SpecError("1D similarity requires sign")
        else:
            if a.ndim != 2 or a.shape[1] != 2:
                raise SpecError("2D translations must have shape (m, 2)")
            if self.map.alpha is None:
                raise SpecError("2D similarity requires alpha")
        if a.shape[0] < 2:
            raise SpecError("an IFS needs at least two maps")
        if not np.all(np.isfinite(a)):
            raise SpecError("translations must be finite")
        if np.allclose(a, a[0], rtol=0.0, atol=0.0):
            raise SpecError("translations must not all coincide")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "translations", a)

    @property
    def m(self) -> int:
        return self.translations.shape[0]

    @property
    def ratio(self) -> float:
        return self.map.ratio

    @property
    def lam(self) -> float:
        """Signed 1D contraction factor sign * r."""
        if self.ambient_dim != 1:
            raise SpecError("lam is defined for 1D systems only")
        return self.map.sign * self.map.ratio

    def linear_power(self, k: int):
        """T^k as a scalar (1D) or a 2x2 array (2D). k >= 0."""
        if self.ambient_dim == 1:
            return self.lam ** k
        ang = 2.0 * math.pi * ((self.map.alpha * k) % 1.0)
        c, s = math.cos(ang), math.sin(ang)
        return self.map.ratio ** k * np.array([[c, -s], [s, c]])

    def apply_power(self, k: int, pts: np.ndarray) -> np.ndarray:
        """Apply T^k to an array of points (shape (...,) in 1D, (..., 2) in 2D)."""
        tk = self.linear_power(k)
        if self.ambient_dim == 1:
            return tk * np.asarray(pts, dtype=float)
        return np.asarray(pts, dtype=float) @ np.asarray(tk).T

    @property
    def mean_translation(self):
        return self.translations.mean(axis=0)

    @property
    def attractor_center(self):
        """Fixed point z* of x -> Tx + abar, the center used for enclosures."""
        abar = self.mean_translation
        if self.ambient_dim == 1:
            return abar / (1.0 - self.lam)
        t1 = self.linear_power(1)
        return np.linalg.solve(np.eye(2) - t1, abar)

    @property
    def attractor_radius(self) -> float:
        """Radius of the centered ball B(z*, R) containing the attractor."""
        return max_norm(self.translations - self.mean_translation) / (1.0 - self.map.ratio)

    @property
    def coarse_radius(self) -> float:
        """Uncentered bound max|a_j| / (1 - r), used for word tail radii."""
        return max_norm(self.translations) / (1.0 - self.map.ratio)


def max_norm(points: np.ndarray) -> float:
    """Largest Euclidean norm among points of shape (k,) or (k, 2)."""
    if points.ndim == 1:
        return float(np.max(np.abs(points)))
    return float(np.max(np.hypot(points[:, 0], points[:, 1])))


def check_weights(p, m: int | None = None) -> np.ndarray:
    """Validate a probability vector: strictly positive, sums to 1 within 1e-12."""
    arr = np.asarray(p, dtype=float).ravel()
    if m is not None and arr.size != m:
        raise SpecError(f"expected {m} weights, got {arr.size}")
    if arr.size < 2:
        raise SpecError("weight vector needs at least two entries")
    if not np.all(arr > 0.0):
        raise SpecError("weights must be strictly positive")
    if abs(arr.sum() - 1.0) > _WEIGHT_TOL:
        raise SpecError(f"weights must sum to 1 within {_WEIGHT_TOL}, got {arr.sum()!r}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def uniform_weights(m: int) -> np.ndarray:
    return check_weights(np.full(m, 1.0 / m))


def entropy(p) -> float:
    """Shannon entropy -sum p_i log2 p_i in bits.

    Lies in [0, log2 m], with the maximum exactly at uniform weights.
    """
    arr = check_weights(p)
    return float(-(arr * np.log2(arr)).sum())


def similarity_dimension(ifs: HomogeneousIfs, p=None) -> float:
    """h(p) / log2(1/r); uniform weights when p is omitted."""
    if p is None:
        p = uniform_weights(ifs.m)
    h = entropy(check_weights(p, ifs.m))
    return h / -math.log2(ifs.map.ratio)


def cylinder_words(ifs: HomogeneousIfs, p, length: int, word_budget: int | None = None,
                   level_hook=None):
    """Partial coding-map sums and product weights of the words in [m]^length.

    Returns (centers, weights); row i is the word unrank_word(i, length, m),
    last symbol fastest, and centers have shape (rows,) in 1D, (rows, 2) in
    2D. Words grow one symbol per level; a level of more than word_budget
    rows raises BudgetError. level_hook(depth, centers, weights), when
    given, runs after each level and returns the rows that go on growing,
    so a caller may merge or drop rows (histogram() does both) and the
    budget then bounds the rows it keeps.

    Level j + 1 adds the float term T^j a_i to each centre, so a centre is
    its word's exact partial sum to within centre_error(ifs, j + 1) on
    every axis; distinct words' partial sums lie word_gap(ifs) r^j apart
    when that is positive, which histogram() uses to skip merging.
    """
    if length < 1:
        raise SpecError("word length must be >= 1")
    p = check_weights(p, ifs.m)
    a = ifs.translations.astype(float)
    # Level j appends the symbol at position j + 1 to the empty word.
    centers, weights = np.zeros((1,) + a.shape[1:]), np.ones(1)
    for j in range(length):
        _check_rows(centers.shape[0] * ifs.m, j + 1, word_budget)
        step = ifs.apply_power(j, a)
        centers = (centers[:, None] + step[None, :]).reshape(-1, *a.shape[1:])
        weights = (weights[:, None] * p[None, :]).ravel()
        if level_hook is not None:
            centers, weights = level_hook(j + 1, centers, weights)
    return centers, weights


def _check_rows(rows: int, depth: int, word_budget: int | None) -> None:
    """Raise BudgetError when rows words at depth exceed word_budget (None: WORD_BUDGET)."""
    budget = WORD_BUDGET if word_budget is None else word_budget
    if rows > budget:
        raise BudgetError(
            f"word expansion needs {rows} rows at depth {depth}, over the budget {budget}")


def word_gap(ifs: HomogeneousIfs) -> float:
    """Lower bound g on the spacing of distinct words' partial sums.

    g = min_{i != j} |a_i - a_j| - r max_{i,j} |a_i - a_j| / (1 - r) in the
    Euclidean norm. Two words of length d that first differ at position
    k + 1 <= d have partial sums differing by T^k (a_i - a_j), of norm at
    least r^k min|a_i - a_j|, plus terms T^l (a_s - a_t), l > k, of norm at
    most r^l max|a_i - a_j|, whose sum stays below r^(k+1) max / (1 - r):
    T^l scales every norm by r^l, whatever its sign or rotation. So when
    g > 0 the sums lie at least r^k g >= r^(d-1) g apart, and words with
    different first symbols at least g apart; g <= 0 proves nothing.

    The float value is lowered by 2^-39 (near + far), which exceeds its
    own rounding (about 11 units of 2^-53 in near + far), so the result is
    below the exact g by at least 2^-40 |g|: a product of it with a few
    positive rounded factors stays below the exact product.
    """
    a = ifs.translations
    d = a[:, None] - a[None, :]
    dist = np.abs(d) if ifs.ambient_dim == 1 else np.hypot(d[..., 0], d[..., 1])
    near = float(dist[~np.eye(ifs.m, dtype=bool)].min())
    far = ifs.map.ratio * float(dist.max()) / (1.0 - ifs.map.ratio)
    return near - far - 2.0 ** -39 * (near + far)


def centre_error(ifs: HomogeneousIfs, length: int) -> float:
    """Bound on any axis for float centre minus exact partial sum in
    cylinder_words(ifs, p, length).

    With u = 2^-53 and A = max_j |a_j|, the term T^k a_j has coordinates
    of at most r^k A and a partial sum at most A / (1 - r). apply_power(k)
    forms the term as follows, taking libm's pow, cos and sin within one
    ulp (2u on [-1, 1]; glibc's are):
    - 1D: lam**k and the product with a_j, within 3u r^k A;
    - 2D: the angle 2 pi ((alpha k) mod 1) is within 2 pi (k + 2) u of
      2 pi alpha k mod 2 pi (alpha k rounds by k u, the mod is exact, 2 pi
      and the product round by u each); cos and sin add 2u, and r^k and
      its products 3u relative, so each matrix entry is within
      r^k u (7k + 18) of the exact one. Two products and a sum per axis
      then give r^k A u (14k + 41).
    Adding a term to a centre rounds by at most u A / (1 - r) (up to
    second-order terms), except at the first level, which adds to zero.
    Over length d the error is at most u A ((14d + 27) + (d - 1)) / (1 - r);
    the bound returned, 2u (16d + 32) A / (1 - r), is more than twice that,
    which covers the second-order terms and its own rounding.
    """
    return (16 * length + 32) * 2.0 ** -52 * ifs.coarse_radius


def unrank_word(index: int, length: int, m: int) -> tuple[int, ...]:
    """Inverse of the lexicographic enumeration used by cylinder_words."""
    digits = []
    for _ in range(length):
        digits.append(index % m + 1)
        index //= m
    return tuple(reversed(digits))


@dataclass(frozen=True)
class SeparationCertificate:
    """Outcome of the finite-depth strong-separation check.

    status is "Separated" (a true certificate) or "Inconclusive" together
    with one overlapping pair of depth-level words. Inconclusive never
    refutes separation, the enclosures may simply be slack.
    """

    status: str
    depth: int
    overlap: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    @property
    def separated(self) -> bool:
        return self.status == "Separated"


def check_strong_separation(ifs: HomogeneousIfs, depth: int,
                            word_budget: int | None = None) -> SeparationCertificate:
    """Certify pairwise disjointness of the first-level images at finite depth.

    Each first-level set f_j(attractor) is covered by the balls of the
    depth-length cylinders starting with j. Separated means every ball
    under one first symbol is disjoint from every ball under another.

    Words with different first symbols lie word_gap(ifs) apart. When that
    gap, less twice the centres' rounding on each axis (centre_error plus
    the shift by T^depth z*) times sqrt(dim), exceeds the ball gap 2 r^depth
    R, the grid scan below could find no close pair, and the result is
    Separated without expanding a word; word_gap's headroom covers the
    rounding of the scan's distance test. Either way m^depth words must
    fit word_budget.
    """
    if depth < 1:
        raise SpecError("separation depth must be >= 1")
    gap = 2.0 * ifs.map.ratio ** depth * ifs.attractor_radius
    # The shifted centres have coordinates of at most 2 A / (1 - r).
    err = centre_error(ifs, depth) + 2.0 ** -52 * ifs.coarse_radius
    if word_gap(ifs) - 2.0 * math.sqrt(ifs.ambient_dim) * err > gap:
        for k in range(1, depth + 1):
            _check_rows(ifs.m ** k, k, word_budget)
        return SeparationCertificate("Separated", depth)
    centers = cylinder_words(ifs, uniform_weights(ifs.m), depth, word_budget)[0]
    centers += ifs.apply_power(depth, ifs.attractor_center)
    # Words sharing a first symbol form one contiguous block of rows.
    size = centers.shape[0] // ifs.m
    for j in range(ifs.m):
        for j2 in range(j + 1, ifs.m):
            hit = _first_close_pair(centers[j * size:(j + 1) * size],
                                    centers[j2 * size:(j2 + 1) * size], gap)
            if hit is not None:
                return SeparationCertificate("Inconclusive", depth, (
                    unrank_word(j * size + hit[0], depth, ifs.m),
                    unrank_word(j2 * size + hit[1], depth, ifs.m)))
    return SeparationCertificate("Separated", depth)


def _grid_windows(a: np.ndarray, b: np.ndarray, gap: float):
    """Candidate rows of b for each row of a, as ranges of a sorted order.

    reach exceeds gap by the rounding of the differences, so a pair the
    distance test accepts differs by at most reach on every axis. Both are
    bucketed on a grid whose side is a power of two in (reach, 2 reach]
    (coarser if needed, for at most 2^30 cells per axis, so the codes fit
    in int64); dividing by it is exact, so such a pair lies in the same or
    adjacent cells on every axis. Rows of b are sorted by cell code
    (x-major in 2D), so the cells next to a row of a form one range of the
    order in 1D and three, one per x column, in 2D. Returns (order, starts,
    counts): row i's candidates are order[starts[i, j]:starts[i, j] +
    counts[i, j]] over the ranges j.
    """
    pts = np.concatenate((a, b)).reshape(a.shape[0] + b.shape[0], -1)
    reach = 1.001 * gap + 2.0 * np.spacing(np.max(np.abs(pts)))
    low = pts.min(axis=0)
    extent = float(np.max(pts.max(axis=0) - low))
    side = math.ldexp(1.0, math.frexp(max(reach, math.ldexp(extent, -30)))[1])
    g = (np.floor(pts / side) - np.floor(low / side)).astype(np.int64)
    if a.ndim == 1:
        code, offsets = g[:, 0], np.array([0])
    else:
        width = int(g[:, 1].max()) + 3
        code, offsets = g[:, 0] * width + g[:, 1] + 1, np.array([-width, 0, width])
    kb = code[a.shape[0]:]
    order = np.argsort(kb, kind="stable")
    sb = kb[order]
    centre = code[:a.shape[0], None] + offsets
    starts = np.searchsorted(sb, centre - 1, "left")
    return order, starts, np.searchsorted(sb, centre + 1, "right") - starts


def _first_close_pair(a: np.ndarray, b: np.ndarray, gap: float):
    """First (i, k), by i then k, with |a[i] - b[k]| <= gap, or None.

    Only the rows of b in grid cells next to a[i]'s (_grid_windows) are
    compared, and at most _SCAN_PAIRS pairs are formed at a time, so
    memory stays linear in the rows.
    """
    order, lo, counts = _grid_windows(a, b, gap)
    per_row = counts.sum(axis=1)
    ends = np.cumsum(per_row)
    firsts = ends - per_row
    start = 0
    while start < a.shape[0]:
        stop = max(start + 1, int(np.searchsorted(ends, firsts[start] + _SCAN_PAIRS, "right")))
        seg_n = counts[start:stop].ravel()
        seg = np.repeat(np.arange(seg_n.size), seg_n)
        pos = lo[start:stop].ravel()[seg] + np.arange(seg.size) - (np.cumsum(seg_n) - seg_n)[seg]
        rows = start + seg // counts.shape[1]
        ks = order[pos]
        diff = a[rows] - b[ks]
        close = (np.abs(diff) <= gap if a.ndim == 1
                 else diff[:, 0] ** 2 + diff[:, 1] ** 2 <= gap * gap)
        if np.any(close):
            rows, ks = rows[close], ks[close]
            return int(rows[0]), int(ks[rows == rows[0]].min())
        start = stop
    return None


def parse_field(convert, value, name: str):
    """convert(value), reporting a malformed value as a SpecError naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"field {name!r}: {exc}") from exc


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def strict_int(value) -> int:
    """An integer or an integral float as int; -1.7, "2" or true raise ValueError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def ifs_from_json(doc) -> tuple[HomogeneousIfs, np.ndarray]:
    """Build (ifs, weights) from a parsed JSON document or a JSON string.

    Weights default to uniform when the document omits them. A "derive"
    clause, if present, is ignored here; see transforms.resolve_spec.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("IFS document must be a JSON object")
    for key in ("ambient_dim", "ratio", "translations"):
        if key not in doc:
            raise SpecError(f"IFS document missing field {key!r}")
    dim = parse_field(strict_int, doc["ambient_dim"], "ambient_dim")
    ratio = parse_field(float, doc["ratio"], "ratio")
    if dim == 1:
        sim = Similarity(ratio=ratio, sign=parse_field(strict_int, doc.get("sign", 1), "sign"))
    elif dim == 2:
        sim = Similarity(ratio=ratio, alpha=parse_field(float, doc.get("alpha", 0.0), "alpha"))
    else:
        raise SpecError(f"ambient_dim must be 1 or 2, got {dim!r}")
    ifs = HomogeneousIfs(ambient_dim=dim, map=sim,
                         translations=parse_field(_floats, doc["translations"], "translations"),
                         label=str(doc.get("label", "")))
    if "weights" in doc:
        p = check_weights(parse_field(_floats, doc["weights"], "weights"), ifs.m)
    else:
        p = uniform_weights(ifs.m)
    return ifs, p
