"""Scanners for near-integer geometric sequences and their counting bounds.

Each scanner kind asks, for a multiplier t in a compact window, how many
indices n <= N put the relevant geometric quantity within distance c of
an integer. The maximal fraction over a t-grid (the badness) is a lower
bound for the true supremum over t, since the grid can only miss maxima.
Pisot-type ratios drive the badness toward 1 while generic ratios stay
low, which is the phenomenon the scanners quantify.

The sequence counters (ek_count_sequences) search length by length over
arrays. A length is a frontier of states, each a packed int64 key (the
last term, or the last two for translations) with the minimal bad count
per trailing flag as int8. The parents expand in fixed slices of about
_CANDIDATE_SLICE candidates, the float comparisons of a one-at-a-time
search decide admissibility, and equal keys merge by sort and minimum,
in batches of _MERGE_BATCH pending children and at the end of the
length. At the last length a child lives exactly when it counts, so
only the keys are kept and the count is the number of distinct ones.
States of lengths below N (from 2 for translations) are nodes; once
their total exceeds _NODE_BUDGET the search raises BudgetError, saying
how many it needed by which length. Terms must keep the centres exact
in float64: |K| < 2^26 where K^2 appears (translations), |theta1 K| <
2^52 otherwise; beyond that the counters raise PrecisionError.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import BudgetError, PrecisionError, SpecError

# The EkSpec fields each kind reads, its main parameter first.
_KIND_PARAMS = {
    "translations": ("lam", "u"),
    "projections": ("theta", "alpha", "beta"),
    "convolutions": ("theta1", "theta2", "u"),
}
_KINDS = tuple(_KIND_PARAMS)
_COUNT_N_CAP = 22
_NODE_BUDGET = 5_000_000
# t-grid entries (grid points x indices) ek_badness tests at once.
_GRID_CHUNK = 1 << 15
# Candidate sequences the counters form at once (one slice of parents).
_CANDIDATE_SLICE = 1 << 15
# Pending children that make the counters merge within a length.
_MERGE_BATCH = 1 << 21
# Translation states pack (K_n, K_{n+1}) into one int64, each term biased
# by 2^26 into 27 bits; |K| < 2^26 also keeps K^2 exact in float64.
_EXACT_SQUARE = 1 << 26
_PAIR_SHIFT = 27
_PAIR_MASK = (1 << _PAIR_SHIFT) - 1


@dataclass(frozen=True)
class EkSpec:
    """One scanner configuration.

    kind selects the condition: translations checks max(||t theta^n||,
    ||t u theta^n||) <= c with theta = 1/lam; projections checks
    ||t theta^n cos(beta + n alpha)|| <= c (alpha in radians, not equal to
    pi); convolutions checks max(||t theta1^n||, ||t u theta2^k(n)||) <= c
    with k(n) the smallest k making theta2^k >= theta1^n.
    """

    kind: str
    N: int
    c: float
    t_grid: int = 4096
    lam: float | None = None
    u: float = 1.0
    theta: float | None = None
    alpha: float | None = None
    beta: float = 0.0
    theta1: float | None = None
    theta2: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SpecError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise SpecError(f"{f.name} must be finite, got {value}")
        read = _KIND_PARAMS[self.kind]
        unread = set().union(*_KIND_PARAMS.values()) - set(read)
        for f in fields(self):
            if f.name in unread and getattr(self, f.name) != f.default:
                raise SpecError(f"cannot set {f.name}: {self.kind} scans read "
                                f"only {', '.join(read)}")
        if self.N < 3:
            raise SpecError("N must be >= 3")
        if not (0.0 < self.c < 0.5):
            raise SpecError("threshold c must lie in (0, 1/2)")
        if self.t_grid < 2:
            raise SpecError("t_grid must be >= 2")
        if self.kind == "translations":
            if self.lam is None or not (0.0 < self.lam < 1.0):
                raise SpecError("translations kind needs lam in (0, 1)")
        elif self.kind == "projections":
            if self.theta is None or self.theta <= 1.0:
                raise SpecError("projections kind needs theta > 1")
            if self.alpha is None or not (0.0 < self.alpha < 2.0 * math.pi):
                raise SpecError("projections kind needs alpha in (0, 2*pi)")
            if abs(self.alpha - math.pi) < 1e-12:
                raise SpecError("alpha = pi is excluded")
        else:
            if self.theta1 is None or self.theta2 is None:
                raise SpecError("convolutions kind needs theta1 and theta2")
            if not (1.0 < self.theta1 < self.theta2):
                raise SpecError("need theta2 > theta1 > 1")
            if self.u == 0.0:
                raise SpecError("u must be nonzero")

    @property
    def t_upper(self) -> float:
        if self.kind == "translations":
            return 1.0 / self.lam
        if self.kind == "projections":
            return self.theta
        return self.theta1


@dataclass(frozen=True)
class EkReport:
    """Scan outcome: the worst t on the grid and which indices are good there."""

    spec: EkSpec
    badness: float
    witness_t: float
    good: np.ndarray

    def __post_init__(self):
        good = np.asarray(self.good, dtype=bool)
        if abs(self.badness - good.mean()) > 1e-12:
            raise SpecError("badness must equal the witness good fraction")
        good = good.copy()
        good.setflags(write=False)
        object.__setattr__(self, "good", good)


def _conv_k_of_n(theta1: float, theta2: float, ns: np.ndarray) -> np.ndarray:
    """Smallest k >= 0 with theta2^k >= theta1^n, per n."""
    raw = np.ceil(ns * math.log(theta1) / math.log(theta2) - 1e-12).astype(np.int64)
    raw = np.maximum(raw, 0)
    for i, n in enumerate(ns):
        while theta2 ** raw[i] < theta1 ** float(n):
            raw[i] += 1
        while raw[i] > 0 and theta2 ** (raw[i] - 1) >= theta1 ** float(n):
            raw[i] -= 1
    return raw


def _good(t: np.ndarray, grids: list, c: float, work: list) -> np.ndarray:
    """Index-major grid test: entry (n, i) is True where
    |x - round(x)| <= c at x = col[n] t[i] for the column col of every grid.

    Each grid holds its column repeated across k >= t.size grid points,
    shape (N, k), so every product is a contiguous row times t (numpy's
    broadcast of a column against a row is several times slower). work
    holds two float and two bool buffers of the same shape, shared by all
    calls of one scan; the mask returned is a view of the first bool
    buffer, valid until the next call.
    """
    x, r, good, ok = (w[:, :t.size] for w in work)
    for j, grid in enumerate(grids):
        np.multiply(grid[:, :t.size], t, out=x)
        np.rint(x, out=r)
        x -= r
        np.abs(x, out=x)
        np.less_equal(x, c, out=ok if j else good)
        if j:
            good &= ok
    return good


def ek_badness(spec: EkSpec) -> EkReport:
    """Maximal good-index fraction over a uniform t-grid in [1, t_upper].

    The grid maximum never exceeds the true supremum over t, so reported
    badness is a certified lower bound for it. The grid is tested in
    chunks of about _GRID_CHUNK entries, index-major (N indices by the
    chunk's grid points) in buffers allocated once per call, and the good
    indices are counted per grid point along the index axis.
    """
    ns = np.arange(1, spec.N + 1)
    t = np.linspace(1.0, spec.t_upper, spec.t_grid)

    if spec.kind == "translations":
        pows = (1.0 / spec.lam) ** ns.astype(float)
        cols = [pows, spec.u * pows]
    elif spec.kind == "projections":
        cols = [spec.theta ** ns.astype(float) * np.cos(spec.beta + ns * spec.alpha)]
    else:
        ks = _conv_k_of_n(spec.theta1, spec.theta2, ns)
        cols = [spec.theta1 ** ns.astype(float), spec.u * spec.theta2 ** ks.astype(float)]

    peak = max(float(np.max(np.abs(col))) for col in cols) * spec.t_upper
    if peak >= 2.0 ** 52:
        raise PrecisionError(
            f"powers reach {peak:.3g}, beyond exact integer-distance range")

    # With |u| = 1 the second translations column is +-x1 exactly, and
    # round-half-even is symmetric, so it cannot change the mask.
    if spec.kind == "translations" and abs(spec.u) == 1.0:
        cols.pop()
    # Chunks of about _GRID_CHUNK entries stay in cache.
    step = min(t.size, max(1, _GRID_CHUNK // spec.N))
    grids = [np.repeat(col[:, None], step, axis=1) for col in cols]
    work = [np.empty((spec.N, step), dtype=d) for d in (float, float, bool, bool)]
    counts = np.empty(t.size, dtype=np.int32)
    for i in range(0, t.size, step):
        good = _good(t[i:i + step], grids, spec.c, work)
        np.add.reduce(good.view(np.int8), axis=0, dtype=np.int32,
                      out=counts[i:i + step])
    gi = int(np.argmax(counts))
    return EkReport(spec=spec, badness=counts[gi] / spec.N, witness_t=float(t[gi]),
                    good=_good(t[gi:gi + 1], grids, spec.c, work)[:, 0])


@dataclass(frozen=True)
class EkCountReport:
    """Admissible integer-sequence counts per prefix length."""

    kind: str
    delta: float
    c: float
    ns: tuple
    counts: tuple
    rates: tuple


def _relax(prev: np.ndarray, gap: np.ndarray, moves: list, slots: int,
           inf: int, max_bad: int) -> np.ndarray:
    """Minimal bad count per destination slot over the admissible moves.

    prev holds the parents' counts, one row per slot and one column per
    candidate. moves lists (source slot, destination slot, flag of the new
    index, slack); a move is admissible where gap <= slack. Counts above
    max_bad become inf.

    Each distinct slack gives one floor row, inf where gap > slack and 0
    elsewhere, and a move's counts are raised to it. An inadmissible move
    or a parent at inf thus yields at least inf (at most inf + 1 = N + 2,
    which int8 holds), never below a finite count, and the final clamp
    turns every count above max_bad (< inf) into inf exactly.
    """
    out = np.full((slots, gap.size), inf, dtype=np.int8)
    cand = np.empty(gap.size, dtype=np.int8)
    floors = {}
    for src, dst, flag, slack in moves:
        if slack not in floors:
            floors[slack] = (gap > slack).view(np.int8) * np.int8(inf)
        np.add(prev[src], flag, out=cand)
        np.maximum(cand, floors[slack], out=cand)
        np.minimum(out[dst], cand, out=out[dst])
    out[out > max_bad] = inf
    return out


def _merge(keys: np.ndarray, bad: np.ndarray):
    """One state per key with the slot-wise minimal counts, keys sorted."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(_first_of_runs(keys))
    bad = np.take(bad, order, axis=1)
    return keys[starts], np.minimum.reduceat(bad, starts, axis=1)


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """Mask of the sorted keys that differ from their left neighbour."""
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, sorted; keys itself is sorted in place."""
    keys.sort()
    return keys[_first_of_runs(keys)]


def _charge(nodes: int, states: int, n: int) -> None:
    """Raise once the nodes so far and these states of length n exceed the budget."""
    if nodes + states > _NODE_BUDGET:
        raise BudgetError(
            f"sequence enumeration needs at least {nodes + states} nodes by "
            f"length {n}, over the budget {_NODE_BUDGET}")


def _children(centre: np.ndarray, half: float, bad: np.ndarray, moves: list,
              slots: int, inf: int, max_bad: int, keys_of, nodes, n: int):
    """The merged states of length n grown from every parent state.

    A parent's candidates are the integers within half + 1e-12 of its
    centre, at float distance gap from it; moves, slots and max_bad go to
    _relax, and keys_of(rows, values) turns the admissible candidates
    (parent rows, new last terms) into int64 keys. No parent has more
    than floor(2 half + 2e-12) + 1 candidates, so parents are expanded in
    fixed slices of about _CANDIDATE_SLICE candidates, and only a slice's
    parents and candidates are held at once. Pending children are merged
    once they reach max(merged keys, _MERGE_BATCH), at the end of the
    length, and, below the last length, once they could pass the budget
    room left: there the children are nodes still to be expanded, and
    every merge charges them on top of nodes, so a length raises within
    one slice of the budget.

    At the last length (nodes None) _relax already clamps with
    floor(delta n), so a child is live exactly when it counts: only its
    key is kept, and the keys merge to the distinct ones. Returns the
    sorted keys and their counts, None at the last length.
    """
    step = max(1, _CANDIDATE_SLICE // (math.floor(2.0 * half + 2e-12) + 1))
    keys = np.empty(0, dtype=np.int64)
    merged = None if nodes is None else np.empty((slots, 0), dtype=np.int8)
    pending_keys, pending_bad, pending = [], [], 0
    for start in range(0, centre.size, step):
        stop = min(start + step, centre.size)
        lo = np.ceil(centre[start:stop] - half - 1e-12).astype(np.int64)
        sizes = np.floor(centre[start:stop] + half + 1e-12).astype(np.int64) - lo + 1
        rows = np.repeat(np.arange(start, stop), sizes)
        # Each candidate value is its position in the slice plus its
        # parent's lo minus the parent's first position.
        values = np.arange(rows.size) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
        child = _relax(np.take(bad, rows, axis=1),
                       np.abs(values - centre[rows]), moves, slots, inf, max_bad)
        live = np.flatnonzero(child.min(axis=0) < inf)
        pending_keys.append(keys_of(rows.take(live), values.take(live)))
        pending += pending_keys[-1].size
        if merged is not None:
            pending_bad.append(child.take(live, axis=1))
        if not (pending >= max(keys.size, _MERGE_BATCH) or stop == centre.size
                or (nodes is not None
                    and keys.size + pending > _NODE_BUDGET - nodes)):
            continue
        if merged is None:
            keys = _distinct(np.concatenate([keys] + pending_keys))
        else:
            keys, merged = _merge(np.concatenate([keys] + pending_keys),
                                  np.concatenate([merged] + pending_bad, axis=1))
            _charge(nodes, keys.size, n)
        pending_keys, pending_bad, pending = [], [], 0
    return keys, merged


def _count(keys: np.ndarray, bad, delta: float, n: int) -> int:
    """States whose best flag assignment has at most floor(delta n) bad
    indices; every state counts where bad is None (the last length, see
    _children)."""
    if bad is None:
        return keys.size
    return int(np.count_nonzero(bad.min(axis=0) <= math.floor(delta * n + 1e-9)))


def _first_frontier(theta: float, w: tuple, inf: int):
    """Candidates K_1 in [theta - w_g, theta^2 + w_g] for either flag g.

    Returns the terms (flag 0's range, then flag 1's terms outside it) and
    the minimal bad count of the first index, one int8 row per flag: g
    where flag g admits K_1, inf elsewhere.
    """
    bounds = [(math.ceil(theta - wg - 1e-12),
               math.floor(theta * theta + wg + 1e-12)) for wg in w]
    (lo0, hi0), (lo1, hi1) = bounds
    extra = np.arange(lo1, hi1 + 1, dtype=np.int64)
    terms = np.concatenate((np.arange(lo0, hi0 + 1, dtype=np.int64),
                            extra[(extra < lo0) | (extra > hi0)]))
    bad = np.array([np.where((terms >= lo) & (terms <= hi), g, inf)
                    for g, (lo, hi) in enumerate(bounds)], dtype=np.int8)
    return terms, bad


def _exact_centres(theta: float, terms: np.ndarray) -> np.ndarray:
    """terms, after checking that every theta K stays below 2^52."""
    if terms.size and theta * float(np.abs(terms).max()) >= 2.0 ** 52:
        raise PrecisionError(
            f"centres theta K reach {theta * float(np.abs(terms).max()):.3g}, "
            "beyond exact integer-distance range")
    return terms


def _exact_squares(terms: np.ndarray) -> np.ndarray:
    """terms, after checking that every K^2 stays exact in float64."""
    if terms.size and int(np.abs(terms).max()) >= _EXACT_SQUARE:
        raise PrecisionError(
            f"sequence terms reach {int(np.abs(terms).max())}, beyond the "
            "exact range 2^26 of K^2 / K' centres")
    return terms


def _pack_pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Keys of the pairs (first, second); the new terms second are checked."""
    return ((first + _EXACT_SQUARE) << _PAIR_SHIFT) | (
        _exact_squares(second) + _EXACT_SQUARE)


def _count_convolutions(theta1: float, N: int, c: float, delta: float) -> list:
    """Count distinct (K_1..K_n) with |K_{j+1} - theta1 K_j| within slack.

    The slack for a step is theta1 w(g_j) + w(g_{j+1}) with w = c at good
    indices and 1/2 at bad ones; a tuple is admissible at length n when
    some flag assignment keeps the bad count at or below floor(delta n).
    A state is the last term K_n (one int64 key) with the minimal bad count
    per flag of index n (int8, row g). Each level expands all states at
    once and merges equal keys, so each distinct state is one node; the
    states of lengths 1..N-1 are charged to the node budget.
    """
    w = (c, 0.5)
    inf = N + 1
    max_bad = math.floor(delta * N + 1e-9)
    moves = [(g, g2, g2, theta1 * w[g] + w[g2] + 1e-12)
             for g2 in (0, 1) for g in (0, 1)]
    counts = [0] * (N + 1)
    terms, bad = _first_frontier(theta1, w, inf)
    _exact_centres(theta1, terms)
    _charge(0, terms.size, 1)
    nodes = terms.size
    for n in range(1, N):
        counts[n] = _count(terms, bad, delta, n)
        terms, bad = _children(
            theta1 * terms, theta1 * 0.5 + 0.5, bad, moves, 2, inf, max_bad,
            lambda rows, values: _exact_centres(theta1, values),
            nodes if n + 1 < N else None, n + 1)
        nodes += terms.size
    counts[N] = _count(terms, bad, delta, N)
    return counts


def _count_translations(theta: float, N: int, c: float, delta: float) -> list:
    """Count distinct (K_1..K_n) under the quadratic three-term recursion.

    |K_{n+2} - K_{n+1}^2 / K_n| is bounded by theta^2 w_n + 2 theta w_{n+1}
    + w_{n+2}. A state is the pair (K_n, K_{n+1}), each term biased by 2^26
    and packed into one int64 key, with the minimal bad count per trailing
    flag pair (g_n, g_{n+1}) in row 2 g_n + g_{n+1}. The states of lengths
    2..N-1 are charged to the node budget.
    """
    w = (c, 0.5)
    inf = N + 1
    max_bad = math.floor(delta * N + 1e-9)
    counts = [0] * (N + 1)

    k1, bad = _first_frontier(theta, w, inf)
    _exact_squares(k1)
    counts[1] = _count(k1, bad, delta, 1)
    moves = [(g1, g1 * 2 + g2, g2, theta * w[g1] + w[g2] + 1e-12)
             for g2 in (0, 1) for g1 in (0, 1)]
    keys, bad = _children(
        theta * k1, theta * 0.5 + 0.5, bad, moves, 4, inf, max_bad,
        lambda rows, values: _pack_pairs(k1[rows], values), 0, 2)
    nodes = keys.size
    counts[2] = _count(keys, bad, delta, 2)

    wmax = theta * theta * 0.5 + 2 * theta * 0.5 + 0.5
    moves = [(g1 * 2 + g2, g2 * 2 + g3, g3,
              theta * theta * w[g1] + 2 * theta * w[g2] + w[g3] + 1e-12)
             for g3 in (0, 1) for g1 in (0, 1) for g2 in (0, 1)]
    for n in range(3, N + 1):
        k1 = (keys >> _PAIR_SHIFT) - _EXACT_SQUARE
        k2 = (keys & _PAIR_MASK) - _EXACT_SQUARE
        nonzero = k1 != 0
        k1, k2 = k1[nonzero], k2[nonzero]
        bad = np.compress(nonzero, bad, axis=1)
        k2f = k2.astype(float)
        keys, bad = _children(
            k2f * k2f / k1, wmax, bad, moves, 4, inf, max_bad,
            lambda rows, values: _pack_pairs(k2[rows], values),
            nodes if n < N else None, n)
        nodes += keys.size
        counts[n] = _count(keys, bad, delta, n)
    return counts


def ek_count_sequences(kind: str, N: int, c: float, delta: float,
                       theta: float | None = None,
                       theta1: float | None = None) -> EkCountReport:
    """Brute-force the admissible integer-sequence counts for small N.

    Supported kinds are translations (quadratic recursion on theta = 1/lam
    type parameters) and convolutions (linear recursion on theta1). The
    projections argument reduces to the same recursions after phase
    bookkeeping, so no separate enumeration is provided for it.
    """
    if N > _COUNT_N_CAP:
        raise BudgetError(f"N must stay at or below {_COUNT_N_CAP}")
    if N < 3:
        raise SpecError("N must be >= 3")
    if not (0.0 < c < 0.5):
        raise SpecError("threshold c must lie in (0, 1/2)")
    if not (0.0 <= delta <= 1.0):
        raise SpecError("delta must lie in [0, 1]")
    if kind == "convolutions":
        if theta1 is None or not 1.0 < theta1 < math.inf:
            raise SpecError("convolutions counting needs a finite theta1 > 1")
        counts = _count_convolutions(theta1, N, c, delta)
    elif kind == "translations":
        if theta is None or not 1.0 < theta < math.inf:
            raise SpecError("translations counting needs a finite theta > 1")
        counts = _count_translations(theta, N, c, delta)
    elif kind == "projections":
        raise SpecError("sequence counting is defined for the translations "
                        "and convolutions kinds")
    else:
        raise SpecError(f"unknown kind {kind!r}")
    ns = tuple(range(1, N + 1))
    rates = tuple(math.log2(cnt) / n if cnt > 0 else 0.0
                  for n, cnt in zip(ns, counts[1:]))
    return EkCountReport(kind=kind, delta=delta, c=c, ns=ns,
                         counts=tuple(counts[1:]), rates=rates)


def _sweep_eval(spec: EkSpec):
    rep = ek_badness(spec)
    return rep.badness, rep.witness_t


def _clamp_jobs(jobs: int, steps: int) -> int:
    """Worker count actually used: at least 1, at most the steps and the CPUs."""
    return max(1, min(jobs, steps, os.cpu_count() or 1))


def ek_sweep(kind: str, fixed: dict, vary: str, lo: float, hi: float,
             steps: int, N: int, c: float, t_grid: int = 4096,
             jobs: int = 1) -> list:
    """Run ek_badness across a parameter grid.

    Returns rows (value, badness, witness_t) sorted by the swept value.
    vary must be a parameter the kind reads. Results are independent of
    jobs; workers only change wall time. The worker count is clamped to the
    number of steps and of CPUs.
    """
    if steps < 1:
        raise SpecError("steps must be >= 1")
    if kind in _KIND_PARAMS and vary not in _KIND_PARAMS[kind]:
        raise SpecError(f"cannot vary {vary!r}: {kind} scans read only "
                        f"{', '.join(_KIND_PARAMS[kind])}")
    if steps == 1:
        values = [float(lo)]
    else:
        values = [float(v) for v in np.linspace(lo, hi, steps)]
    specs = []
    for v in values:
        params = dict(fixed)
        params[vary] = v
        specs.append(EkSpec(kind=kind, N=N, c=c, t_grid=t_grid, **params))
    jobs = _clamp_jobs(jobs, len(specs))
    if jobs > 1:
        # Imported here, not at module level: importing multiprocessing
        # takes tens of milliseconds, and only parallel sweeps need it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_eval, specs, chunksize=8))
    else:
        results = [_sweep_eval(s) for s in specs]
    return [(v, b, w) for v, (b, w) in zip(values, results)]
