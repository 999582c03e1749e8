"""Scanners for near-integer geometric sequences and their counting bounds.

Each scanner kind asks, for a multiplier t in a compact window, how many
indices n <= N put the relevant geometric quantity within distance c of
an integer. The maximal fraction over a t-grid (the badness) is a lower
bound for the true supremum over t, since the grid can only miss maxima.
Pisot-type ratios drive the badness toward 1 while generic ratios stay
low, which is the phenomenon the scanners quantify.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, PrecisionError, SpecError

_KINDS = ("translations", "projections", "convolutions")
_COUNT_N_CAP = 22
_NODE_BUDGET = 5_000_000


def centered_frac(x):
    """Signed distance to the nearest integer, in [-1/2, 1/2]."""
    x = np.asarray(x, dtype=float)
    return x - np.round(x)


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
    """Scan outcome: the worst t on the grid and its per-index residuals."""

    spec: EkSpec
    badness: float
    witness_t: float
    eps: np.ndarray
    delta: np.ndarray
    good: np.ndarray

    def __post_init__(self):
        good = np.asarray(self.good, dtype=bool)
        if abs(self.badness - good.mean()) > 1e-12:
            raise SpecError("badness must equal the witness good fraction")
        for name in ("eps", "delta"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
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


def ek_badness(spec: EkSpec) -> EkReport:
    """Maximal good-index fraction over a uniform t-grid in [1, t_upper].

    The grid maximum never exceeds the true supremum over t, so reported
    badness is a certified lower bound for it.
    """
    ns = np.arange(1, spec.N + 1)
    t = np.linspace(1.0, spec.t_upper, spec.t_grid)

    if spec.kind == "translations":
        theta = 1.0 / spec.lam
        pows = theta ** ns.astype(float)
        peak = max(abs(spec.u), 1.0) * pows[-1] * spec.t_upper
        cols = (pows, spec.u * pows)
    elif spec.kind == "projections":
        coef = spec.theta ** ns.astype(float) * np.cos(spec.beta + ns * spec.alpha)
        peak = float(np.max(np.abs(coef))) * spec.t_upper
        cols = (coef, None)
    else:
        ks = _conv_k_of_n(spec.theta1, spec.theta2, ns)
        pow1 = spec.theta1 ** ns.astype(float)
        pow2 = spec.u * spec.theta2 ** ks.astype(float)
        peak = max(float(np.max(np.abs(pow1))), float(np.max(np.abs(pow2)))) * spec.t_upper
        cols = (pow1, pow2)

    if peak >= 2.0 ** 52:
        raise PrecisionError(
            f"powers reach {peak:.3g}, beyond exact integer-distance range")

    x1 = t[:, None] * cols[0][None, :]
    good = np.abs(centered_frac(x1)) <= spec.c
    if cols[1] is not None:
        x2 = t[:, None] * cols[1][None, :]
        good &= np.abs(centered_frac(x2)) <= spec.c

    counts = good.sum(axis=1)
    gi = int(np.argmax(counts))
    witness = float(t[gi])
    eps = centered_frac(witness * cols[0])
    delta = (centered_frac(witness * cols[1]) if cols[1] is not None
             else np.zeros(spec.N))
    return EkReport(spec=spec, badness=counts[gi] / spec.N, witness_t=witness,
                    eps=eps, delta=delta, good=good[gi])


@dataclass(frozen=True)
class EkCountReport:
    """Admissible integer-sequence counts per prefix length."""

    kind: str
    delta: float
    c: float
    ns: tuple
    counts: tuple
    rates: tuple


def _first_terms(theta: float, w: tuple, inf: int) -> dict:
    """Candidates K_1 in [theta - w_g, theta^2 + w_g], with the minimal bad
    count per flag g of the first index (inf where g does not admit K_1)."""
    first = {}
    for g in (0, 1):
        lo = math.ceil(theta - w[g] - 1e-12)
        hi = math.floor(theta * theta + w[g] + 1e-12)
        for k in range(lo, hi + 1):
            b = [inf, inf]
            b[g] = g
            prev = first.get(k)
            first[k] = b if prev is None else [min(prev[0], b[0]), min(prev[1], b[1])]
    return first


def _count_convolutions(theta1: float, N: int, c: float, delta: float) -> list:
    """Count distinct (K_1..K_n) with |K_{j+1} - theta1 K_j| within slack.

    The slack for a step is theta1 w(g_j) + w(g_{j+1}) with w = c at good
    indices and 1/2 at bad ones; a tuple is admissible at length n when
    some flag assignment keeps the bad count at or below floor(delta n).
    Node state tracks the minimal bad count per current flag, so the
    search visits each distinct prefix once.
    """
    w = (c, 0.5)
    inf = N + 1
    max_bad_final = math.floor(delta * N + 1e-9)
    counts = [0] * (N + 1)
    nodes = 0
    frontier = _first_terms(theta1, w, inf)
    for n in range(1, N + 1):
        max_bad_n = math.floor(delta * n + 1e-9)
        counts[n] = sum(1 for b in frontier.values()
                        if min(b) <= max_bad_n)
        if n == N:
            break
        nxt: dict = {}
        for k, b in frontier.items():
            nodes += 1
            if nodes > _NODE_BUDGET:
                raise BudgetError("sequence enumeration exceeded the node budget")
            center = theta1 * k
            lo = math.ceil(center - (theta1 * 0.5 + 0.5) - 1e-12)
            hi = math.floor(center + (theta1 * 0.5 + 0.5) + 1e-12)
            for k2 in range(lo, hi + 1):
                gap = abs(k2 - center)
                nb = None
                for g2 in (0, 1):
                    best = inf
                    for g in (0, 1):
                        if b[g] >= inf:
                            continue
                        if gap <= theta1 * w[g] + w[g2] + 1e-12:
                            cand = b[g] + g2
                            if cand < best:
                                best = cand
                    if best <= max_bad_final:
                        if nb is None:
                            nb = [inf, inf]
                        nb[g2] = best
                if nb is None:
                    continue
                prev = nxt.get(k2)
                if prev is None:
                    nxt[k2] = nb
                else:
                    nxt[k2] = [min(prev[0], nb[0]), min(prev[1], nb[1])]
        frontier = nxt
    return counts


def _count_translations(theta: float, N: int, c: float, delta: float) -> list:
    """Count distinct (K_1..K_n) under the quadratic three-term recursion.

    |K_{n+2} - K_{n+1}^2 / K_n| is bounded by theta^2 w_n + 2 theta w_{n+1}
    + w_{n+2}; states are (K_n, K_{n+1}) pairs with minimal bad counts per
    trailing flag pair.
    """
    w = (c, 0.5)
    inf = N + 1
    max_bad_final = math.floor(delta * N + 1e-9)
    counts = [0] * (N + 1)
    nodes = 0

    first = _first_terms(theta, w, inf)
    counts[1] = sum(1 for b in first.values() if min(b) <= math.floor(delta + 1e-9))
    if N == 1:
        return counts

    frontier: dict = {}
    for k1, b1 in first.items():
        center = theta * k1
        lo = math.ceil(center - (theta * 0.5 + 0.5) - 1e-12)
        hi = math.floor(center + (theta * 0.5 + 0.5) + 1e-12)
        for k2 in range(lo, hi + 1):
            gap = abs(k2 - center)
            nb = [inf, inf, inf, inf]
            hit = False
            for g2 in (0, 1):
                for g1 in (0, 1):
                    if b1[g1] >= inf or gap > theta * w[g1] + w[g2] + 1e-12:
                        continue
                    cand = b1[g1] + g2
                    slot = g1 * 2 + g2
                    if cand <= max_bad_final and cand < nb[slot]:
                        nb[slot] = cand
                        hit = True
            if not hit:
                continue
            key = (k1, k2)
            prev = frontier.get(key)
            frontier[key] = nb if prev is None else [min(a, b) for a, b in zip(prev, nb)]
    counts[2] = sum(1 for b in frontier.values()
                    if min(b) <= math.floor(2 * delta + 1e-9))

    for n in range(3, N + 1):
        max_bad_n = math.floor(delta * n + 1e-9)
        nxt: dict = {}
        for (k1, k2), b in frontier.items():
            nodes += 1
            if nodes > _NODE_BUDGET:
                raise BudgetError("sequence enumeration exceeded the node budget")
            if k1 == 0:
                continue
            center = k2 * k2 / k1
            wmax = theta * theta * 0.5 + 2 * theta * 0.5 + 0.5
            lo = math.ceil(center - wmax - 1e-12)
            hi = math.floor(center + wmax + 1e-12)
            for k3 in range(lo, hi + 1):
                gap = abs(k3 - center)
                nb = [inf, inf, inf, inf]
                hit = False
                for g3 in (0, 1):
                    for g1 in (0, 1):
                        for g2 in (0, 1):
                            prevb = b[g1 * 2 + g2]
                            if prevb >= inf:
                                continue
                            slack = (theta * theta * w[g1] + 2 * theta * w[g2]
                                     + w[g3])
                            if gap > slack + 1e-12:
                                continue
                            cand = prevb + g3
                            slot = g2 * 2 + g3
                            if cand <= max_bad_final and cand < nb[slot]:
                                nb[slot] = cand
                                hit = True
                if not hit:
                    continue
                key = (k2, k3)
                prev = nxt.get(key)
                nxt[key] = nb if prev is None else [min(a, b) for a, b in zip(prev, nb)]
        frontier = nxt
        counts[n] = sum(1 for b in frontier.values() if min(b) <= max_bad_n)
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
        if theta1 is None or theta1 <= 1.0:
            raise SpecError("convolutions counting needs theta1 > 1")
        counts = _count_convolutions(theta1, N, c, delta)
    elif kind == "translations":
        if theta is None or theta <= 1.0:
            raise SpecError("translations counting needs theta > 1")
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
    Results are independent of jobs; workers only change wall time. The
    worker count is clamped to the number of steps and of CPUs.
    """
    if steps < 1:
        raise SpecError("steps must be >= 1")
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
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_eval, specs, chunksize=8))
    else:
        results = [_sweep_eval(s) for s in specs]
    return [(v, b, w) for v, (b, w) in zip(values, results)]
