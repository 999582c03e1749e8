"""Near-integer badness scans and admissible sequence counting."""

import itertools
import math
import os
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfsim import (BudgetError, EkSpec, PrecisionError, SpecError,
                     centered_frac, ek_badness, ek_count_sequences, ek_sweep)
from selfsim import ekscan
from selfsim.cli import main
from selfsim.ekscan import _clamp_jobs, _first_frontier, _good, _relax

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The benchmark's exact counts (perfbench/workloads.py).
EKCOUNT_TRANSLATIONS = (1, 1, 2, 23, 46, 87, 173, 2169, 4145, 7739, 14313,
                        235746)
EKCOUNT_CONVOLUTIONS = (3, 3, 3, 19, 25, 31, 37, 205, 279, 365, 463, 2399,
                        3325, 4471, 5861, 29125, 40847, 55885, 74823, 361159)


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


# Reference counters: one dict entry per distinct state, expanded one node
# and one candidate at a time. The package's array frontier must agree with
# them exactly, budget errors included. totals, if given, collects (length,
# running node total) after each length's nodes are expanded.

def _oracle_convolutions(theta1: float, N: int, c: float, delta: float,
                         totals: list | None = None) -> list:
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
            if nodes > ekscan._NODE_BUDGET:
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
        if totals is not None:
            totals.append((n, nodes))
    return counts[1:]


def _oracle_translations(theta: float, N: int, c: float, delta: float,
                         totals: list | None = None) -> list:
    w = (c, 0.5)
    inf = N + 1
    max_bad_final = math.floor(delta * N + 1e-9)
    counts = [0] * (N + 1)
    nodes = 0

    first = _first_terms(theta, w, inf)
    counts[1] = sum(1 for b in first.values() if min(b) <= math.floor(delta + 1e-9))
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
            if nodes > ekscan._NODE_BUDGET:
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
        if totals is not None:
            totals.append((n - 1, nodes))
    return counts[1:]


_ORACLES = {"translations": _oracle_translations,
            "convolutions": _oracle_convolutions}


def _outcome(kind: str, theta: float, N: int, c: float, delta: float,
             oracle: bool):
    """Counts, or the BudgetError message, of the counter or its oracle."""
    try:
        if oracle:
            return tuple(_ORACLES[kind](theta, N, c, delta))
        key = "theta" if kind == "translations" else "theta1"
        return ek_count_sequences(kind, N, c, delta, **{key: theta}).counts
    except BudgetError as exc:
        return BudgetError, str(exc)


def test_centered_frac():
    assert centered_frac(3.2) == pytest.approx(0.2)
    assert centered_frac(3.8) == pytest.approx(-0.2)
    assert centered_frac(-1.5) == pytest.approx(0.5) or \
        centered_frac(-1.5) == pytest.approx(-0.5)
    assert abs(centered_frac(7.0)) == 0.0


def test_spec_validation():
    with pytest.raises(SpecError):
        EkSpec(kind="nonsense", N=10, c=0.1, lam=0.5)
    with pytest.raises(SpecError):
        EkSpec(kind="translations", N=2, c=0.1, lam=0.5)
    with pytest.raises(SpecError):
        EkSpec(kind="translations", N=10, c=0.6, lam=0.5)
    with pytest.raises(SpecError):
        EkSpec(kind="translations", N=10, c=0.1, lam=1.2)
    with pytest.raises(SpecError):
        EkSpec(kind="projections", N=10, c=0.1, theta=2.0, alpha=math.pi)
    with pytest.raises(SpecError):
        EkSpec(kind="convolutions", N=10, c=0.1, theta1=3.0, theta2=2.0)


def test_golden_badness_frozen():
    """Pisot powers stay near integers: all but the first two indices pass."""
    rep20 = ek_badness(EkSpec(kind="translations", N=20, c=0.15, lam=GOLDEN))
    assert rep20.badness == pytest.approx(0.9, abs=1e-12)
    rep30 = ek_badness(EkSpec(kind="translations", N=30, c=0.15, lam=GOLDEN))
    assert rep30.badness == pytest.approx(28.0 / 30.0, abs=1e-12)
    assert abs(rep30.witness_t - 1.0 / GOLDEN) < 1e-3
    assert rep30.badness == pytest.approx(rep30.good.mean())


def test_non_pisot_badness_frozen():
    rep = ek_badness(EkSpec(kind="translations", N=30, c=0.15, lam=0.7))
    assert rep.badness == pytest.approx(19.0 / 30.0, abs=1e-12)
    generic = ek_badness(EkSpec(kind="translations", N=40, c=0.05, lam=0.7,
                                u=math.sqrt(2.0)))
    assert generic.badness == pytest.approx(0.1, abs=1e-12)


def test_projection_scan_axis_degeneracy():
    """At alpha = pi/2, beta = 0 the cosine term vanishes on odd indices."""
    rep = ek_badness(EkSpec(kind="projections", N=20, c=0.01, theta=2.0,
                            alpha=math.pi / 2.0, beta=0.0))
    assert rep.badness >= 0.5


def test_grid_refinement_monotone():
    """A nested t-grid can only raise the observed maximum."""
    spec_a = EkSpec(kind="translations", N=25, c=0.1, lam=0.7, t_grid=513)
    spec_b = EkSpec(kind="translations", N=25, c=0.1, lam=0.7, t_grid=1025)
    assert ek_badness(spec_a).badness <= ek_badness(spec_b).badness + 1e-15


def _reference_badness(spec):
    """The full t-grid in one array, both columns always tested."""
    ns = np.arange(1, spec.N + 1)
    t = np.linspace(1.0, spec.t_upper, spec.t_grid)
    if spec.kind == "translations":
        pows = (1.0 / spec.lam) ** ns.astype(float)
        cols = (pows, spec.u * pows)
    elif spec.kind == "projections":
        cols = (spec.theta ** ns.astype(float)
                * np.cos(spec.beta + ns * spec.alpha), None)
    else:
        ks = ekscan._conv_k_of_n(spec.theta1, spec.theta2, ns)
        cols = (spec.theta1 ** ns.astype(float),
                spec.u * spec.theta2 ** ks.astype(float))
    good = np.abs(centered_frac(t[:, None] * cols[0][None, :])) <= spec.c
    if cols[1] is not None:
        good &= np.abs(centered_frac(t[:, None] * cols[1][None, :])) <= spec.c
    gi = int(np.argmax(good.sum(axis=1)))
    return good[gi].mean(), float(t[gi]), good[gi]


@pytest.mark.parametrize("chunk", [1 << 15, 7])
def test_badness_matches_full_grid(monkeypatch, chunk):
    """Chunked rows, in-place distances and the skipped second column for
    |u| = 1 leave badness, witness and mask as the full grid gives them."""
    monkeypatch.setattr(ekscan, "_GRID_CHUNK", chunk)
    specs = [EkSpec(kind="translations", N=30, c=0.1, lam=lam, u=u,
                    t_grid=1500)
             for lam in (GOLDEN, 0.7, 0.61) for u in (1.0, -1.0, 0.7)]
    specs += [EkSpec(kind="projections", N=20, c=0.05, theta=1.7, alpha=1.0,
                     t_grid=999),
              EkSpec(kind="convolutions", N=20, c=0.1, theta1=2.0,
                     theta2=3.0, u=-0.6, t_grid=777)]
    for spec in specs:
        rep = ek_badness(spec)
        badness, witness, good = _reference_badness(spec)
        assert (rep.badness, rep.witness_t) == (badness, witness), spec
        assert np.array_equal(rep.good, good), spec


def test_precision_guard():
    with pytest.raises(Exception) as err:
        ek_badness(EkSpec(kind="translations", N=200, c=0.1, lam=0.5))
    assert err.value.exit_code == 4


def test_count_convolutions_frozen():
    rep = ek_count_sequences("convolutions", 10, 0.1, 0.0, theta1=2.0)
    assert rep.counts == (3,) * 10
    rep25 = ek_count_sequences("convolutions", 12, 0.1, 0.25, theta1=2.0)
    assert rep25.counts == (3, 3, 3, 19, 25, 31, 37, 205, 279, 365, 463, 2399)
    assert rep25.rates[11] == pytest.approx(math.log2(2399) / 12.0)


def test_count_translations_frozen():
    rep = ek_count_sequences("translations", 10, 0.05, 0.0, theta=2.0)
    assert rep.counts == (3,) * 10
    # at the golden ratio no length-2 prefix survives delta = 0 at this c
    repg = ek_count_sequences("translations", 8, 0.05, 0.0, theta=1.0 / GOLDEN)
    assert repg.counts[0] == 1
    assert all(c == 0 for c in repg.counts[1:])


def test_count_benchmark_settings():
    """The exact tuples the benchmark checks, from the array frontier."""
    rep = ek_count_sequences("translations", 12, 0.1, 0.25, theta=1.0 / GOLDEN)
    assert rep.counts == EKCOUNT_TRANSLATIONS
    rep = ek_count_sequences("convolutions", 20, 0.1, 0.25, theta1=2.0)
    assert rep.counts == EKCOUNT_CONVOLUTIONS


@pytest.mark.parametrize("c", [0.02, 0.1, 0.45, 0.7])
@pytest.mark.parametrize("theta", [1.0001, 1.618, 2.0, 3.7, 10.0])
def test_first_frontier_matches_dict(theta, c):
    """Same first terms, in the same order, and the same counts per flag.

    c = 0.7 makes flag 0's range the wider one.
    """
    first = _first_terms(theta, (c, 0.5), 13)
    terms, bad = _first_frontier(theta, (c, 0.5), 13)
    assert terms.dtype == np.int64 and bad.dtype == np.int8
    assert terms.tolist() == list(first)
    assert bad.T.tolist() == list(first.values())


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["translations", "convolutions"]),
       theta=st.floats(1.0, 3.0, exclude_min=True),
       c=st.floats(0.02, 0.45, exclude_min=True, exclude_max=True),
       delta=st.floats(0.0, 1.0), chunk=st.sampled_from([257, 1 << 21]),
       data=st.data())
def test_count_matches_oracle(kind, theta, c, delta, chunk, data):
    """The array frontier equals the dict counters, or both run out of budget.

    A small node budget keeps the oracle fast on the branching cases; small
    candidate chunks split levels into many slices and merges.
    """
    N = data.draw(st.integers(3, 9 if kind == "translations" else 14))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ekscan, "_NODE_BUDGET", 10_000)
        mp.setattr(ekscan, "_CANDIDATE_CHUNK", chunk)
        new = _outcome(kind, theta, N, c, delta, oracle=False)
        ref = _outcome(kind, theta, N, c, delta, oracle=True)
    assert new[0] is BudgetError if ref[0] is BudgetError else new == ref


@pytest.mark.parametrize("chunk", [1 << 21, 1000])
@pytest.mark.parametrize("kind,theta,N", [("convolutions", 2.0, 14),
                                          ("translations", 1.0 / GOLDEN, 9)])
def test_node_budget_matches_oracle(monkeypatch, kind, theta, N, chunk):
    """Around every running node total of the oracle, the counter raises
    exactly where the oracle raises and says how far over it went: the
    total itself when a level fits one candidate chunk, a lower bound
    above the budget otherwise."""
    totals = []
    _ORACLES[kind](theta, N, 0.1, 0.25, totals)
    firsts = {}
    for length, total in totals:
        firsts.setdefault(total, length)
    monkeypatch.setattr(ekscan, "_CANDIDATE_CHUNK", chunk)
    for total, length in firsts.items():
        for budget in (total - 1, total):
            monkeypatch.setattr(ekscan, "_NODE_BUDGET", budget)
            new = _outcome(kind, theta, N, 0.1, 0.25, oracle=False)
            ref = _outcome(kind, theta, N, 0.1, 0.25, oracle=True)
            assert (new[0] is BudgetError) == (ref[0] is BudgetError)
            if new[0] is not BudgetError:
                assert new == ref
                continue
            match = re.fullmatch(r"sequence enumeration needs at least (\d+) "
                                 r"nodes by length (\d+), over the budget "
                                 r"(\d+)", new[1])
            assert match and int(match[3]) == budget, new[1]
            needed, at = int(match[1]), int(match[2])
            if budget < total:
                assert at == length and budget < needed <= total
                assert needed == total or chunk < 1 << 21
            else:
                assert at > length


def test_count_exact_range():
    """Terms past float64's exact range raise PrecisionError, exit 4."""
    with pytest.raises(PrecisionError):
        ek_count_sequences("convolutions", 22, 0.04, 0.0, theta1=10.0)
    with pytest.raises(PrecisionError):
        ek_count_sequences("translations", 8, 0.001, 0.0, theta=20.0)
    assert main(["ekcount", "convolutions", "--theta1", "10", "--N", "22",
                 "--c", "0.04", "--delta", "0"]) == 4


def test_count_growth_with_slack():
    """Allowing bad indices grows counts; rate stays well below log2(theta1+1)."""
    rep = ek_count_sequences("convolutions", 15, 0.1, 0.25, theta1=2.0)
    assert all(a <= b for a, b in zip(rep.counts, rep.counts[3:])), \
        "counts grow along stride-3 subsequences as floor(delta n) steps up"
    # asymptotic rate sits well below the full branching factor log2(3)
    assert max(rep.rates[7:]) < 1.2


def test_count_validation():
    with pytest.raises(SpecError):
        ek_count_sequences("projections", 10, 0.1, 0.0, theta=2.0)
    with pytest.raises(BudgetError):
        ek_count_sequences("convolutions", 23, 0.1, 0.0, theta1=2.0)
    with pytest.raises(SpecError):
        ek_count_sequences("convolutions", 2, 0.1, 0.0, theta1=2.0)


def test_sweep_spike_at_golden():
    rows = ek_sweep("translations", {"u": 1.0}, "lam", GOLDEN - 0.01,
                    GOLDEN + 0.01, 3, 25, 0.1, t_grid=2048)
    assert len(rows) == 3
    vals = [v for v, _, _ in rows]
    assert vals[1] == pytest.approx(GOLDEN)
    badness = [b for _, b, _ in rows]
    assert badness[1] > badness[0] + 0.2
    assert badness[1] > badness[2] + 0.2


def test_sweep_jobs_invariant():
    rows_serial = ek_sweep("convolutions", {"theta1": 2.0, "theta2": 3.0},
                           "u", 0.5, 1.5, 6, 12, 0.1, t_grid=256, jobs=1)
    rows_par = ek_sweep("convolutions", {"theta1": 2.0, "theta2": 3.0},
                        "u", 0.5, 1.5, 6, 12, 0.1, t_grid=256, jobs=3)
    assert rows_serial == rows_par


def test_clamp_jobs():
    """Huge or non-positive requests never ask for more workers than useful."""
    cpus = os.cpu_count() or 1
    assert _clamp_jobs(10**6, 9) == min(9, cpus)
    assert _clamp_jobs(10**6, 10**9) == cpus
    assert _clamp_jobs(4, 1) == 1
    assert _clamp_jobs(0, 9) == 1
    assert _clamp_jobs(-5, 9) == 1


def test_sweep_single_step():
    rows = ek_sweep("translations", {"u": 1.0}, "lam", 0.5, 0.9, 1, 10, 0.1,
                    t_grid=128)
    assert len(rows) == 1
    assert rows[0][0] == pytest.approx(0.5)


# The row-major grid test and the where-based relaxation that _good and
# _relax replaced, kept as oracles (_reference_badness above tests the
# whole grid row-major).

def _row_major_good(t, cols, c):
    good = None
    for col in cols:
        x = np.multiply.outer(t, col)
        x -= np.rint(x)
        np.abs(x, out=x)
        good = x <= c if good is None else good & (x <= c)
    return good


def _old_relax(prev, gap, moves, slots, inf, max_bad):
    out = np.full((slots, gap.size), inf, dtype=np.int8)
    for src, dst, flag, slack in moves:
        cand = np.where((prev[src] < inf) & (gap <= slack), prev[src] + flag, inf)
        np.minimum(out[dst], cand, out=out[dst])
    out[out > max_bad] = inf
    return out


@st.composite
def _badness_specs(draw):
    kind = draw(st.sampled_from(["translations", "projections", "convolutions"]))
    N = draw(st.integers(3, 40))
    c = draw(st.floats(0.01, 0.45))
    t_grid = draw(st.integers(2, 700))
    u = draw(st.sampled_from([1.0, -1.0]) | st.floats(-3.0, 3.0).filter(
        lambda u: abs(u) > 0.05))
    if kind == "translations":
        return EkSpec(kind=kind, N=N, c=c, t_grid=t_grid, u=u,
                      lam=draw(st.floats(0.45, 0.95)))
    if kind == "projections":
        return EkSpec(kind=kind, N=N, c=c, t_grid=t_grid,
                      theta=draw(st.floats(1.05, 2.5)),
                      alpha=draw(st.floats(0.1, 3.0)),
                      beta=draw(st.floats(-1.0, 1.0)))
    theta1 = draw(st.floats(1.05, 2.0))
    return EkSpec(kind=kind, N=N, c=c, t_grid=t_grid, u=u, theta1=theta1,
                  theta2=theta1 + draw(st.floats(0.05, 1.0)))


@settings(max_examples=80, deadline=None)
@given(spec=_badness_specs(), chunk=st.sampled_from([1 << 15, 97, 1]))
def test_badness_matches_row_major_oracle(spec, chunk):
    """The index-major grid in shared buffers gives the report of the
    row-major full grid, in all three kinds and with |u| != 1."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ekscan, "_GRID_CHUNK", chunk)
        try:
            rep = ek_badness(spec)
        except PrecisionError:
            assume(False)  # the guard refuses before any grid test
    badness, witness, good = _reference_badness(spec)
    assert (rep.badness, rep.witness_t) == (badness, witness)
    assert np.array_equal(rep.good, good)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(3, 40), c=st.floats(0.01, 0.45), u=st.floats(-3.0, 3.0),
       t_upper=st.floats(1.1, 3.0), size=st.integers(1, 300),
       spare=st.integers(0, 50))
def test_good_matches_row_major_oracle(N, c, u, t_upper, size, spare):
    """Masks and counts, in buffers wider than the chunk; the second
    threshold is a distance the grid attains exactly."""
    ns = np.arange(1, N + 1, dtype=float)
    t = np.linspace(1.0, t_upper, size)
    cols = [1.6 ** ns, u * 1.7 ** ns, np.cos(ns) * 1.3 ** ns]
    x = t[-1] * cols[0][-1]
    for c, k in itertools.product((c, float(abs(x - np.rint(x)))), (1, 2, 3)):
        want = _row_major_good(t, cols[:k], c)
        grids = [np.repeat(col[:, None], size + spare, axis=1) for col in cols[:k]]
        work = [np.empty((N, size + spare), dtype=d)
                for d in (float, float, bool, bool)]
        got = _good(t, grids, c, work)
        assert np.array_equal(got, want.T)
        assert np.array_equal(got.sum(axis=0), np.count_nonzero(want, axis=1))


def _kind_moves(kind, theta, c, level):
    """The move lists the counters pass to _relax, with their slot counts."""
    w = (c, 0.5)
    if kind == "convolutions":
        return [(g, g2, g2, theta * w[g] + w[g2] + 1e-12)
                for g2 in (0, 1) for g in (0, 1)], 2, 2
    if level == 2:
        return [(g1, g1 * 2 + g2, g2, theta * w[g1] + w[g2] + 1e-12)
                for g2 in (0, 1) for g1 in (0, 1)], 2, 4
    return [(g1 * 2 + g2, g2 * 2 + g3, g3,
             theta * theta * w[g1] + 2 * theta * w[g2] + w[g3] + 1e-12)
            for g3 in (0, 1) for g1 in (0, 1) for g2 in (0, 1)], 4, 4


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["translations", "convolutions"]),
       level=st.sampled_from([2, 3]), theta=st.floats(1.0, 4.0, exclude_min=True),
       c=st.floats(0.01, 0.49), N=st.integers(3, 22), size=st.integers(0, 400),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_relax_matches_old_relax(kind, level, theta, c, N, size, seed, data):
    """Per-slack floors instead of per-move where/prev < inf tests: equal
    int8 frontiers, parents at inf and gaps exactly at a slack included."""
    moves, rows, slots = _kind_moves(kind, theta, c, level)
    # Duplicate slacks: a second move list of equal slacks shares its floors.
    moves = moves + [(src, dst, flag, moves[0][3]) for src, dst, flag, _ in moves[:2]]
    inf = N + 1
    max_bad = data.draw(st.integers(0, N))
    rng = np.random.default_rng(seed)
    prev = rng.integers(0, inf + 1, size=(rows, size)).astype(np.int8)
    prev[:, rng.random(size) < 0.3] = inf
    slacks = np.array([m[3] for m in moves])
    gap = np.where(rng.random(size) < 0.2, rng.choice(slacks, size),
                   rng.uniform(0.0, slacks.max() * 1.2, size))
    got = _relax(prev, gap, moves, slots, inf, max_bad)
    want = _old_relax(prev, gap, moves, slots, inf, max_bad)
    assert got.dtype == np.int8
    assert np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["translations", "convolutions"]),
       theta=st.floats(1.0, 3.0, exclude_min=True),
       c=st.floats(0.02, 0.45), delta=st.floats(0.0, 1.0), data=st.data())
def test_count_with_old_relax_unchanged(kind, theta, c, delta, data):
    """Whole counts, with the old relaxation swapped in, are unchanged."""
    N = data.draw(st.integers(3, 9 if kind == "translations" else 14))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ekscan, "_NODE_BUDGET", 20_000)
        new = _outcome(kind, theta, N, c, delta, oracle=False)
        mp.setattr(ekscan, "_relax", _old_relax)
        old = _outcome(kind, theta, N, c, delta, oracle=False)
    assert new == old
