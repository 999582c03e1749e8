"""Near-integer badness scans and admissible sequence counting."""

import math
import os

import numpy as np
import pytest

from selfsim import (BudgetError, EkSpec, SpecError, centered_frac,
                     ek_badness, ek_count_sequences, ek_sweep)
from selfsim.ekscan import _clamp_jobs

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
