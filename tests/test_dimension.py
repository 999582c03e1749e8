"""Dimension estimation from moment tables, and the related predicates."""

import math

import numpy as np
import pytest

from selfsim import (DimEstimate, SpecError, ac_predicate, build_moment_table,
                     check_submultiplicativity, closed_form_Dq, estimate_D1,
                     estimate_Dq, histogram, table_from_histograms)


def test_closed_form_values(cantor13, biased13):
    ifs, p = cantor13
    assert closed_form_Dq(ifs, p, 2.0) == pytest.approx(
        math.log(2) / math.log(3), abs=1e-14)
    assert closed_form_Dq(ifs, p, 1.0) == pytest.approx(
        math.log(2) / math.log(3), abs=1e-14)
    ifs_b, p_b = biased13
    assert closed_form_Dq(ifs_b, p_b, 2.0) == pytest.approx(
        math.log(8 / 5) / math.log(3), abs=1e-14)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_interval_contains_truth(cantor13, cantor14, cantor15, biased13, q):
    for ifs, p in (cantor13, cantor14, cantor15, biased13):
        table = build_moment_table(ifs, p, [q], n_min=6, n_max=14)
        est = estimate_Dq(table, q)
        truth = closed_form_Dq(ifs, p, q)
        assert est.lo <= truth <= est.hi, (ifs.label, q)
        assert est.lo <= est.point <= est.hi


def test_quarter_ratio_alias_free(cantor14):
    """r = 1/4 nests exactly in dyadic cells, so the fit is nearly exact."""
    ifs, p = cantor14
    table = build_moment_table(ifs, p, [2.0], n_min=6, n_max=14)
    est = estimate_Dq(table, 2.0)
    assert abs(est.point - 0.5) < 2e-3


def test_interval_narrows_with_depth(cantor13):
    ifs, p = cantor13
    t10 = build_moment_table(ifs, p, [2.0], n_min=6, n_max=10)
    t14 = build_moment_table(ifs, p, [2.0], n_min=6, n_max=14)
    assert estimate_Dq(t14, 2.0).width <= estimate_Dq(t10, 2.0).width + 1e-9


def test_entropy_dimension(cantor13):
    ifs, p = cantor13
    table = build_moment_table(ifs, p, [2.0], n_min=6, n_max=14)
    est = estimate_D1(table)
    truth = math.log(2) / math.log(3)
    assert est.lo <= truth <= est.hi
    assert abs(est.point - truth) < 0.05


def test_table_from_histograms_matches(cantor13):
    ifs, p = cantor13
    direct = build_moment_table(ifs, p, [1.5, 2.0], n_min=4, n_max=9)
    hists = [histogram(ifs, p, n) for n in range(4, 10)]
    rebuilt = table_from_histograms(hists, [1.5, 2.0])
    assert np.allclose(direct.s_lower, rebuilt.s_lower)
    assert np.allclose(direct.s_upper, rebuilt.s_upper)
    assert np.allclose(direct.h_lower, rebuilt.h_lower)


def test_estimate_rejects_bad_q(cantor13):
    ifs, p = cantor13
    table = build_moment_table(ifs, p, [2.0], n_min=4, n_max=8)
    with pytest.raises(SpecError):
        estimate_Dq(table, 1.0)
    with pytest.raises(SpecError):
        estimate_Dq(table, 3.0)  # not in the table


def test_dim_estimate_invariant():
    with pytest.raises(SpecError):
        DimEstimate(q=2.0, point=0.9, lo=0.5, hi=0.8, levels=(4, 5, 6),
                    residual=0.0)


def test_submultiplicativity(cantor13):
    ifs, p = cantor13
    table = build_moment_table(ifs, p, [2.0], n_min=1, n_max=14)
    rep = check_submultiplicativity(table, 2.0, 64.0)
    assert rep.holds
    assert rep.m_min_empirical == pytest.approx(2.0850729321, abs=1e-6)
    assert rep.triples_checked > 40
    n, m, nm = rep.worst_triple
    assert n + m == nm
    tight = check_submultiplicativity(table, 2.0, 1.5)
    assert not tight.holds


def test_submultiplicativity_needs_q_above_one(cantor13):
    ifs, p = cantor13
    table = build_moment_table(ifs, p, [2.0], n_min=1, n_max=6)
    with pytest.raises(SpecError):
        check_submultiplicativity(table, 0.5, 4.0)


def test_ac_predicate_branches():
    low = ac_predicate(1.0, DimEstimate(q=2.0, point=0.99, lo=0.98, hi=1.0,
                                        levels=(6, 7, 8), residual=0.0),
                       0.5, 2.0)
    assert low.predicts
    assert low.status == "PredictsLq"
    high_p = ac_predicate(1.0, DimEstimate(q=4.0, point=0.8, lo=0.7, hi=0.9,
                                           levels=(6, 7, 8), residual=0.0),
                          0.5, 4.0)
    # lhs = (p-1)(d - lo) = 0.9, not below the decay exponent
    assert not high_p.predicts
    assert high_p.lhs == pytest.approx(0.9)
