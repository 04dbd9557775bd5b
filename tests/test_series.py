"""The free moment-cumulant recurrence over the rationals, Sym and NSym."""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest

from parkhopf import catalan, series, symfun, verify

from test_catalan import _g_series_by_graded_powers

F = Fraction
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_rational_all_ones_cumulants_give_catalan_numbers():
    # free Poisson of rate 1: r_s = 1 for all s, m_k = Catalan(k)
    ms = series.free_moments([F(1)] * 8, 0, 1, operator.mul)
    assert ms == CATALAN[1:]
    assert series.free_cumulants(ms, 0, 1, operator.mul) == [1] * 8
    assert series.free_moments([], 0, 1, operator.mul) == []
    assert series.free_cumulants([], 0, 1, operator.mul) == []


def test_rational_round_trip_of_t_over_one_minus_t():
    # M(z) = 1 + t/(1 - t): every moment 1, the point mass at 1, whose only
    # free cumulant is r_1 = 1
    ones = [F(1)] * 8
    rs = series.free_cumulants(ones, 0, 1, operator.mul)
    assert rs == [1] + [0] * 7
    assert series.free_moments(rs, 0, 1, operator.mul) == ones


@pytest.mark.parametrize("n", range(1, 9))
def test_sym_star_matches_the_lagrange_oracle(n):
    assert symfun.h_star(n) == verify.h_star_closed(n)


def test_nsym_g_series_at_the_cli_bound():
    assert catalan.g_series(12) == _g_series_by_graded_powers(12)


def test_a_corrupted_recurrence_is_caught_by_the_oracles(monkeypatch):
    lower = series._lower_terms

    def corrupted(pw, *args):
        k = len(pw)
        out = lower(pw, *args)
        return out + out if k >= 3 else out  # doubled from degree 3 on

    monkeypatch.setattr(series, "_lower_terms", corrupted)
    symfun.h_star.cache_clear()
    symfun.e_star.cache_clear()
    try:
        assert verify.check_star_involution(2) == (
            False, "star routes differ at n=3")
        assert verify.check_cumulant_oracle(2) == (
            False, "series route differs from oracle at degree 3")
    finally:
        symfun.h_star.cache_clear()
        symfun.e_star.cache_clear()
