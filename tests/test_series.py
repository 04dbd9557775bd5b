"""Truncated power-series helpers over exact rationals."""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest

from parkhopf.series import SeriesOps

F = Fraction


def rational_series(order: int) -> SeriesOps:
    return SeriesOps(order, F(0), F(1), operator.mul)


def compose(ops: SeriesOps, f, g) -> list:
    """f(g(t)) by Horner's rule; g has no constant term."""
    out = ops.pad([])
    for c in reversed(ops.pad(f)):
        out = ops.mul(out, g)
        out[0] += c
    return out


def test_pad_and_mul():
    ops = rational_series(4)
    assert ops.pad([F(1)]) == [F(1), F(0), F(0), F(0), F(0)]
    # (1 + t)^2 = 1 + 2t + t^2, truncated at order 4.
    sq = ops.mul([F(1), F(1)], [F(1), F(1)])
    assert sq == [F(1), F(2), F(1), F(0), F(0)]


def test_pow():
    ops = rational_series(5)
    one_plus_t = ops.pad([F(1), F(1)])
    assert ops.pow(one_plus_t, 3)[:4] == [F(1), F(3), F(3), F(1)]


def test_reversion_catalan():
    ops = rational_series(7)
    # The inverse of f = t - t^2 has coefficients g_k = Catalan(k-1).
    g = ops.reversion([F(0), F(1), F(-1)])
    assert g == [F(0), F(1), F(1), F(2), F(5), F(14), F(42), F(132)]
    # Round trip: f(g(t)) = t.
    assert compose(ops, [F(0), F(1), F(-1)], g) == ops.pad([F(0), F(1)])
    with pytest.raises(ValueError):
        ops.reversion([F(0), F(2)])


def test_reversion_moebius():
    ops = rational_series(6)
    # t/(1-t) and t/(1+t) are mutually inverse.
    f = [F(0)] + [F(1)] * 6
    g = ops.reversion(f)
    assert g == [F(0), F(1), F(-1), F(1), F(-1), F(1), F(-1)]
