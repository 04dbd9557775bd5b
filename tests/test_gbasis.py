"""Dual basis: convolution product, breakpoint coproduct, dual bases."""
from __future__ import annotations

import itertools
import random
import re
from itertools import combinations
from math import comb

import pytest

from parkhopf import fbasis, gbasis, verify, words
from parkhopf.linear import Lin, lin_sum


def w(s):
    return tuple(int(ch) for ch in s)


def test_parkization_fiber():
    assert gbasis.parkization_fiber((1, 1, 2), 5) == [
        (1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 5)]
    assert gbasis.parkization_fiber((), 3) == [()]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_fiber_matches_brute_force(m):
    for a in [(1,), (1, 1), (1, 2), (2, 1), (1, 1, 2)]:
        brute = []

        def rec(prefix):
            if len(prefix) == len(a):
                if words.parkize(prefix) == a:
                    brute.append(prefix)
                return
            for x in range(1, m + 1):
                rec(prefix + (x,))

        rec(())
        assert gbasis.parkization_fiber(a, m) == sorted(brute)


def _fiber_by_relabelling(a, m):
    # reference: try every increasing relabelling of the values, keep those
    # that parkize back to a
    if not a:
        return [()] if m >= 0 else []
    values = sorted(set(a))
    out = []
    for chosen in combinations(range(1, m + 1), len(values)):
        relabel = dict(zip(values, chosen))
        v = tuple(relabel[x] for x in a)
        if words.parkize(v) == a:
            out.append(v)
    return sorted(out)


FIBER_CASES = {f"n{n}": sorted(words.parking_list(n)) for n in range(5)}
FIBER_CASES["n5-sample"] = random.Random(7).sample(sorted(words.parking_list(5)), 30)


@pytest.mark.parametrize("group", FIBER_CASES)
def test_fiber_matches_the_relabelling_reference(group):
    for a in FIBER_CASES[group]:
        n = len(a)
        for m in range(n - 1, 2 * n + 2):  # m = n - 1 gives empty fibers
            assert gbasis.parkization_fiber(a, m) == _fiber_by_relabelling(a, m), (a, m)


def _convolution_by_filter(a1, a2):
    # reference: every pair of fiber words, kept when the concatenation parks
    n = len(a1) + len(a2)
    out = []
    for u in gbasis.parkization_fiber(a1, n):
        for v in gbasis.parkization_fiber(a2, n):
            c = u + v
            if words.is_parking(c):
                out.append(c)
    return sorted(out)


def _pairs(d1, d2):
    return [(a, b) for a in words.parking_list(d1) for b in words.parking_list(d2)]


CONVOLUTION_CASES = {f"{d1}+{d2}": _pairs(d1, d2)
                     for d1 in range(5) for d2 in range(5) if d1 + d2 <= 6}
for _d1, _d2, _k in [(4, 3, 100), (3, 4, 100), (4, 4, 150)]:
    CONVOLUTION_CASES[f"{_d1}+{_d2}-sample"] = random.Random(_d1 * 10 + _d2).sample(
        _pairs(_d1, _d2), _k)


@pytest.mark.parametrize("group", CONVOLUTION_CASES)
def test_convolution_matches_the_fiber_filter(group):
    for a1, a2 in CONVOLUTION_CASES[group]:
        assert gbasis.convolution(a1, a2) == _convolution_by_filter(a1, a2), (a1, a2)


@pytest.mark.parametrize("a1, a2, bad", [((2,), (1,), (2,)), ((1,), (2,), (2,)),
                                         ((1, 3), (), (1, 3))])
def test_product_rejects_a_factor_that_does_not_park(a1, a2, bad):
    with pytest.raises(ValueError, match=re.escape(f"not a parking function: {bad}")):
        gbasis.g_product(a1, a2)


def test_product_example():
    # stated once, as the g-product row of verify.EXAMPLES
    assert verify._replay("g-product", 0) == verify.OK


def test_product_by_duality_agrees():
    assert verify.check_duality_adjoint(4)[0]
    # the second route, read off the F coproduct, on every pair of total
    # degree at most 4
    for n1 in range(1, 4):
        for n2 in range(1, 5 - n1):
            for a1 in words.parking_list(n1):
                for a2 in words.parking_list(n2):
                    assert gbasis.g_product_by_duality(a1, a2) == \
                        gbasis.g_product(a1, a2), (a1, a2)


def test_coproduct_example():
    assert verify._replay("g-coproduct", 0) == verify.OK


def test_coproduct_counts_breakpoints():
    a = w("41252")
    assert words.breakpoints(a) == (1, 3, 4, 5)
    assert len(list(gbasis.g_coproduct(a).items())) == 5


def test_coproduct_by_unshuffle_agrees():
    assert verify.check_duality_unshuffle(4)[0]


def test_antipode_primitive():
    assert gbasis.g_antipode_lin(Lin.basis(w("11"))) == -Lin.basis(w("11"))


def test_antipode_axiom_small():
    for n in range(1, 4):
        for a in words.parking_list(n):
            out = Lin()
            for (u, v), c in gbasis.g_coproduct(a).items():
                out += gbasis.g_mul(gbasis.g_antipode_lin(Lin.basis(u)),
                                    Lin.basis(v)).scale(c)
            assert out == Lin(), a


def _g_antipode_by_g_mul(a, memo):
    """Reference: S(G_a) = -sum of S(G_u) G_v over the cuts with u != a,
    each product formed by g_mul and summed as Lins."""
    if a not in memo:
        memo[a] = Lin.basis(()) if not a else lin_sum(
            gbasis.g_mul(_g_antipode_by_g_mul(u, memo), Lin.basis(v)).scale(-c)
            for (u, v), c in gbasis.g_coproduct(a).items() if len(u) < len(a))
    return memo[a]


def test_antipode_matches_the_g_mul_recursion():
    memo = {}
    for n in range(6):
        for a in words.parking_list(n):
            assert gbasis._g_antipode(a) == _g_antipode_by_g_mul(a, memo), a
    rng = random.Random(29)
    for n, k in ((6, 4), (7, 2)):
        for a in rng.sample(words.parking_list(n), k):
            assert gbasis._g_antipode(a) == _g_antipode_by_g_mul(a, memo), a


def test_antipode_is_the_transpose_of_the_f_antipode():
    # <S(G_a), F_b> = <G_a, S(F_b)>
    for n in range(5):
        labels = words.parking_list(n)
        for a in labels:
            s = gbasis._g_antipode(a)
            for b in labels:
                assert s.coeff(b) == fbasis.f_antipode_by_recursion(b).coeff(a), (a, b)


def test_phi():
    assert gbasis.phi((1, 2)) == Lin.basis(w("11")) + Lin.basis(w("12"))
    assert gbasis.phi((2, 1)) == Lin.basis(w("21"))
    assert verify.check_phi_morphism(3)[0]


def test_phi_matches_the_scan_of_all_parking_functions():
    for n in range(6):
        for sigma in itertools.permutations(range(1, n + 1)):
            target = words.inverse_permutation(sigma)
            want = lin_sum(Lin.basis(a) for a in words.parking_list(n)
                           if words.standardize(a) == target)
            assert gbasis.phi(sigma) == want, sigma


def test_classic_convolution():
    assert verify.check_classic_convolution(4)[0]


def test_mult_basis_mirrors():
    # reversal of 21 splits into two letters; reversal of 12 is connected
    assert gbasis.g_mult_basis((2, 1)) == gbasis.g_mul(
        Lin.basis((1,)), Lin.basis((1,)))
    assert gbasis.g_mult_basis((1, 2)) == Lin.basis((1, 2))


def test_st_dual_bases():
    assert verify.check_duality_st_bases(3)[0]
    assert verify.check_s_primitive(3)[0]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_st_dual_bases_equal_the_coefficient_probes(n):
    # reference: S[b] = sum_c inv_f[c].coeff(b) G_c, and T likewise from inv_g
    labels = sorted(words.parking_list(n))
    s, t = gbasis.st_dual_bases(n)
    for got, inv in ((s, fbasis._f_in_mult_basis(n)),
                     (t, gbasis._g_in_mult_basis(n))):
        want = {b: lin_sum(Lin.basis(c, inv[c].coeff(b)) for c in labels)
                for b in labels}
        assert got == want
        assert list(got) == labels


def test_lie_series():
    assert gbasis.lie_generator_series(6) == [1, 2, 9, 80, 901, 12564]


def _lie_series_by_product_loop(order):
    # reference: multiply out prod_n (1 - t^n)^{c_n} with an explicit loop
    c = words.connected_counts(order)
    prod = [1] + [0] * order
    for n in range(1, order + 1):
        factor = [0] * (order + 1)
        for k in range(order // n + 1):
            factor[n * k] = (-1) ** k * comb(c[n - 1], k)
        new = [0] * (order + 1)
        for i, pi in enumerate(prod):
            for j in range(order + 1 - i):
                new[i + j] += pi * factor[j]
        prod = new
    return [-prod[k] for k in range(1, order + 1)]


def test_lie_series_matches_the_product_loop():
    for order in range(13):
        assert (gbasis.lie_generator_series(order)
                == _lie_series_by_product_loop(order)), order


def test_eta_star():
    assert gbasis.eta_star(2) == Lin.basis(w("11")) + Lin.basis(w("12"))
    assert verify.check_eta_star(3)[0]


def test_ones_powers():
    assert verify.check_g_ones_power(4)[0]
