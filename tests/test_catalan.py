"""Nondecreasing subalgebra, its dual, ribbons, and the generator series."""
from __future__ import annotations

from collections import defaultdict

import pytest

from parkhopf import catalan, verify, words
from parkhopf.linear import (Lin, _build, extend_bilinear, invert_unitriangular,
                             lin_sum)
from parkhopf.symfun import ns_product


def w(s):
    return tuple(int(ch) for ch in s)


def lw(*ss):
    return lin_sum(Lin.basis(w(s)) for s in ss)


def test_label_check():
    for bad in [(1, 3), (2, 1), (2,)]:
        with pytest.raises(ValueError):
            catalan.p_product(bad, (1,))


def test_p_expand():
    assert catalan.p_expand(w("112")) == lw("112", "121", "211")


def test_p_product_is_shifted_concat():
    assert catalan.p_product(w("11"), w("12")) == w("1134")


def test_p_coproduct_example():
    # stated once, as the p-coproduct row of verify.EXAMPLES
    assert verify._replay("p-coproduct", 0) == verify.OK


def test_p_embedding():
    assert verify.check_p_expand_embedding(4)[0]


def test_m_product_example():
    assert verify._replay("m-product", 0) == verify.OK


def test_m_product_commutative_associative():
    assert verify.check_m_commutative_associative(4)[0]


def test_m_coproduct_deconcatenates():
    got = catalan.m_coproduct(w("113"))
    want = (Lin.basis(((), w("113"))) + Lin.basis((w("11"), w("1")))
            + Lin.basis((w("113"), ())))
    assert got == want


def _m_coproduct_by_deconcatenation(pi):
    # reference: cut the label wherever the rest starts one above the cut
    n = len(pi)
    return _build(((pi[:k], tuple(x - k for x in pi[k:])), 1)
                  for k in range(n + 1) if k in (0, n) or pi[k] == k + 1)


@pytest.mark.parametrize("n", range(8))
def test_m_coproduct_matches_deconcatenation(n):
    for pi in words.nondecreasing_parking_functions(n):
        assert catalan.m_coproduct(pi) == _m_coproduct_by_deconcatenation(pi), pi


def test_m_polynomial():
    poly = catalan.m_polynomial(w("112"), 5)
    assert poly == {(2, 1, 0, 0, 0): 1, (0, 2, 1, 0, 0): 1,
                    (0, 0, 2, 1, 0): 1, (0, 0, 0, 2, 1): 1}
    with pytest.raises(ValueError):
        catalan.m_polynomial(w("123"), 2)
    assert verify.check_m_polynomial_realization(4)[0]


def test_gamma():
    assert catalan.gamma((2, 1)) == lw("112", "113")
    assert catalan.gamma((1, 2)) == lw("122")
    assert verify.check_gamma_morphism(3)[0]


def test_evaluation_vs_factor_composition():
    # the two candidate composition statistics genuinely differ
    assert words.evaluation_composition(w("113")) == (2, 1)
    assert verify.c_of_pi(w("113")) == (2, 1)
    assert words.evaluation_composition(w("112")) == (2, 1)
    assert verify.c_of_pi(w("112")) == (3,)


def test_ribbon_transition():
    assert catalan.p_to_r(w("113")) == lw("113", "111")
    r = catalan.r_to_p(w("113"))
    assert r == Lin.basis(w("113")) - Lin.basis(w("111"))
    assert verify.check_ribbon_triangularity(5)[0]


@pytest.mark.parametrize("n", range(1, 8))
def test_r_in_p_matches_the_unitriangular_inverse(n):
    # reference: solve P = sum R over the successor closure degreewise
    labels = tuple(words.nondecreasing_parking_functions(n))
    assert catalan._r_in_p(n) == invert_unitriangular(labels, catalan.p_to_r)


def test_ribbon_product_reference_route():
    got = catalan.ribbon_product_via_p(w("1"), w("12"))
    assert got == lw("123", "113")
    assert catalan.ribbon_mul(Lin.basis(w("1")), Lin.basis(w("12"))) == got


def test_ribbon_two_term_law_differs():
    law = catalan.ribbon_product(w("1"), w("12"))
    assert law == lw("123", "112")
    ok, detail = verify.check_ribbon_law(3)
    assert not ok and "(1,)" in detail


def test_ribbon_junction_law_agrees():
    assert verify.check_ribbon_glued_law(4)[0]
    got = catalan.ribbon_product_glued(w("11224"), w("113"))
    assert got == lw("11224668", "11224448")


def test_ribbon_printed_example():
    assert verify.check_example_ribbon_product(0) == verify.OK


def test_ribbon_stated_law_is_not_associative():
    r1 = Lin.basis(w("1"))
    stated = extend_bilinear(catalan.ribbon_product)
    left, right = stated(stated(r1, r1), r1), stated(r1, stated(r1, r1))
    assert left.coeff(w("113")) == 1 and left.coeff(w("112")) == 0
    assert right.coeff(w("112")) == 1 and right.coeff(w("113")) == 0
    for law in (catalan.ribbon_product_glued, catalan.ribbon_product_via_p):
        mul = extend_bilinear(law)
        assert mul(mul(r1, r1), r1) == mul(r1, mul(r1, r1))


def test_criterion_9_gates_the_junction_law(monkeypatch):
    ok, detail = verify.criterion(9)
    assert ok and "report: two-term ribbon law disagrees" in detail
    monkeypatch.setattr(catalan, "ribbon_product_glued", catalan.ribbon_product)
    ok, detail = verify.criterion(9)
    assert not ok and "junction-merge ribbon law fails" in detail


def test_g_series_small_degrees():
    g = catalan.g_series(3)
    assert g[1] == Lin.basis((1,))
    assert g[2] == Lin.basis((2,)) + Lin.basis((1, 1))
    assert g[3] == (Lin.basis((3,)) + Lin.basis((1, 2))
                    + Lin.basis((2, 1), 2) + Lin.basis((1, 1, 1)))


def test_g_series_identities():
    assert verify.check_g_series(4)[0]
    for n in range(1, 6):
        assert catalan.g_weighted_coefficient_sum(n) == (n + 1) ** (n - 1)


def test_g_routes_report():
    ok, report = verify.report_g_routes(4)
    assert ok
    assert "n=3: factor-type route != g_n, evaluation route == g_n" in report


def _g_series_by_graded_powers(order):
    # reference: every k-fold product of g-coefficients, rebuilt per degree
    def graded_power(g, k, d):
        cur = {0: Lin.basis(())}
        for _ in range(k):
            terms = defaultdict(list)
            for d0, lin0 in cur.items():
                for j in range(d - d0 + 1):
                    terms[d0 + j].append(ns_product(lin0, g[j]))
            cur = {e: lin_sum(ts) for e, ts in terms.items()}
        return cur.get(d, Lin())

    g = [Lin.basis(())]
    for m in range(1, order + 1):
        g.append(lin_sum(ns_product(Lin.basis((n,)), graded_power(g, n, m - n))
                         for n in range(1, m + 1)))
    return g


def test_g_series_matches_graded_powers():
    assert catalan.g_series(10) == _g_series_by_graded_powers(10)
