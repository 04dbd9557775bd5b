"""Symmetric functions, the star involution, characteristics, cumulants."""
from __future__ import annotations

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from parkhopf import series, symfun, verify, words
from parkhopf.linear import Lin

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def test_conversions_of_the_h_expansion():
    h = symfun.h
    assert symfun.e((3,)) == h((1, 1, 1)) - h((2, 1), 2) + h((3,))
    for lam in [(3,), (2, 1), (1, 1, 1), (2, 2)]:
        x = symfun.h(lam)
        assert symfun.omega(x) == symfun.e(lam)
        assert symfun.omega(symfun.omega(x)) == x
    want = Lin.basis((3,)) + Lin.basis((2, 1), 2) + Lin.basis((1, 1, 1), 3)
    assert symfun.in_m(symfun.h((2, 1))) == want
    assert symfun.h_product(h((2,)), h((1,))) == h((2, 1))


@pytest.mark.parametrize("parts", [(1, 2), (2, 0)])
def test_h_refuses_a_non_partition(parts):
    with pytest.raises(ValueError) as info:
        symfun.h(parts)
    assert str(info.value) == f"not a partition: {parts}"


def test_omega_involution():
    x = symfun.h((2, 1)) - symfun.h((3,), 2)
    assert symfun.omega(symfun.omega(x)) == x
    assert symfun.omega(symfun.e((2, 1))) == symfun.h((2, 1))


def test_star_small_values():
    assert symfun.h_star(1) == -symfun.h((1,))
    assert symfun.h_star(2) == symfun.h((1, 1), 2) - symfun.h((2,))


@pytest.mark.parametrize("n", range(1, 6))
def test_star_routes_and_involution(n):
    assert symfun.h_star(n) == verify.h_star_closed(n)
    assert symfun.star(symfun.h_star(n)) == symfun.h((n,))
    assert symfun.e_star(n) == -symfun.omega(symfun.prime_characteristic(n))


def test_characteristics():
    assert symfun.prime_characteristic(1) == symfun.h((1,))
    for n in range(2, 6):
        assert symfun.prime_characteristic(n) == \
            verify.prime_characteristic_closed(n)
    for i in [(2,), (1, 1), (2, 1), (1, 3)]:
        assert symfun.type_characteristic(i) == \
            verify.type_characteristic_by_words(i)
    for n in range(1, 5):
        assert symfun.parking_characteristic(n) == \
            verify.parking_characteristic_by_words(n)


def test_prime_eval_count_brute_force():
    assert verify.check_prime_eval_counts(6)[0]


@pytest.mark.parametrize("n", range(1, 10))
def test_kreweras_count_matches_the_noncrossing_block_types(n):
    types = {}
    for pi in words.nondecreasing_parking_functions(n):
        lam = words.partition_of(map(len, words.nc_of_parking(pi)))
        types[lam] = types.get(lam, 0) + 1
    for lam in words.partitions(n):
        assert symfun.kreweras_count(lam, n) == types.get(lam, 0)


def test_a_wrong_kreweras_count_is_caught_by_the_checks(monkeypatch):
    count = symfun.kreweras_count
    # one too many at the single block type (2, 1) of degree 3
    monkeypatch.setattr(symfun, "kreweras_count",
                        lambda lam, size: count(lam, size) + (lam == (2, 1)))
    assert verify.check_nc_roundtrip(2) == (
        False, "block type count wrong at (2, 1)")
    assert verify.check_cumulant_oracle(2) == (
        False, "series route differs from oracle at degree 3")


def test_hall_pairing_orthonormal():
    assert verify.check_hall_pairing(4)[0]


def test_hall_pairing_check_sees_a_wrong_monomial_expansion(monkeypatch):
    right = symfun._h_label_in_m

    def wrong(lam):
        extra = Lin.basis((1, 1, 1)) if lam == (2, 1) else Lin()
        return right(lam) + extra

    monkeypatch.setattr(symfun, "_h_label_in_m", wrong)
    ok, detail = verify.check_hall_pairing(4)
    assert not ok and "not orthonormal" in detail


def test_hall_pairing_check_sees_a_character_that_is_not_schur_positive(
        monkeypatch):
    monkeypatch.setattr(symfun, "prime_characteristic",
                        lambda n: -symfun.h((n,)))
    ok, detail = verify.check_hall_pairing(4)
    assert not ok and "not Schur positive" in detail


def test_ribbon_h():
    r = symfun.ribbon_h((1, 1))
    assert r == symfun.h((1, 1)) - symfun.h((2,))
    assert symfun.ribbon_h((2,)) == symfun.h((2,))


CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012,
           742900, 2674440, 9694845, 35357670, 129644790, 477638700,
           1767263190, 6564120420]


def _all_fractions(seq) -> bool:
    return all(type(x) is Fraction for x in seq)


@pytest.mark.parametrize("n", range(21))
def test_free_poisson_cumulants_and_catalan_moments(n):
    # free Poisson of rate 1: every free cumulant is 1, m_k = C_k
    ms = symfun.cumulants_to_moments([1] * n)
    assert ms == CATALAN[1:n + 1] and _all_fractions(ms)
    rs = symfun.moments_to_cumulants(CATALAN[1:n + 1])
    assert rs == [1] * n and _all_fractions(rs)


@pytest.mark.parametrize("n", range(21))
def test_semicircle_cumulants_and_catalan_moments(n):
    # semicircle: r_2 = 1 is the only free cumulant, m_2k = C_k
    semi_r = [int(k == 2) for k in range(1, n + 1)]
    semi_m = [0 if k % 2 else CATALAN[k // 2] for k in range(1, n + 1)]
    ms = symfun.cumulants_to_moments(semi_r)
    assert ms == semi_m and _all_fractions(ms)
    rs = symfun.moments_to_cumulants(semi_m)
    assert rs == semi_r and _all_fractions(rs)


@pytest.mark.parametrize("seed", range(20))
def test_seeded_cumulants_against_noncrossing_sum(seed):
    rng = random.Random(seed)
    rs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
          for _ in range(seed % 10)]
    ms = [symfun.nc_moment(rs, k) for k in range(1, len(rs) + 1)]
    got_m = symfun.cumulants_to_moments(rs)
    assert got_m == ms and _all_fractions(got_m)
    got_r = symfun.moments_to_cumulants(ms)
    assert got_r == rs and _all_fractions(got_r)


def _seeded_terms(seed: int, count: int, digits: int) -> list:
    """count terms mixing ints, Fractions and fraction strings, of both
    signs, with numerators and denominators of up to `digits` digits."""
    rng = random.Random(seed)
    terms = []
    for k in range(count):
        num = rng.randint(-10 ** digits + 1, 10 ** digits - 1)
        den = rng.randint(1, 10 ** digits - 1)
        terms.append((num, Fraction(num, den), f"{num}/{den}")[k % 3])
    return terms


@pytest.mark.parametrize("seed, count, digits", [
    (1, 0, 2), (2, 1, 2), (3, 7, 1), (4, 12, 3), (5, 9, 20), (6, 20, 64)])
def test_integer_recurrence_equals_the_fraction_recurrence(seed, count,
                                                           digits):
    terms = _seeded_terms(seed, count, digits)
    fracs = [Fraction(x) for x in terms]
    for route, solve in ((symfun.moments_to_cumulants, series.free_cumulants),
                         (symfun.cumulants_to_moments, series.free_moments)):
        got = route(terms)
        assert got == solve(fracs, Fraction(0), Fraction(1), mul)
        assert _all_fractions(got)


def test_moment_cumulant_examples():
    semi = symfun.moments_to_cumulants([0, 1, 0, 2, 0, 5])
    assert semi == [Fraction(x) for x in (0, 1, 0, 0, 0, 0)]
    assert symfun.cumulants_to_moments([1, 1, 1, 1]) == [
        Fraction(x) for x in (1, 2, 5, 14)]
    assert symfun.moments_to_cumulants([]) == []
    assert symfun.cumulants_to_moments([]) == []


def test_cumulants_reject_floats_and_take_exact_text():
    for route in (symfun.moments_to_cumulants, symfun.cumulants_to_moments,
                  lambda xs: symfun.nc_moment(xs, 2)):
        with pytest.raises(TypeError, match="non-exact coefficient 0.2"):
            route([1, 0.2])
        assert route([1, "1/2"]) == route([Fraction(1), Fraction(1, 2)])


@settings(max_examples=30)
@given(st.lists(rationals, min_size=1, max_size=7))
def test_moment_cumulant_roundtrip(ms):
    ms = [Fraction(m) for m in ms]
    rs = symfun.moments_to_cumulants(ms)
    assert symfun.cumulants_to_moments(rs) == ms
    assert verify.cumulants_via_star(ms) == rs


@settings(max_examples=20)
@given(st.lists(rationals, min_size=1, max_size=6))
def test_nc_moment_oracle(rs):
    rs = [Fraction(r) for r in rs]
    ms = symfun.cumulants_to_moments(rs)
    for n in range(1, len(rs) + 1):
        assert ms[n - 1] == symfun.nc_moment(rs, n)


def test_quasi_shuffle_products_agree():
    x = Lin.basis((1,))
    y = Lin.basis((2, 1))
    via_m = symfun.qs_m_product(x, y)
    assert via_m.coeff((3, 1)) == 1  # overlapping letter merge
    via_f = symfun.qs_m_to_f(via_m)
    assert via_f == symfun.qs_f_product(symfun.qs_m_to_f(x),
                                        symfun.qs_m_to_f(y))
    assert symfun.qs_f_to_m(via_f) == via_m


def test_qs_basis_roundtrip():
    for i in [(2,), (1, 1), (2, 1), (1, 2, 1)]:
        x = Lin.basis(i)
        assert symfun.qs_f_to_m(symfun.qs_m_to_f(x)) == x


def test_sym_to_qsym():
    # h_21 = m_3 + 2 m_21 + 3 m_111
    got = symfun.sym_to_qsym_m(symfun.h((2, 1)))
    assert got == (Lin.basis((3,)) + Lin.basis((2, 1), 2)
                   + Lin.basis((1, 2), 2) + Lin.basis((1, 1, 1), 3))


def test_nsym_ops():
    assert symfun.ns_product(Lin.basis((2,)), Lin.basis((1, 1))) == \
        Lin.basis((2, 1, 1))
    assert symfun.ns_image(Lin.basis((2, 1))) == symfun.h((2, 1))


def test_eta_v_compatibility():
    assert verify.check_eta_v_compatibility(4)[0]


def test_descent_type_pairing_counts():
    table = {}
    for a in words.parking_functions(4):
        key = (words.prime_type(a), words.descent_composition(a))
        table[key] = table.get(key, 0) + 1
    i, j = (2, 2), (1, 3)
    got = symfun.hall_pairing(symfun.ribbon_h(j),
                              symfun.type_characteristic(i))
    assert got == table.get((i, j), 0)
