"""Each check of `verify` runs at the degree it is given: a fault placed at
the top degree is found there and not below it, and the count checks run
past the end of their printed tables."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import parkhopf
from parkhopf import algebras, fbasis, gbasis, matrices, symfun, verify, words
from parkhopf.linear import Lin, dual_pairing


def _corrupt_at(mul, degree: int, extra):
    """mul, with the basis element `extra` added to every product of two
    nonempty labels whose degrees sum to `degree`."""
    def corrupted(a, b):
        got = mul(a, b)
        if a and b and len(a) + len(b) == degree:
            return got + Lin.basis(extra)
        return got
    return corrupted


def test_g_compatibility_runs_at_total_degree_4(monkeypatch):
    # G_1234 is not primitive, so adding it to a product of degree 4
    # breaks the bialgebra law there
    monkeypatch.setitem(algebras.MUL, "G",
                        _corrupt_at(gbasis.g_product, 4, (1, 2, 3, 4)))
    assert verify.check_g_compatible(3) == verify.OK
    ok, detail = verify.check_g_compatible(4)
    assert not ok and detail.startswith("G: bialgebra compatibility fails")


def test_adjointness_runs_at_degree_5(monkeypatch):
    monkeypatch.setattr(gbasis, "g_product",
                        _corrupt_at(gbasis.g_product, 5, (1, 1, 1, 1, 1)))
    assert verify.check_duality_adjoint(4) == verify.OK
    ok, detail = verify.check_duality_adjoint(5)
    assert not ok and detail.startswith("product/coproduct adjointness fails")


def test_adjointness_sees_a_missing_coproduct_term(monkeypatch):
    # the cut 1 | 11 of G_122 dropped: F_1 F_11 still contains F_122
    coproduct, cut = gbasis.g_coproduct, Lin.basis(((1,), (1, 1)))
    monkeypatch.setattr(gbasis, "g_coproduct", lambda a: coproduct(a) - cut
                        if a == (1, 2, 2) else coproduct(a))
    assert verify.check_duality_adjoint(3) == (
        False, "coproduct/product adjointness fails at (1,),(1, 1),(1, 2, 2)")


def test_f_antipode_axiom_sees_a_sign_flip(monkeypatch):
    antipode = fbasis.f_antipode
    monkeypatch.setattr(fbasis, "f_antipode",
                        lambda a: -antipode(a) if a else antipode(a))
    assert verify.check_f_antipode_axiom(4) == (
        False, "F: antipode convolution identity fails at (1,)")


def test_f_antipode_axiom_runs_at_its_top_label(monkeypatch):
    # S(F_1234) is read only by the check of 1234 itself, at the cuts
    # (1234, 1) and (1, 1234)
    antipode, top = fbasis.f_antipode, (1, 2, 3, 4)
    monkeypatch.setattr(fbasis, "f_antipode", lambda a: antipode(a)
                        + Lin.basis(top) if a == top else antipode(a))
    assert verify.check_f_antipode_axiom(3) == verify.OK
    assert verify.check_f_antipode_axiom(4) == (
        False, "F: antipode convolution identity fails at (1, 2, 3, 4)")


PRINTED = [(verify.check_counts_connected, "PRINTED_CONNECTED"),
           (verify.check_counts_lie, "PRINTED_LIE"),
           (verify.check_counts_schroder, "PRINTED_SCHRODER")]


@pytest.mark.parametrize("check", [check for check, _table in PRINTED])
def test_count_checks_run_past_their_printed_tables(check):
    # n = 7 is one past PRINTED_LIE and PRINTED_SCHRODER
    assert check(7) == verify.OK


@pytest.mark.parametrize("check, table", PRINTED)
def test_count_checks_still_read_their_printed_tables(monkeypatch, check,
                                                      table):
    printed = getattr(verify, table)
    monkeypatch.setattr(verify, table,
                        printed[:3] + (printed[3] + 1,) + printed[4:])
    assert not check(7)[0]


def test_matrix_parkization_check_sees_each_fault(monkeypatch):
    parkize, spread = matrices.matrix_parkize, matrices.word_matrices

    def untrimmed(m):
        # the trailing trim skipped on 2 x 3 matrices: zero columns put back
        pm = parkize(m)
        if len(m) == 2 and matrices.width(m) == 3:
            return tuple(row + (0,) * (3 - len(row)) for row in pm)
        return pm

    def misread(a, width=None):
        # the rows of the first matrix of 12 swapped: it reads 21
        got = spread(a, width)
        if tuple(a) == (1, 2):
            got[0] = got[0][::-1]
        return got

    assert verify.check_matrix_parkize(4) == verify.OK
    with monkeypatch.context() as patch:
        patch.setattr(matrices, "matrix_parkize", untrimmed)
        assert verify.check_matrix_parkize(4) == (
            False, "trailing trim wrong on ((1, 0, 0), (1, 0, 0))")
    with monkeypatch.context() as patch:
        patch.setattr(matrices, "word_matrices", misread)
        assert verify.check_matrix_parkize(4) == (
            False, "((0, 1), (1, 0)) does not read back to (1, 2)")


def _st_bases_by_pairing(d: int):
    # the dim^2 pairing loop the check replaced: every dual element paired
    # with every product, failing at the first bad (b, x) in label order
    for n in range(1, d + 1):
        s, t = gbasis.st_dual_bases(n)
        labels = words.parking_list(n)
        f_prods = {x: fbasis.f_mult_basis(x) for x in labels}
        g_prods = {x: gbasis.g_mult_basis(x) for x in labels}
        for b in labels:
            for x in labels:
                want = int(b == x)
                if dual_pairing(s[b], f_prods[x]) != want:
                    return False, f"S basis not dual to products at {b},{x}"
                if dual_pairing(t[b], g_prods[x]) != want:
                    return False, f"T basis not dual to products at {b},{x}"
    return verify.OK


@pytest.mark.parametrize("side, b, c, want", [
    (0, (1, 2, 1), (1, 1, 2),
     "S basis not dual to products at (1, 2, 1),(1, 1, 2)"),
    (1, (2, 1, 1), (3, 1, 1),
     "T basis not dual to products at (2, 1, 1),(3, 1, 1)"),
])
def test_st_dual_bases_check_sees_a_corrupted_entry(monkeypatch, side, b, c,
                                                    want):
    tables = gbasis.st_dual_bases

    def corrupted(n):
        got = list(tables(n))
        if n == 3:
            got[side] = {**got[side], b: got[side][b] + Lin.basis(c)}
        return tuple(got)

    assert verify.check_duality_st_bases(3) == verify.OK
    assert _st_bases_by_pairing(3) == verify.OK
    monkeypatch.setattr(gbasis, "st_dual_bases", corrupted)
    assert verify.check_duality_st_bases(2) == verify.OK
    assert verify.check_duality_st_bases(3) == (False, want)
    assert _st_bases_by_pairing(3) == (False, want)


def test_phi_morphism_check_sees_a_dropped_word(monkeypatch):
    # phi(132) is G_132 + G_121; G_121 dropped
    phi = gbasis.phi

    def dropped(sigma):
        got = phi(sigma)
        return got - Lin.basis((1, 2, 1)) if tuple(sigma) == (1, 3, 2) else got

    assert phi((1, 3, 2)).coeff((1, 2, 1)) == 1
    monkeypatch.setattr(gbasis, "phi", dropped)
    assert verify.check_phi_morphism(2) == verify.OK
    ok, detail = verify.check_phi_morphism(3)
    assert not ok and detail.startswith("phi product fails at ")


def test_matrix_parkization_check_sees_swapped_columns(monkeypatch):
    parkize = matrices.matrix_parkize

    def swapped(m):
        pm = parkize(m)
        if matrices.width(pm) < 2:
            return pm
        return tuple((row[1], row[0]) + row[2:] for row in pm)

    monkeypatch.setattr(matrices, "matrix_parkize", swapped)
    assert verify.check_matrix_parkize(4) == (
        False, "matrix parkization disagrees on ((1, 0), (1, 0))")


def test_prime_characterizations_check_sees_a_type_off_by_one(monkeypatch):
    # a word of length 6 = d + 2 at d = 4, read by the streamed loop only
    word, prime_type = (2, 1, 1, 3, 5, 4), words.prime_type

    def off_by_one(a):
        got = prime_type(a)
        return got[:-1] + (got[-1] + 1,) if tuple(a) == word else got

    monkeypatch.setattr(words, "prime_type", off_by_one)
    assert verify.check_prime_characterizations(3) == verify.OK
    assert verify.check_prime_characterizations(4) == (
        False, f"type differs from breakpoint gaps at {word}")


def test_cumulant_roundtrip_check_sees_a_wrong_e_star(monkeypatch):
    # e_star caches star's value: clear it so e_3* is rebuilt from the
    # corrupted h_3*, and again so the corrupted value does not outlive
    # the test
    h_star = symfun.h_star

    def wrong_at_3(n):
        return h_star(n) + symfun.h((1, 1, 1)) if n == 3 else h_star(n)

    monkeypatch.setattr(symfun, "h_star", wrong_at_3)
    symfun.e_star.cache_clear()
    try:
        assert symfun.e_star(3) != -symfun.omega(
            verify.prime_characteristic_closed(3))
        ok, detail = verify.check_cumulant_roundtrip(4)
        assert not ok and detail.startswith("cumulant routes disagree on ")
    finally:
        symfun.e_star.cache_clear()


def _plus_h1(x):
    return x + symfun.h((1,))


def _plus_term(x):
    return x + Lin.basis((9,))


# (oracle in verify, perturbation of its value, the check that reads it,
# the head of that check's failure detail at degree 1)
ORACLES = [
    ("h_star_closed", _plus_h1, verify.check_star_involution,
     "star routes differ at n=1"),
    ("prime_characteristic_closed", _plus_h1, verify.check_characteristics,
     "prime character routes differ at n=2"),
    ("type_characteristic_by_words", _plus_h1, verify.check_characteristics,
     "type character routes differ at (1,)"),
    ("parking_characteristic_by_words", _plus_h1,
     verify.check_characteristics, "full character routes differ at n=1"),
    ("cumulants_via_star", lambda rs: [r + 1 for r in rs],
     verify.check_cumulant_roundtrip, "cumulant routes disagree on "),
    ("evaluation_type_sum", _plus_term, verify.check_g_series,
     "evaluation-type expansion differs at n=1"),
    ("v_element_by_type", _plus_term, verify.check_v_elements,
     "type-class sum routes disagree at (1,)"),
    ("ppf_inclusion_exclusion", _plus_term,
     verify.check_prime_inclusion_exclusion,
     "prime sum by sign inversion fails at n=1"),
]


@pytest.mark.parametrize("name, perturb, check, detail", ORACLES,
                         ids=[row[0] for row in ORACLES])
def test_each_oracle_is_the_one_its_check_reads(monkeypatch, name, perturb,
                                                check, detail):
    # the check looks the second route up in verify, where it is defined
    assert check(1) == verify.OK
    oracle = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: perturb(oracle(*args)))
    ok, got = check(1)
    assert not ok and got.startswith(detail), got


def _package_caches():
    # every lru_cache a package module defines at its top level
    out = []
    for info in pkgutil.iter_modules(parkhopf.__path__):
        mod = importlib.import_module(f"parkhopf.{info.name}")
        out += [obj for obj in vars(mod).values()
                if callable(getattr(obj, "cache_clear", None))
                and getattr(obj, "__module__", "") == mod.__name__]
    return out


def test_cold_run_equals_a_warm_run():
    # the matrix kernels' memos are package lru_caches, which a cold run
    # clears with the rest; a plain dict would carry warm work across runs
    caches = _package_caches()
    for memo in (matrices._column_plan, matrices._reading_labels):
        assert memo in caches
    for memo in caches:
        memo.cache_clear()
    cold = verify.run("all", 4)
    assert matrices._column_plan.cache_info().currsize > 0
    assert cold == verify.run("all", 4) and len(cold) == 72
