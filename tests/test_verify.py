"""Each check of `verify` runs at the degree it is given: a fault placed at
the top degree is found there and not below it, and the count checks run
past the end of their printed tables."""
from __future__ import annotations

import pytest

from parkhopf import algebras, gbasis, matrices, verify
from parkhopf.linear import Lin


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
