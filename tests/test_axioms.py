"""Hopf axioms of every basis, checked from the tables in `algebras` through
total degree 4 by the generic axiom functions of `verify`.

The `hopf` suite of `verify` runs a fixed selection of these, mostly on F.
Here every product is checked for associativity, every coproduct for
coassociativity, counit and compatibility, and every antipode for the
convolution identity.
"""
from __future__ import annotations

import pytest

from parkhopf import algebras, catalan, fbasis, matrices, symfun, verify
from parkhopf.algebras import ANTIPODE, COMUL, MUL
from parkhopf.linear import Lin

TOP = 4


@pytest.mark.parametrize("basis", list(MUL))
def test_associative(basis):
    assert verify.associative(basis, verify._triples(basis, TOP)) == verify.OK


@pytest.mark.parametrize("basis", list(COMUL))
def test_coassociative_with_counit(basis):
    labels = list(verify._upto(basis, TOP))
    assert verify.coassociative(basis, labels) == verify.OK
    assert verify.counit(basis, labels) == verify.OK


@pytest.mark.parametrize("basis", list(COMUL))
def test_compatible(basis):
    assert verify.compatible(basis, verify._pairs(basis, TOP)) == verify.OK


@pytest.mark.parametrize("basis", list(ANTIPODE))
def test_antipode_identity(basis):
    labels = verify._upto(basis, TOP)
    assert verify.antipode_identity(basis, labels) == verify.OK


def test_associativity_check_catches_the_stated_ribbon_law(monkeypatch):
    monkeypatch.setitem(algebras.MUL, "R", catalan.ribbon_product)
    ok, detail = verify.associative("R", verify._triples("R", 3))
    assert not ok and detail == "R: associativity fails at (1,),(1,),(1,)"


def test_multiplicative_check_catches_a_sign_flip():
    """The descent projection with its sign flipped on words of degree 2
    first breaks at the first pair that reaches degree 2."""
    def eta(a):
        image = fbasis.eta(Lin.basis(a))
        return -image if len(a) == 2 else image

    pairs = list(verify._pairs("F", 3))
    args = (fbasis.f_product, symfun.qs_f_product, pairs)
    assert verify.multiplicative("not multiplicative at {},{}",
                                 lambda a: fbasis.eta(Lin.basis(a)),
                                 *args) == verify.OK
    ok, detail = verify.multiplicative("not multiplicative at {},{}", eta, *args)
    assert not ok and detail == "not multiplicative at (1,),(1,)"


def test_comultiplicative_check_catches_a_wrong_target_coproduct():
    """A target coproduct that drops the unit terms misses every label."""
    word_class, labels = matrices.word_class, list(verify._upto("F", 2))
    ok = verify.comultiplicative("not comultiplicative at {}", word_class,
                                 fbasis.f_coproduct, matrices.mp_comul, labels)
    assert ok == verify.OK

    def no_units(x):
        return Lin({uv: c for uv, c in matrices.mp_comul(x).items()
                    if uv[0] and uv[1]})

    ok, detail = verify.comultiplicative("not comultiplicative at {}",
                                         word_class, fbasis.f_coproduct,
                                         no_units, labels)
    assert not ok and detail == "not comultiplicative at (1,)"


def test_agree_names_the_first_input_where_two_routes_differ():
    square = lambda n: n * n
    off_at_3 = lambda n: n * n + (n == 3)
    assert verify.agree("routes differ at n={}", square, square,
                        range(1, 6)) == verify.OK
    ok, detail = verify.agree("routes differ at n={}", square, off_at_3,
                              range(1, 6))
    assert (ok, detail) == (False, "routes differ at n=3")
