"""Hopf axioms of every basis, checked from the tables in `algebras` through
total degree 4 by the generic axiom functions of `verify`.

The `hopf` suite of `verify` runs a fixed selection of these, mostly on F.
Here every product is checked for associativity, every coproduct for
coassociativity, counit and compatibility, and every antipode for the
convolution identity.
"""
from __future__ import annotations

import pytest

from parkhopf import algebras, catalan, verify
from parkhopf.algebras import ANTIPODE, COMUL, MUL

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
