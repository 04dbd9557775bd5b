"""The seven bases, each described once.

A basis is a key of the tables below: how its labels are parsed, rendered
and encoded (`BASES`), its structure maps where they exist (`MUL`, `COMUL`,
`ANTIPODE`, each on basis labels) and its labels degree by degree
(`LABELS`).  The command line and the verification suites both read these
tables; they hold no caches of their own.  `SUITES` names the verification
suites, so the command line can offer them without importing `verify`.
"""
from __future__ import annotations

from . import catalan, fbasis, gbasis, schroder, words
from .jsonio import parse_word, render_word
from .linear import Lin


def _parse_parking(text: str):
    w = parse_word(text)
    if not words.is_parking(w):
        raise ValueError(f"not a parking function: {text}")
    return w


def _parse_catalan(text: str):
    w = parse_word(text)
    if not words.is_catalan_word(w):
        raise ValueError(f"not a nondecreasing parking function: {text}")
    return w


def _parse_key(text: str):
    return schroder.key_of_word(_parse_parking(text))


def _render_key(key) -> str:
    return render_word(schroder.representative(key))


def _encode_key(key):
    return {"ev": list(key[0]), "recoil": list(key[1])}


BASES = {
    # basis: (algebra, symbol, parse, render, json encoder)
    "F": ("PQSym", "F_", _parse_parking, render_word, list),
    "G": ("PQSym*", "G_", _parse_parking, render_word, list),
    "P": ("CQSym", "P^", _parse_catalan, render_word, list),
    "M": ("CQSym*", "M_", _parse_catalan, render_word, list),
    "R": ("CQSym", "R_", _parse_catalan, render_word, list),
    "Pq": ("SQSym", "Pq_", _parse_key, _render_key, _encode_key),
    "Q": ("SQSym*", "Q_", _parse_key, _render_key, _encode_key),
}

MUL = {
    "F": fbasis.f_product,
    "G": gbasis.g_product,
    "P": lambda a, b: Lin.basis(catalan.p_product(a, b)),
    "M": catalan.m_product,
    "R": catalan.ribbon_product_via_p,
    "Pq": schroder.pq_product,
    "Q": schroder.qq_product,
}

COMUL = {
    "F": fbasis.f_coproduct,
    "G": gbasis.g_coproduct,
    "P": catalan.p_coproduct,
    "M": catalan.m_coproduct,
    "Pq": schroder.pq_coproduct,
}

ANTIPODE = {
    "F": fbasis.f_antipode,
    "G": lambda a: gbasis.g_antipode_lin(Lin.basis(a)),
}


def _catalan_labels(n: int) -> list:
    return list(words.nondecreasing_parking_functions(n))


def _class_labels(n: int) -> list:
    return sorted(schroder.classes(n))


# basis -> the sorted labels of degree n; degree 0 gives the unit label
LABELS = {
    "F": words.parking_list,
    "G": words.parking_list,
    "P": _catalan_labels,
    "M": _catalan_labels,
    "R": _catalan_labels,
    "Pq": _class_labels,
    "Q": _class_labels,
}

# the verification suites, in the order `verify.run("all")` runs them
SUITES = ("paper-examples", "hopf", "duality", "counts", "equivalences")
