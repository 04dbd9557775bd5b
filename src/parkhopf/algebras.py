"""The seven bases, each described once.

A basis is a key of the tables below: how its labels are parsed, rendered
and encoded (`BASES`), its structure maps where they exist (`MUL`, `COMUL`,
`ANTIPODE`, each on basis labels) and its labels degree by degree
(`LABELS`).  The command line and the verification suites both read these
tables.  Each entry names the module that computes it and looks the
function up there when called, importing the module on its first call: a
command loads only the algebra it uses, and an entry calls whatever the
module holds under that name at the time, a replaced attribute included.
`SUITES` names the verification suites, so the command line can offer them
without importing `verify`.
"""
from __future__ import annotations

from importlib import import_module

from . import words
from .jsonio import parse_word, render_word
from .linear import Lin


def _late(short: str, name: str):
    """Call `name` of the package module `short`, imported on first call
    and looked up on every call."""
    module = None

    def entry(*args):
        nonlocal module
        if module is None:
            module = import_module(f"{__package__}.{short}")
        return getattr(module, name)(*args)
    return entry


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


_key_of_word = _late("schroder", "key_of_word")
_representative = _late("schroder", "representative")


def _parse_key(text: str):
    return _key_of_word(_parse_parking(text))


def _render_key(key) -> str:
    return render_word(_representative(key))


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

_p_product = _late("catalan", "p_product")
_g_antipode_lin = _late("gbasis", "g_antipode_lin")

MUL = {
    "F": _late("fbasis", "f_product"),
    "G": _late("gbasis", "g_product"),
    "P": lambda a, b: Lin.basis(_p_product(a, b)),
    "M": _late("catalan", "m_product"),
    "R": _late("catalan", "ribbon_product_via_p"),
    "Pq": _late("schroder", "pq_product"),
    "Q": _late("schroder", "qq_product"),
}

COMUL = {
    "F": _late("fbasis", "f_coproduct"),
    "G": _late("gbasis", "g_coproduct"),
    "P": _late("catalan", "p_coproduct"),
    "M": _late("catalan", "m_coproduct"),
    "Pq": _late("schroder", "pq_coproduct"),
}

ANTIPODE = {
    "F": _late("fbasis", "f_antipode"),
    "G": lambda a: _g_antipode_lin(Lin.basis(a)),
}


def _catalan_labels(n: int) -> list:
    return list(words.nondecreasing_parking_functions(n))


def _class_labels(n: int) -> list:
    """Class keys: each nondecreasing parking function's evaluation with
    each coarsening of its nonzero multiplicities as recoil composition."""
    keys = []
    for a in words.nondecreasing_parking_functions(n):
        ev = words.evaluation(a, n)
        keys.extend((ev, r) for r in words.coarsenings(tuple(filter(None, ev))))
    return sorted(keys)


# basis -> the sorted labels of degree n; degree 0 gives the unit label
LABELS = {
    "F": _late("words", "parking_list"),
    "G": _late("words", "parking_list"),
    "P": _catalan_labels,
    "M": _catalan_labels,
    "R": _catalan_labels,
    "Pq": _class_labels,
    "Q": _class_labels,
}

# the verification suites, in the order `verify.run("all")` runs them
SUITES = ("paper-examples", "hopf", "duality", "counts", "equivalences")
