"""Free-module layer: exact arithmetic, tensors, triangular inversion."""
from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import parkhopf
from parkhopf import fbasis, gbasis
from parkhopf.jsonio import lin_to_json, lin_to_text
from parkhopf.linear import (Lin, _build, dual_pairing, extend_bilinear,
                             extend_linear, invert_unitriangular, lin_sum,
                             sorted_items, tensor, tensor_map, tensor_mul)

labels = st.tuples(st.integers(min_value=1, max_value=3),
                   st.integers(min_value=1, max_value=3))
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
lins = st.dictionaries(labels, coeffs, max_size=4).map(Lin)
scalars = coeffs


def test_basic_arithmetic():
    x = Lin.basis((1, 2)) + Lin.basis((1, 1), 2)
    assert x.coeff((1, 1)) == 2
    assert x.coeff((9,)) == 0
    assert (x - x) == Lin()
    assert not (x - x)
    assert x.scale(Fraction(1, 2)).coeff((1, 1)) == 1
    assert set(x.labels()) == {(1, 2), (1, 1)}


def test_zero_terms_dropped():
    x = Lin.basis((1,)) - Lin.basis((1,))
    assert list(x.items()) == []
    assert Lin.basis((1,), 0) == Lin()


@given(lins, lins, lins)
def test_module_addition_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + Lin() == x
    assert x - x == Lin()


@given(lins, lins, scalars, scalars)
def test_module_scaling_axioms(x, y, a, b):
    assert (x + y).scale(a) == x.scale(a) + y.scale(a)
    assert x.scale(a + b) == x.scale(a) + x.scale(b)
    assert x.scale(a).scale(b) == x.scale(a * b)
    assert x.scale(1) == x


def test_sorted_items_graded_lex():
    x = Lin.basis((2,)) + Lin.basis((1, 1)) + Lin.basis((1,))
    assert [lab for lab, _ in sorted_items(x)] == [(1,), (2,), (1, 1)]


def test_tensor_and_maps():
    x, y = Lin.basis((1,)), Lin.basis((2,)) + Lin.basis((3,), 2)
    t = tensor(x, y)
    assert t.coeff(((1,), (3,))) == 2
    doubler = lambda a: Lin.basis(a, 2)
    assert tensor_map(doubler, doubler)(t).coeff(((1,), (2,))) == 4


def test_tensor_map_maps_each_leg_once_per_term():
    calls = []

    def counted(a):
        calls.append(a)
        return Lin.basis(a)

    three = lambda a: lin_sum(Lin.basis(a + (k,)) for k in range(3))
    t = tensor(Lin.basis((1,)), Lin.basis((2,)))
    assert len(tensor_map(three, counted)(t)) == 3
    assert calls == [(2,)]


def test_extend_linear_bilinear():
    dup = extend_linear(lambda a: Lin.basis(a + a))
    assert dup(Lin.basis((1,), 3)).coeff((1, 1)) == 3
    cat = extend_bilinear(lambda a, b: Lin.basis(a + b))
    got = cat(Lin.basis((1,)) + Lin.basis((2,)), Lin.basis((9,), 2))
    assert got == Lin.basis((1, 9), 2) + Lin.basis((2, 9), 2)


def test_tensor_mul():
    cat = tensor_mul(lambda a, b: Lin.basis(a + b))
    t1 = Lin.basis(((1,), (2,)))
    t2 = Lin.basis(((3,), (4,)), 2)
    assert cat(t1, t2) == Lin.basis(((1, 3), (2, 4)), 2)


def test_lin_sum():
    assert lin_sum(Lin.basis((k,)) for k in range(3)) == (
        Lin.basis((0,)) + Lin.basis((1,)) + Lin.basis((2,)))


def test_built_sums_drop_zeros_and_keep_fractions():
    # an integral value is stored as an int, a non-integral one as a Fraction
    x = Lin.basis((1,), Fraction(1, 2)) + Lin.basis((2,))
    cancelled = lin_sum([x, -x])
    assert cancelled == Lin() and len(cancelled) == 0
    dup = extend_linear(lambda a: Lin.basis(a + a))
    assert [type(c) for _, c in sorted_items(dup(x))] == [Fraction, int]
    assert all(type(c) is int for _, c in fbasis.f_product((1,), (1,)).items())
    two = Lin.basis((1,), Fraction(4, 2))
    assert type(two.coeff((1,))) is int and two.coeff((1,)) == 2
    half = two.scale(Fraction(1, 4))
    assert half.coeff((1,)) == Fraction(1, 2) and type(half.coeff((1,))) is Fraction
    for whole in (lin_sum([x, Lin.basis((1,), Fraction(1, 2))]), x + x,
                  x.scale(2), x - Lin.basis((1,), Fraction(-1, 2))):
        assert all(type(c) is int for _, c in whole.items()), whole


def _raw(label, c) -> Lin:
    """A Lin holding c as given, bypassing the coefficient normal form."""
    x = Lin()
    x._t = {label: c}
    return x


def test_integral_fraction_and_int_are_the_same_coefficient():
    a = (1, 2)
    for as_fraction in (Lin({a: Fraction(2)}), _raw(a, Fraction(2))):
        as_int = Lin({a: 2})
        assert as_fraction == as_int
        assert lin_to_text(as_fraction, "F_") == lin_to_text(as_int, "F_") == "2*F_12"
        assert lin_to_json(as_fraction, "PQSym", "F") \
            == lin_to_json(as_int, "PQSym", "F")


@pytest.mark.parametrize("make", [
    lambda c: _build([((1,), c)]),
    lambda c: _build([((1,), c), ((1,), -c)]),
    lambda c: lin_sum([Lin.basis((1,)), _raw((1,), c)]),
    lambda c: Lin({(1,): c}),
    lambda c: Lin.basis((1,)).scale(c),
])
def test_floats_are_rejected(make):
    with pytest.raises(TypeError, match="non-exact"):
        make(0.5)


def test_mutating_a_built_result_cannot_reach_a_cache():
    atom = fbasis.v_atom(3)
    before = dict(atom._t)
    for built in (lin_sum([atom]), atom.map_labels(lambda a: a),
                  extend_linear(lambda n: fbasis.v_atom(n))(Lin.basis(3)),
                  fbasis.f_mul(Lin.basis(()), atom)):
        assert built == atom and built is not atom and built._t is not atom._t
        built._t.clear()
    assert fbasis.v_atom(3) is atom and atom._t == before

    a = (2, 1, 1)
    cached = gbasis._g_antipode(a)
    before = dict(cached._t)
    for built in (gbasis.g_antipode_lin(Lin.basis(a)),
                  extend_linear(gbasis._g_antipode)(Lin.basis(a))):
        assert built == cached and built._t is not cached._t
        built._t[(9,)] = Fraction(1)
    assert gbasis._g_antipode(a)._t == before


def test_invert_unitriangular():
    expand = {
        (1,): Lin.basis((1,)),
        (2,): Lin.basis((2,)) + Lin.basis((1,)),
    }
    inv = invert_unitriangular(sorted(expand), lambda a: expand[a])
    assert inv[(2,)] == Lin.basis((2,)) - Lin.basis((1,))
    assert inv[(1,)] == Lin.basis((1,))


def test_invert_unitriangular_rejects_full_matrix():
    expand = {
        (1,): Lin.basis((1,)) + Lin.basis((2,)),
        (2,): Lin.basis((2,)) + Lin.basis((1,)),
    }
    with pytest.raises(ValueError):
        invert_unitriangular(sorted(expand), lambda a: expand[a])


def test_dual_pairing():
    x = Lin.basis((1,), 2) + Lin.basis((2,), 3)
    y = Lin.basis((1,), Fraction(1, 2)) - Lin.basis((3,))
    assert dual_pairing(x, y) == 1


# ROADMAP's north star freezes the three ribbon products, so their bodies
# stay as they are, `out = Lin()` accumulator included.
FROZEN = {"ribbon_product", "ribbon_product_glued", "ribbon_product_via_p"}


def _is_empty_lin(node) -> bool:
    return (isinstance(node, ast.Call) and not node.args and not node.keywords
            and (isinstance(node.func, ast.Name) and node.func.id == "Lin"
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "zero"
                 and isinstance(node.func.value, ast.Name)
                 and node.func.value.id == "Lin"))


def copying_accumulators(source: str, filename: str) -> list[str]:
    """Functions that bind a name to an empty Lin and then += or -= onto it."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef) or fn.name in FROZEN:
            continue
        zeros = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value \
                    and _is_empty_lin(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                zeros |= {t.id for t in targets if isinstance(t, ast.Name)}
        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign) \
                    and isinstance(node.op, (ast.Add, ast.Sub)) \
                    and isinstance(node.target, ast.Name) and node.target.id in zeros:
                found.append(f"{filename}:{node.lineno} in {fn.name}")
    return found


def test_sums_go_through_the_builder():
    sources = sorted(Path(parkhopf.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [hit for p in sources
             for hit in copying_accumulators(p.read_text(), p.name)]
    assert found == [], "sum these terms with linear._build or lin_sum"


def test_accumulator_scan_sees_the_pattern():
    source = """
def f(xs):
    out = Lin()
    for x in xs:
        out -= x
    return out

def g(xs):
    total: Lin = Lin.zero()
    total += xs
    return total

def ribbon_product_via_p(xs):
    out = Lin()
    out += xs
"""
    assert copying_accumulators(source, "m.py") == ["m.py:5 in f", "m.py:10 in g"]
