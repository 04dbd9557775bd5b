"""Fundamental basis: shifted-shuffle product, cut coproduct, antipode."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from parkhopf import fbasis, verify, words
from parkhopf.linear import Lin, lin_sum


def w(s):
    return tuple(int(ch) for ch in s)


# The worked examples are stated once, as rows of verify.EXAMPLES, and
# replayed through the command line.

def test_product_example():
    assert verify._replay("f-product", 0) == verify.OK


def test_product_rejects_non_parking():
    with pytest.raises(ValueError):
        fbasis.f_product((1, 3), (1,))


def test_unit():
    x = Lin.basis((1, 2))
    assert fbasis.f_mul(Lin.basis(()), x) == x
    assert fbasis.f_mul(x, Lin.basis(())) == x


def test_coproduct_example():
    assert verify._replay("f-coproduct", 0) == verify.OK


def test_coproduct_term_count():
    # one term per cut position, after parkization of both halves
    for a in [(1, 1), (2, 1), (1, 2, 2)]:
        assert sum(c for _, c in fbasis.f_coproduct(a).items()) == len(a) + 1


def test_antipode_example():
    assert verify._replay("f-antipode", 0) == verify.OK


def test_antipode_routes_agree():
    assert verify.check_antipode_routes(4)[0]


def test_antipode_degree_one():
    assert fbasis.f_antipode((1,)) == -Lin.basis((1,))


def block_factorization_antipode(a):
    """The closed form summed literally: (-1)^k F_pk(b1) ... F_pk(bk) over
    all 2^(n-1) cuts of a into consecutive nonempty blocks b1 ... bk."""
    n = len(a)
    if not n:
        return Lin.basis(())
    out = Lin()
    for cuts in range(1 << (n - 1)):
        points = [0] + [i for i in range(1, n) if cuts >> (i - 1) & 1] + [n]
        term = Lin.basis(())
        for lo, hi in zip(points, points[1:]):
            term = fbasis.f_mul(term, Lin.basis(words.parkize(a[lo:hi])))
        out += term.scale(-1 if (len(points) - 1) % 2 else 1)
    return out


def test_antipode_is_the_block_factorization_sum():
    rng = random.Random(5)
    sample = [a for n in range(5) for a in words.parking_functions(n)]
    sample += rng.sample(words.parking_list(5), 20)
    for a in sample:
        got = fbasis.f_antipode(a)
        assert got == block_factorization_antipode(a), a
        assert all(c for _, c in got.items()), a


@st.composite
def parking_words(draw, lengths=(6, 7)):
    """A parking function: a permutation of a nondecreasing word x with
    x_i <= i, made by capping a sorted draw at the position."""
    n = draw(st.sampled_from(lengths))
    letters = sorted(draw(st.lists(st.integers(1, n), min_size=n, max_size=n)))
    return tuple(draw(st.permutations(
        [min(x, i) for i, x in enumerate(letters, start=1)])))


@settings(max_examples=10, derandomize=True, deadline=None)
@given(parking_words())
def test_antipode_routes_agree_at_degrees_6_7(a):
    s = fbasis.f_antipode(a)
    assert s == fbasis.f_antipode_by_recursion(a)
    assert all(c for _, c in s.items())
    convolution = lin_sum(
        fbasis.f_mul(fbasis.f_antipode(u), Lin.basis(v)).scale(c)
        for (u, v), c in fbasis.f_coproduct(a).items())
    assert convolution == Lin()


def test_mult_basis_leading_term():
    ok, detail = verify.check_mult_basis(4)
    assert ok, detail


def test_v_elements_and_inclusion_exclusion():
    assert verify.check_v_elements(4)[0]
    assert verify.check_prime_inclusion_exclusion(4)[0]
    # degree 2: the prime class sum is F_11, by signs: F-sum(2) - F_1 F_1
    direct = verify.ppf_inclusion_exclusion(2)
    assert direct == Lin.basis((1, 1))


def test_pf_sum():
    assert verify.pf_sum(2) == lin_sum(
        Lin.basis(a) for a in [(1, 1), (1, 2), (2, 1)])


def test_eta_descent_projection():
    assert fbasis.eta(Lin.basis(w("3132"))) == Lin.basis((1, 2, 1))
    assert fbasis.eta(Lin.basis(())) == Lin.basis(())
    assert verify.check_eta_morphism(3)[0]


def test_j_embed():
    assert verify.check_ones_coproduct(4)[0]


def test_hopf_axioms_small():
    assert verify.check_f_associative(3)[0]
    assert verify.check_f_coassociative(3)[0]
    assert verify.check_f_compatible(3)[0]
    assert verify.check_f_counit(3)[0]
    assert verify.check_f_antipode_axiom(3)[0]
