"""Catalan subquotient: nondecreasing parking functions.

P-basis elements sit inside the parking-function algebra as sums over
rearrangement classes; the M-basis spans the dual.  Ribbon elements
refine the P-basis along the successor order, and the g-series packages
the dual multiplication into noncommutative symmetric functions.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product

from .gbasis import convolution, g_coproduct, parkization_fiber
from .linear import Lin, _build, extend_bilinear
from .series import free_moments
from .symfun import ns_product
from .words import (
    Composition,
    Word,
    distinct_permutations,
    evaluation,
    evaluation_composition,
    is_catalan_word,
    multinomial,
    nondecreasing_parking_functions,
    parkized_evaluation,
    shifted_concat,
    successor_closure,
    word_of_evaluation,
)


def _check_label(pi: Word) -> Word:
    pi = tuple(pi)
    if not is_catalan_word(pi):
        raise ValueError(f"not a Catalan label: {pi}")
    return pi


def p_expand(pi: Word) -> Lin:
    """P element as a sum of F terms: all rearrangements of the label."""
    return _build((w, 1) for w in distinct_permutations(_check_label(pi)))


def p_product(p1: Word, p2: Word) -> Word:
    """Shifted concatenation of labels: the P-basis is multiplicative."""
    return shifted_concat(_check_label(p1), _check_label(p2))


p_mul = extend_bilinear(lambda a, b: Lin.basis(p_product(a, b)))


def p_coproduct(pi: Word) -> Lin:
    """Split the multiset of letters in all ways, parkizing both parts.

    A pick keeps k_v of the m_v copies of each letter v, and both halves
    are read off the counts by `words.parkized_evaluation`.  The picks
    come in lexicographic order, so their complements are the same list
    reversed: each pick's parkized word is formed once and serves as a
    left half and as a right half.
    """
    pi = _check_label(pi)
    ev = evaluation(pi, len(pi))
    letters = range(1, len(pi) + 1)
    halves = [word_of_evaluation(parkized_evaluation(letters, pick))
              for pick in product(*(range(m + 1) for m in ev))]
    return _build(((u, v), 1) for u, v in zip(halves, reversed(halves)))


def m_product(p1: Word, p2: Word) -> Lin:
    """Dual product: convolution of fibers, sorted back to class labels."""
    p1, p2 = _check_label(p1), _check_label(p2)
    return _build((tuple(sorted(c)), 1) for c in convolution(p1, p2))


m_mul = extend_bilinear(m_product)


def m_coproduct(pi: Word) -> Lin:
    """G's coproduct: it deconcatenates at each k with pi[k] == k + 1."""
    return g_coproduct(_check_label(pi))


def m_polynomial(pi: Word, k: int) -> dict[tuple[int, ...], int]:
    """Monomial expansion of the M element in k commuting variables.

    Keys are exponent vectors of length k; every nondecreasing word in
    the parkization fiber over {1..k} contributes one monomial.
    """
    pi = _check_label(pi)
    if k < len(set(pi)):
        raise ValueError("insufficient variables")
    out: dict[tuple[int, ...], int] = {}
    for w in parkization_fiber(pi, k):
        expo = evaluation(w, k)
        out[expo] = out.get(expo, 0) + 1
    return out


def gamma(i: Composition) -> Lin:
    """Sum of the M elements whose evaluation composition is i."""
    return _build((pi, 1) for pi in nondecreasing_parking_functions(sum(i))
                  if evaluation_composition(pi) == tuple(i))


# ---------------------------------------------------------------------------
# ribbon elements

def p_to_r(pi: Word) -> Lin:
    """P in the R-basis: sum over the successor closure of the label."""
    return _build((rho, 1) for rho in successor_closure(_check_label(pi)))


@lru_cache(maxsize=None)
def _r_in_p(n: int) -> dict[Word, Lin]:
    """Moebius inversion of `p_to_r`: the closure of pi is the Boolean
    lattice on the junctions of its evaluation blocks (as in
    `symfun.ribbon_h`), so each sign is (-1) to the number of merges."""
    return {pi: _build((rho, (-1) ** (len(set(pi)) - len(set(rho))))
                       for rho in successor_closure(pi))
            for pi in nondecreasing_parking_functions(n)}


def r_to_p(pi: Word) -> Lin:
    """R in the P-basis: signed sum over the successor closure."""
    pi = _check_label(pi)
    return _r_in_p(len(pi))[pi]


def ribbon_product(p1: Word, p2: Word) -> Lin:
    """Two-term ribbon multiplication as stated: plain and raised
    concatenation.

    The raised term shifts the second label so its letters start at the
    maximum of the first. It reproduces the stated worked example
    `R_11224 R_113 = R_11224668 + R_11224446`, but it is not the ribbon
    product: it disagrees with `ribbon_product_via_p` from total degree 3
    on (first at `R_1 R_12`) and it is not associative, so it is the
    product of no algebra with basis R. `ribbon_product_glued` is the
    two-term law that holds.
    """
    p1, p2 = _check_label(p1), _check_label(p2)
    if not p1 or not p2:
        return Lin.basis(p1 + p2)
    plain = shifted_concat(p1, p2)
    raised = p1 + tuple(x + max(p1) - 1 for x in p2)
    return Lin.basis(plain) + Lin.basis(raised)


def ribbon_product_glued(p1: Word, p2: Word) -> Lin:
    """Two-term ribbon multiplication with the raised term built by
    merging the evaluation blocks that meet at the junction.

    Agrees with `ribbon_product_via_p` on every label pair through total
    degree 7; for the worked pair it gives `R_11224668 + R_11224448`.
    Acceptance criterion 9 checks it against the expansion route.
    """
    p1, p2 = _check_label(p1), _check_label(p2)
    if not p1 or not p2:
        return Lin.basis(p1 + p2)
    plain = shifted_concat(p1, p2)
    ev = list(evaluation(plain, len(plain)))
    junction = len(p1) + p2[0]
    ev[max(p1) - 1] += ev[junction - 1]
    ev[junction - 1] = 0
    return Lin.basis(plain) + Lin.basis(word_of_evaluation(ev))


def ribbon_product_via_p(p1: Word, p2: Word) -> Lin:
    """Reference ribbon multiplication: expand in P, multiply, reexpand."""
    prod = p_mul(r_to_p(p1), r_to_p(p2))
    out = Lin()
    for pi, c in prod.items():
        out += p_to_r(pi).scale(c)
    return out


ribbon_mul = extend_bilinear(ribbon_product_via_p)


# ---------------------------------------------------------------------------
# noncommutative characteristics

def g_series(order: int) -> list[Lin]:
    """Deg(0..order) coefficients of the fixed point g = 1 + sum_n S_n g^n.

    Each coefficient is an integer combination of complete-generator
    words S^I with sum(I) = degree: g_n is the n-th free moment of the
    noncommutative cumulants S_1, S_2, ... (`series.free_moments`).
    """
    one = Lin.basis(())
    return [one] + free_moments([Lin.basis((s,)) for s in range(1, order + 1)],
                                Lin(), one, ns_product)


def g_weighted_coefficient_sum(n: int):
    """Sum of g_n coefficients weighted by multinomials of their labels."""
    total = 0
    for i, c in g_series(n)[n].items():
        total += multinomial(n, i) * c
    return total
