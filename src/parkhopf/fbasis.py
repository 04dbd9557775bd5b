"""The Hopf algebra of parking functions on its fundamental (F) basis.

Labels are parking functions; the product is the shifted shuffle, the
coproduct cuts the word at every position and parkizes both parts, and the
antipode is the alternating block-factorization sum, computed by a
recursion over the prefixes of the word itself (with the convolution
recursion kept alongside as an independent oracle).
"""

from __future__ import annotations

from functools import lru_cache

from .linear import (Lin, _build, extend_bilinear, extend_linear,
                     invert_unitriangular)
from .words import (
    Composition,
    Word,
    connected_factorization,
    descent_composition,
    is_parking,
    parking_list,
    parkize,
    prime_parking_functions,
    shifted_shuffle,
)


def _check_parking(a: Word) -> Word:
    a = tuple(a)
    if not is_parking(a):
        raise ValueError(f"not a parking function: {a}")
    return a


def f_product(a: Word, b: Word) -> Lin:
    """F_a F_b = sum of F over the shifted shuffle of a and b."""
    a, b = _check_parking(a), _check_parking(b)
    return _build((c, 1) for c in shifted_shuffle(a, b))


f_mul = extend_bilinear(f_product)


def f_coproduct(a: Word) -> Lin:
    """Cut at every position; both parts parkized; multiplicities collected."""
    a = _check_parking(a)
    return _build(((parkize(a[:k]), parkize(a[k:])), 1)
                  for k in range(len(a) + 1))


f_comul = extend_linear(f_coproduct)


def f_antipode(a: Word) -> Lin:
    """Alternating sum over the cuts of a into consecutive nonempty blocks.

    S(F_a) = sum of (-1)^k F_pk(b1) ... F_pk(bk) over every factorization
    a = b1 ... bk.  Grouping the terms by their last block a[i:j] gives
    T_0 = 1, T_j = -sum_{i<j} T_i F_pk(a[i:j]) and S(F_a) = T_n: O(n^2)
    shifted shuffles instead of 2^(n-1) chains of products.  Each T_j is
    a plain dict of int coefficients, frozen into a Lin only at the end.
    """
    a = _check_parking(a)
    prefix = [{(): 1}]  # prefix[j] = T_j
    for j in range(1, len(a) + 1):
        acc: dict[Word, int] = {}
        get = acc.get
        for i in range(j):
            block = parkize(a[i:j])
            for u, c in prefix[i].items():
                for w in shifted_shuffle(u, block):
                    acc[w] = get(w, 0) - c
        prefix.append({w: c for w, c in acc.items() if c})
    return _build(prefix[-1].items())


@lru_cache(maxsize=None)
def f_antipode_by_recursion(a: Word) -> Lin:
    """Oracle: unwind the convolution identity m(S(x)id)delta = unit-counit."""
    a = _check_parking(a)
    if not a:
        return Lin.basis(())
    return _build((w, -c) for k in range(len(a))
                  for w, c in f_mul(f_antipode_by_recursion(parkize(a[:k])),
                                    Lin.basis(parkize(a[k:]))).items())


# ---------------------------------------------------------------------------
# the multiplicative basis indexed by maximal connected factorizations

def f_mult_basis(a: Word) -> Lin:
    """Product of the F's of the maximal connected factors of a."""
    a = _check_parking(a)
    out = Lin.basis(())
    for factor in connected_factorization(a):
        out = f_mul(out, Lin.basis(factor))
    return out


@lru_cache(maxsize=None)
def _f_in_mult_basis(n: int) -> dict[Word, Lin]:
    return invert_unitriangular(parking_list(n), f_mult_basis)


# ---------------------------------------------------------------------------
# sums over enumerated classes

def v_element(i: Composition) -> Lin:
    """Product of the prime-class sums, one factor per part."""
    out = Lin.basis(())
    for part in i:
        out = f_mul(out, v_atom(part))
    return out


@lru_cache(maxsize=None)
def v_atom(n: int) -> Lin:
    return _build((a, 1) for a in prime_parking_functions(n))


def eta(x: Lin) -> Lin:
    """Project to quasi-symmetric functions: F_a -> fundamental F of C(a)."""
    return x.map_labels(lambda a: descent_composition(a) if a else ())

