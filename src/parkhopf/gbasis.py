"""Dual Hopf algebra of parking functions in the G-basis.

G_a is dual to F_a.  Multiplication is convolution of parkization
fibers, comultiplication cuts at breakpoints, and both admit slow
oracles obtained by dualizing the F-basis structure maps.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, combinations_with_replacement
from math import comb
from operator import ge

from .fbasis import _f_in_mult_basis, f_coproduct
from .linear import (Lin, _build, _freeze, extend_bilinear, extend_linear,
                     invert_unitriangular)
from .words import (
    Word,
    breakpoints,
    connected_counts,
    connected_factorization,
    inverse_permutation,
    mirror,
    nondecreasing_parking_functions,
    parking_list,
    shifted_shuffle,
    standardize,
)


def parkization_fiber(a: Word, m: int) -> list[Word]:
    """All words over {1..m} whose parkization is a.

    Parkization keeps the order pattern of a word and closes only the gaps
    it must.  Walk the distinct values of a upward: a value at its cap (one
    plus the number of letters below it) may sit any distance above its
    predecessor in a fiber word, and every other gap is copied exactly.  So
    a fiber word is a with each value raised by the shift of the last capped
    value at or below it; the shifts are nondecreasing and keep the top
    value <= m.
    """
    a = tuple(a)
    if not a:
        return [()] if m >= 0 else []
    values = sorted(set(a))
    capped, owner, below = -1, [], 0  # owner[j]: last capped value <= values[j]
    for v in values:
        if not 1 <= v <= below + 1:
            return []  # a is not a parking word
        capped += v == below + 1
        owner.append(capped)
        below += a.count(v)
    out = []
    for shift in combinations_with_replacement(range(m - values[-1] + 1),
                                               capped + 1):
        relabel = {v: v + shift[j] for v, j in zip(values, owner)}
        out.append(tuple(relabel[x] for x in a))
    return sorted(out)


def _counts_up_to(w: Word, n: int) -> list[int]:
    """[#{letters of w <= b} for b = 1..n]."""
    counts = [0] * (n + 1)
    for x in w:
        counts[x] += 1
    return list(accumulate(counts))[1:]


def _counted_fiber(a: Word, n: int) -> list[tuple[Word, list[int]]]:
    """The fiber of a over {1..n}, n >= len(a), each word with its
    `_counts_up_to` row; it is empty only when a does not park."""
    fiber = parkization_fiber(a, n)
    if not fiber:
        raise ValueError(f"not a parking function: {tuple(a)}")
    return [(w, _counts_up_to(w, n)) for w in fiber]


def _parking_tails(have: list[int], counted: list) -> list[Word]:
    """The words v of a counted fiber with u.v parking, for u with counts
    row `have`: #{letters of v <= b} >= b - #{letters of u <= b} for
    every b."""
    need = [b - c for b, c in enumerate(have, start=1)]
    return [v for v, got in counted if all(map(ge, got, need))]


def convolution(a1: Word, a2: Word) -> list[Word]:
    """Parking words u.v with parkize(u) = a1 and parkize(v) = a2, sorted.

    The fiber of a2 is made once with its counts; u's fiber is sorted and
    u has a fixed length, so the words come out in order.
    """
    n = len(a1) + len(a2)
    fiber_u = _counted_fiber(a1, n)
    fiber_v = _counted_fiber(a2, n)
    return [u + v for u, have in fiber_u for v in _parking_tails(have, fiber_v)]


def g_product(a1: Word, a2: Word) -> Lin:
    return _build((c, 1) for c in convolution(a1, a2))


g_mul = extend_bilinear(g_product)


def g_product_by_duality(a1: Word, a2: Word) -> Lin:
    """Slow route: read the structure constants off the F-coproduct."""
    n = len(a1) + len(a2)
    return _build((c, f_coproduct(c).coeff((a1, a2))) for c in parking_list(n))


def g_coproduct(a: Word) -> Lin:
    """Cut at breakpoints: letters <= b to the left, the rest shifted down."""
    a = tuple(a)
    return _build(chain([(((), a), 1)],
                        (((tuple(x for x in a if x <= b),
                           tuple(x - b for x in a if x > b)), 1)
                         for b in breakpoints(a))))


g_comul = extend_linear(g_coproduct)


@lru_cache(maxsize=None)
def _unshuffle_table(n: int) -> dict[Word, Lin]:
    """Slow coproduct: dualize the shifted-shuffle product degreewise."""
    terms: dict[Word, list] = {a: [] for a in parking_list(n)}
    for k in range(n + 1):
        for b in parking_list(k):
            for c in parking_list(n - k):
                for w in shifted_shuffle(b, c):
                    terms[w].append(((b, c), 1))
    return {a: _build(ts) for a, ts in terms.items()}


def g_coproduct_by_unshuffle(a: Word) -> Lin:
    return _unshuffle_table(len(a))[tuple(a)]


@lru_cache(maxsize=None)
def _g_antipode(a: Word) -> Lin:
    """S(G_a) = -sum of S(G_u) G_v over the cuts (u, v) of a with u != a.

    The products are summed from the convolution words themselves: v's
    counted fiber is made once per cut, and each term d G_x of S(G_u)
    adds -d G_w for every parking w = x'.v' with x' in x's fiber and v' in
    v's.
    """
    if not a:
        return Lin.basis(())
    n = len(a)
    acc = {}
    get = acc.get
    for (u, v), c in g_coproduct(a).items():
        if len(u) == n:
            continue
        fiber_v = _counted_fiber(v, n)
        for x, d in _g_antipode(u).items():
            term = -c * d
            for xu, have in _counted_fiber(x, n):
                for xv in _parking_tails(have, fiber_v):
                    w = xu + xv
                    acc[w] = get(w, 0) + term
    return _freeze(acc)


# antipode via the defining convolution recursion
g_antipode_lin = extend_linear(_g_antipode)


@lru_cache(maxsize=None)
def _by_standardization(n: int) -> dict[Word, tuple[Word, ...]]:
    """The parking functions of length n grouped by standardization, each
    group in lexicographic order."""
    groups: dict[Word, list[Word]] = {}
    for a in parking_list(n):
        groups.setdefault(standardize(a), []).append(a)
    return {p: tuple(g) for p, g in groups.items()}


def phi(sigma: Word) -> Lin:
    """Embedding of a permutation: sum of G_a over std(a) = sigma^{-1}."""
    sigma = tuple(sigma)
    group = _by_standardization(len(sigma)).get(inverse_permutation(sigma), ())
    return _build((a, 1) for a in group)


def g_mult_basis(x: Word) -> Lin:
    """Expand the multiplicative basis element indexed by x into G.

    Mirror x, factor into connected pieces, then multiply the mirrored
    factors back in reverse order.
    """
    a = mirror(x)
    factors = connected_factorization(a)
    out = Lin.basis(())
    for f in reversed(factors):
        out = g_mul(out, Lin.basis(mirror(f)))
    return out


@lru_cache(maxsize=None)
def _g_in_mult_basis(n: int) -> dict[Word, Lin]:
    return invert_unitriangular(parking_list(n), g_mult_basis)


def st_dual_bases(n: int) -> tuple[dict[Word, Lin], dict[Word, Lin]]:
    """Bases dual to the two multiplicative bases in degree n.

    Returns (S, T): S[b] expands in G the functional dual to the
    F-multiplicative basis, T[b] does the same in F for the G side.
    Each is the transpose of the inverse table: S[b] = sum_c inv_f[c][b] G_c.
    """
    labels = parking_list(n)
    return (_transpose(labels, _f_in_mult_basis(n)),
            _transpose(labels, _g_in_mult_basis(n)))


def _transpose(labels: tuple[Word, ...], table: dict[Word, Lin]) -> dict[Word, Lin]:
    columns: dict[Word, list] = {b: [] for b in labels}
    for c in labels:
        for b, v in table[c].items():
            columns[b].append((c, v))
    return {b: _build(ts) for b, ts in columns.items()}


def lie_generator_series(order: int) -> list[int]:
    """Coefficients 1..order of 1 - prod_n (1 - t^n)^{c_n}.

    The exponents c_n count connected parking functions; the result
    counts a free generating set degree by degree.
    """
    c = connected_counts(order)
    prod = [1] + [0] * order
    for n in range(1, order + 1):
        # times (1 - t^n)^{c_n} = sum_k (-1)^k C(c_n, k) t^(nk), truncated
        prod = [sum((-1) ** k * comb(c[n - 1], k) * prod[m - n * k]
                    for k in range(m // n + 1))
                for m in range(order + 1)]
    return [-prod[k] for k in range(1, order + 1)]


def eta_star(n: int) -> Lin:
    """Image of the degree-n complete function: sum of nondecreasing G_a."""
    return _build((a, 1) for a in nondecreasing_parking_functions(n))
