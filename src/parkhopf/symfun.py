"""Symmetric functions, quasi-symmetric functions, and their noncommutative
cousins, at the scale needed for parking-function character computations.

A symmetric function is its h-expansion: a Lin over partition labels, as
QSym and NSym elements are Lins over compositions.  The e family enters by
the alternating convolution recurrence e_n = sum (-1)^(k-1) h_k e_(n-k);
the monomial expansion, needed by the Hall pairing and the map to QSym,
leaves by counting nonnegative-integer matrices with prescribed margins.
On top of that sit the star involution, the characters of the symmetric
group acting on (prime) parking functions, free moment/cumulant
conversions, the Hall pairing, and inclusion-exclusion ribbons.  The star
involution and the conversions are the one free moment-cumulant
recurrence of `series`: over Sym, h_n* is the n-th free moment of the
cumulants (-1)^s e_s; over the rationals, it converts either way.

QSym lives on composition labels (M quasi-shuffle, F by refinement sums,
deconcatenation coproduct); NSym on composition labels (S concatenation,
S <-> R by coarsening sums, commutative image S_n -> h_n).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, lcm
from operator import mul

from .linear import (Lin, _build, _coerce, dual_pairing, extend_bilinear,
                     lin_sum, tensor_map)
from .series import free_cumulants, free_moments
from .words import (
    Composition,
    Partition,
    coarsenings,
    distinct_permutations,
    multinomial,
    partition_of,
    partitions,
    refinements,
)

# ---------------------------------------------------------------------------
# Sym: a symmetric function held as its expansion over the h basis

def _merge(parts1: Partition, parts2: Partition) -> Partition:
    return tuple(sorted(parts1 + parts2, reverse=True))


def h(parts, c=1) -> Lin:
    """c h_parts; parts must be a partition (weakly decreasing, positive)."""
    parts = tuple(parts)
    if any(p < 1 for p in parts) or list(parts) != sorted(parts, reverse=True):
        raise ValueError(f"not a partition: {parts}")
    return Lin.basis(parts, c)


def e(parts, c=1) -> Lin:
    return omega(h(parts, c))


def h_product(a: Lin, b: Lin) -> Lin:
    """Product of h-expansions: labels merge."""
    return _build((_merge(k1, k2), c1 * c2) for k1, c1 in a.items()
                  for k2, c2 in b.items())


def _substitute(x: Lin, image) -> Lin:
    """The algebra map h_n -> image(n), applied to an h-expansion."""
    return lin_sum(reduce(h_product, map(image, lam), Lin.basis((), c))
                   for lam, c in x.items())


@lru_cache(maxsize=None)
def _e_in_h(n: int) -> Lin:
    """e_n expanded over h-partition labels via e_n = sum (-1)^(k-1) h_k e_(n-k)."""
    if n == 0:
        return Lin.basis(())
    return _build((_merge(lam, (k,)), c if k % 2 else -c) for k in range(1, n + 1)
                  for lam, c in _e_in_h(n - k).items())


# -- h -> m -----------------------------------------------------------------

def _bounded_vectors(total: int, bounds):
    """All nonnegative integer vectors below bounds with the given sum."""
    if not bounds:
        if total == 0:
            yield ()
        return
    for first in range(min(total, bounds[0]) + 1):
        for rest in _bounded_vectors(total - first, bounds[1:]):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _margin_matrix_count(rows: Partition, cols: tuple[int, ...]) -> int:
    """Nonnegative integer matrices with the given row and column sums."""
    if not rows:
        return 1 if not any(cols) else 0
    total = 0
    for alloc in _bounded_vectors(rows[0], cols):
        residual = tuple(sorted((c - a for c, a in zip(cols, alloc)), reverse=True))
        total += _margin_matrix_count(rows[1:], residual)
    return total


def _h_label_in_m(lam: Partition) -> Lin:
    return _build((mu, _margin_matrix_count(lam, mu)) for mu in partitions(sum(lam)))


def in_m(x: Lin) -> Lin:
    """Expansion over the monomial basis, by margin counts."""
    return lin_sum(_h_label_in_m(lam).scale(c) for lam, c in x.items())


def omega(x: Lin) -> Lin:
    """The involution swapping the e and h generator families."""
    return _substitute(x, _e_in_h)


# ---------------------------------------------------------------------------
# the star involution

@lru_cache(maxsize=None)
def h_star(n: int) -> Lin:
    """Image of h_n under the star involution.  H*(t) = E(-t H*(t)), so
    h_n* is the n-th free moment of the cumulants r_s = (-1)^s e_s."""
    if n == 0:
        return Lin.basis(())
    rs = [_e_in_h(s).scale((-1) ** s) for s in range(1, n + 1)]
    return free_moments(rs, Lin(), Lin.basis(()), h_product)[-1]


def star(x: Lin) -> Lin:
    """Algebra endomorphism determined by h_n -> h_n*; an involution."""
    return _substitute(x, h_star)


@lru_cache(maxsize=None)
def e_star(n: int) -> Lin:
    return star(e((n,)) if n else Lin.basis(()))


# ---------------------------------------------------------------------------
# characters of the symmetric group on parking functions

def prime_characteristic(n: int) -> Lin:
    """Frobenius characteristic of the action on prime parking functions."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    return omega(-e_star(n))


def kreweras_count(lam: Partition, size: int) -> int:
    """size! / ((size - l + 1)! prod m_i!) for lam with l parts, m_i of them
    equal to i; 0 when l > size + 1.  At size = |lam| it counts the
    nondecreasing parking functions of evaluation type lam (see `nc_moment`),
    at size = |lam| - 2 the prime ones: the h_lam coefficient of f_|lam|."""
    if len(lam) > size + 1:
        return 0
    out = factorial(size) // factorial(size - len(lam) + 1)
    for m in Counter(lam).values():
        out //= factorial(m)
    return out


def type_characteristic(i: Composition) -> Lin:
    """Character of the action on parking functions of a given type."""
    return reduce(h_product, map(prime_characteristic, i), Lin.basis(()))


def parking_characteristic(n: int) -> Lin:
    """Character of the action on parking functions: h_lam once per orbit,
    that is per nondecreasing parking function of evaluation type lam."""
    return _build((lam, kreweras_count(lam, n)) for lam in partitions(n))


def prime_eval_count(lam) -> int:
    """Number of prime parking functions whose sorted evaluation equals lam.

    Closed form: the orbit count ``kreweras_count(lam, n - 2)`` times the
    number of rearrangements of any word with that evaluation.
    """
    lam = partition_of(lam)
    n = sum(lam)
    if n < 1:
        raise ValueError("empty partition")
    if n == 1:
        return 1
    return kreweras_count(lam, n - 2) * multinomial(n, lam)


# ---------------------------------------------------------------------------
# ribbons and the Hall pairing

def ribbon_h(j: Composition) -> Lin:
    """Inclusion-exclusion ribbon r_J over the h basis."""
    j = tuple(j)
    return _build((partition_of(k), (-1) ** (len(j) - len(k)))
                  for k in coarsenings(j))


def hall_pairing(x: Lin, y: Lin) -> int | Fraction:
    """Bilinear pairing with <h_lam, m_mu> = delta."""
    return dual_pairing(x, in_m(y))


# ---------------------------------------------------------------------------
# moments and free cumulants, by the recurrence of `series`

def _to_fracs(seq) -> list[Fraction]:
    """Exact terms: a float raises the TypeError a Lin coefficient would."""
    return [Fraction(_coerce(x)) for x in seq]


def _over_int(solve, seq) -> list[Fraction]:
    """`solve` (`free_cumulants` or `free_moments`) of seq, run over int.

    m_k and r_k both have weight k: every term of the recurrence for the
    k-th entry is a product of entries whose indices sum to k.  So with D
    the lcm of the denominators, x_k D^k is an integer on both sides, the
    recurrence holds for the scaled entries unchanged, and each result is
    read back as x_k / D^k, with no gcd before the last step.
    """
    terms = _to_fracs(seq)
    d = lcm(*(x.denominator for x in terms))
    scaled, power = [], 1
    for x in terms:
        scaled.append(x.numerator * (d // x.denominator) * power)
        power *= d
    out, power = [], 1
    for x in solve(scaled, 0, 1, mul):
        power *= d
        out.append(Fraction(x, power))
    return out


def moments_to_cumulants(moments) -> list[Fraction]:
    """Free cumulants r_1..r_n of the moments m_1..m_n."""
    return _over_int(free_cumulants, moments)


def cumulants_to_moments(cumulants) -> list[Fraction]:
    """Moments m_1..m_n of the free cumulants r_1..r_n."""
    return _over_int(free_moments, cumulants)


def nc_moment(cumulants, n: int) -> Fraction:
    """Moment oracle: m_n = sum over lam |- n of the product of the r_(lam_i)
    times kreweras_count(lam, n) = n! / ((n - l + 1)! prod m_i!), for lam
    with l parts, m_i of them equal to i: the number of noncrossing
    partitions of [n] of block type lam (Kreweras, "Sur les partitions non
    croisées d'un cycle", 1972; Nica–Speicher, Lectures on the Combinatorics
    of Free Probability, Lecture 9)."""
    rs = _to_fracs(cumulants)
    total = Fraction(0)
    for lam in partitions(n):
        term = Fraction(kreweras_count(lam, n))
        for p in lam:
            term *= rs[p - 1]
        total += term
    return total


# ---------------------------------------------------------------------------
# QSym on composition labels

@lru_cache(maxsize=None)
def quasi_shuffle(i: Composition, j: Composition) -> Lin:
    if not i:
        return Lin.basis(tuple(j))
    if not j:
        return Lin.basis(tuple(i))
    return lin_sum((
        quasi_shuffle(i[1:], j).map_labels(lambda k: (i[0],) + k),
        quasi_shuffle(i, j[1:]).map_labels(lambda k: (j[0],) + k),
        quasi_shuffle(i[1:], j[1:]).map_labels(lambda k: (i[0] + j[0],) + k)))


qs_m_product = extend_bilinear(quasi_shuffle)


def qs_f_to_m(x: Lin) -> Lin:
    return _build((j, c) for i, c in x.items() for j in refinements(i))


def qs_m_to_f(x: Lin) -> Lin:
    return _build((j, c * (-1) ** (len(j) - len(i)))
                  for i, c in x.items() for j in refinements(i))


def qs_f_product(x: Lin, y: Lin) -> Lin:
    return qs_m_to_f(qs_m_product(qs_f_to_m(x), qs_f_to_m(y)))


def qs_m_coproduct(x: Lin) -> Lin:
    return _build(((i[:k], i[k:]), c) for i, c in x.items()
                  for k in range(len(i) + 1))


def qs_f_coproduct(x: Lin) -> Lin:
    m_to_f = lambda i: qs_m_to_f(Lin.basis(i))
    return tensor_map(m_to_f, m_to_f)(qs_m_coproduct(qs_f_to_m(x)))


def sym_to_qsym_m(x: Lin) -> Lin:
    """Expand over QSym monomials: m_lam -> sum of its distinct rearrangements."""
    return _build((alpha, c) for lam, c in in_m(x).items()
                  for alpha in distinct_permutations(lam))


# ---------------------------------------------------------------------------
# NSym on composition labels

ns_product = extend_bilinear(lambda i, j: Lin.basis(tuple(i) + tuple(j)))


def ns_image(x: Lin) -> Lin:
    """Commutative image S_n -> h_n of an S-basis element."""
    return x.map_labels(partition_of)
