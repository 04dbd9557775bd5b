"""Verification suites: worked-example replays, Hopf axioms, dualities,
count tables, and cross-route equivalence checks, plus the thirteen
acceptance gates built from them.

It also holds the second routes (oracles) that its checks compare the
production routes against, each just above the first check that reads
it; no production route calls them.

Every check returns (ok, detail) and never raises on mathematical
failure; the detail carries the first counterexample found.  A check run
at degree d forms objects of total degree at most d; a few cheap checks
run at a fixed d + k, and the worked examples at their own degree.
"""
from __future__ import annotations

import io
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, combinations, permutations, product
from math import prod
from operator import add, itemgetter, sub

from . import catalan, cli, fbasis, gbasis, matrices, schroder, symfun, words
from .algebras import ANTIPODE, COMUL, LABELS, MUL, SUITES
from .linear import (Lin, _build, dual_pairing, extend_bilinear,
                     extend_linear, lin_sum, tensor, tensor_map, tensor_mul)

OK = (True, "ok")


def _w(s: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in s)


def _flin(*ws: str) -> Lin:
    return lin_sum(Lin.basis(_w(s)) for s in ws)


def _fail(msg: str) -> tuple[bool, str]:
    return False, msg


def _diff(tag: str, got, want) -> tuple[bool, str]:
    if got == want:
        return OK
    return _fail(f"{tag}: got {got!r}, want {want!r}")


def _perms(n: int):
    return permutations(range(1, n + 1))


def _graded(basis):
    """The degree -> labels function of a basis name, or basis itself when
    it is such a function (`_perms`, `words.compositions`)."""
    return LABELS[basis] if isinstance(basis, str) else basis


def _upto(basis, top: int):
    """Labels of the basis in degrees 1..top, degree by degree."""
    for n in range(1, top + 1):
        yield from _graded(basis)(n)


def _pairs(basis, total: int, right=None):
    """Label pairs of positive degrees with degree sum at most total; the
    second label is of the basis `right` when it is given."""
    for na in range(1, total):
        for nb in range(1, total - na + 1):
            yield from product(_graded(basis)(na), _graded(right or basis)(nb))


def _triples(basis: str, total: int):
    """Label triples of positive degrees with degree sum at most total."""
    for na in range(1, total - 1):
        for nb in range(1, total - na):
            for nc in range(1, total - na - nb + 1):
                yield from product(LABELS[basis](na), LABELS[basis](nb),
                                   LABELS[basis](nc))


# ---------------------------------------------------------------------------
# worked-example replays

# Each worked example that is one command is stated once, as its command
# line and the text the command prints, and replayed through the CLI.
EXAMPLES = {
    "f-product": ("mul --basis F 12 11",
                  "F_1233 + F_1323 + F_1332 + F_3123 + F_3132 + F_3312"),
    "f-coproduct": ("comul 3132",
                    "1 (x) F_3132 + F_1 (x) F_132 + F_21 (x) F_21 "
                    "+ F_212 (x) F_1 + F_3132 (x) 1"),
    "f-antipode": ("antipode 122", "F_212 - F_213 + F_221 - F_231 - F_321"),
    "g-product": ("mul --basis G 12 11",
                  "G_1211 + G_1222 + G_1233 + G_1311 + G_1322 + G_1411 "
                  "+ G_1422 + G_2311 + G_2411 + G_3411"),
    "g-coproduct": ("comul --basis G 41252",
                    "1 (x) G_41252 + G_1 (x) G_3141 + G_122 (x) G_12 "
                    "+ G_4122 (x) G_1 + G_41252 (x) 1"),
    "p-coproduct": ("comul --basis P 1124",
                    "1 (x) P^1124 + P^1 (x) P^112 + P^1 (x) P^113 "
                    "+ P^1 (x) P^123 + P^11 (x) P^12 + P^12 (x) P^11 "
                    "+ 2*P^12 (x) P^12 + P^112 (x) P^1 + P^113 (x) P^1 "
                    "+ P^123 (x) P^1 + P^1124 (x) 1"),
    "m-product": ("mul --basis M 12 11",
                  "M_1112 + M_1113 + M_1114 + M_1123 + M_1124 + M_1134 "
                  "+ M_1222 + M_1223 + M_1224 + M_1233"),
}


def _replay(name: str, d: int) -> tuple[bool, str]:
    argv, want = EXAMPLES[name]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv.split())
    if code != 0:
        return _fail(f"`parkhopf {argv}` exited {code}: {err.getvalue().strip()}")
    return _diff(f"`parkhopf {argv}`", out.getvalue().rstrip("\n"), want)


def check_example_parkization(d: int) -> tuple[bool, str]:
    got = words.parkize((3, 5, 1, 1, 11, 8, 8, 2))
    return _diff("parkization", got, (3, 5, 1, 1, 8, 6, 6, 2))


def check_example_nc_bijection(d: int) -> tuple[bool, str]:
    blocks = ((1, 3), (2,), (4, 5))
    if words.word_of_nc(blocks) != (1, 1, 2, 4, 4):
        return _fail("blocks 13|2|45 do not map to 11244")
    got = tuple(sorted(tuple(sorted(b)) for b in words.nc_of_parking((4, 2, 1, 4, 1))))
    return _diff("non-crossing partition of 42141", got, blocks)


def check_example_m_polynomials(d: int) -> tuple[bool, str]:
    k = 5

    def mono(*pairs) -> dict[tuple[int, ...], int]:
        out = {}
        for expo in pairs:
            out[tuple(expo)] = out.get(tuple(expo), 0) + 1
        return out

    def e(**kw) -> tuple[int, ...]:
        v = [0] * k
        for var, p in kw.items():
            v[int(var[1:]) - 1] += p
        return tuple(v)

    cases = {
        (1, 1, 1): mono(*(e(**{f"x{i}": 3}) for i in range(1, k + 1))),
        (1, 1, 2): mono(*(
            tuple(2 - (j - i) if j in (i, i + 1) else 0 for j in range(1, k + 1))
            for i in range(1, k)
        )),
        (1, 1, 3): mono(*(
            tuple(2 if j == i else 1 if j == m else 0 for j in range(1, k + 1))
            for i in range(1, k + 1) for m in range(i + 2, k + 1)
        )),
        (1, 2, 2): mono(*(
            tuple(1 if j == i else 2 if j == m else 0 for j in range(1, k + 1))
            for i in range(1, k + 1) for m in range(i + 1, k + 1)
        )),
        (1, 2, 3): mono(*(
            tuple(1 if j in (i, m, p) else 0 for j in range(1, k + 1))
            for i in range(1, k + 1) for m in range(i + 1, k + 1)
            for p in range(m + 1, k + 1)
        )),
    }
    for pi, want in cases.items():
        got = catalan.m_polynomial(pi, k)
        if got != want:
            return _fail(f"monomial expansion of M_{pi} in {k} variables wrong")
    return OK


def check_example_successors(d: int) -> tuple[bool, str]:
    got = words.successors((1, 1, 3, 3, 4, 6))
    want = ((1, 1, 1, 1, 4, 6), (1, 1, 3, 3, 3, 6), (1, 1, 3, 3, 4, 4))
    return _diff("successors of 113346", got, want)


def check_example_ribbon_product(d: int) -> tuple[bool, str]:
    got = catalan.ribbon_product((1, 1, 2, 2, 4), (1, 1, 3))
    want = _flin("11224668", "11224446")
    return _diff("R_11224 R_113", got, want)


def check_example_matrices(d: int) -> tuple[bool, str]:
    m = ((0, 1, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0))
    if matrices.reading(m) != (2, 3, 1, 2):
        return _fail("matrix reading of a 3x4 example wrong")
    got = set(matrices.word_matrices((1, 2, 2)))
    want = {((1, 1, 0), (0, 1, 0)),
            ((1, 0, 0), (0, 1, 0), (0, 1, 0))}
    return _diff("matrix spread of 122", got, want)


def check_example_g_power(d: int) -> tuple[bool, str]:
    got = gbasis.g_mul(gbasis.g_mul(Lin.basis((1,)), Lin.basis((1,))),
                       Lin.basis((1,)))
    want = lin_sum(Lin.basis(a) for a in words.parking_list(3))
    return _diff("cube of G_1", got, want)


# ---------------------------------------------------------------------------
# Hopf axioms

# Each axiom is written once, for a basis of the tables in `algebras`, and
# checked on the labels (or tuples of labels) it is given.

def associative(basis: str, triples) -> tuple[bool, str]:
    mul, op = extend_bilinear(MUL[basis]), MUL[basis]
    for a, b, c in triples:
        if mul(op(a, b), Lin.basis(c)) != mul(Lin.basis(a), op(b, c)):
            return _fail(f"{basis}: associativity fails at {a},{b},{c}")
    return OK


def commutative(basis: str, pairs) -> tuple[bool, str]:
    op = MUL[basis]
    for a, b in pairs:
        if op(a, b) != op(b, a):
            return _fail(f"{basis}: product not commutative at {a},{b}")
    return OK


def coassociative(basis: str, labels) -> tuple[bool, str]:
    op = COMUL[basis]
    for a in labels:
        t = op(a)
        left = tensor_map(op, Lin.basis)(t).map_labels(
            lambda x: (*x[0], x[1]))
        right = tensor_map(Lin.basis, op)(t).map_labels(
            lambda x: (x[0], *x[1]))
        if left != right:
            return _fail(f"{basis}: coassociativity fails at {a}")
    return OK


def cocommutative(basis: str, labels) -> tuple[bool, str]:
    for a in labels:
        t = COMUL[basis](a)
        if t != t.map_labels(lambda uv: (uv[1], uv[0])):
            return _fail(f"{basis}: coproduct of {a} not cocommutative")
    return OK


def counit(basis: str, labels) -> tuple[bool, str]:
    """(counit x id) and (id x counit) of the coproduct give back the label;
    the counit keeps the coefficient of the unit label."""
    (unit,) = LABELS[basis](0)
    for a in labels:
        t = COMUL[basis](a)
        left = lin_sum(Lin.basis(v, c) for (u, v), c in t.items() if u == unit)
        right = lin_sum(Lin.basis(u, c) for (u, v), c in t.items() if v == unit)
        if left != Lin.basis(a) or right != Lin.basis(a):
            return _fail(f"{basis}: counit axiom fails at {a}")
    return OK


def compatible(basis: str, pairs) -> tuple[bool, str]:
    """The coproduct of a product is the product of the coproducts."""
    op, delta = MUL[basis], COMUL[basis]
    comul, dmul = extend_linear(delta), tensor_mul(op)
    for a, b in pairs:
        if comul(op(a, b)) != dmul(delta(a), delta(b)):
            return _fail(f"{basis}: bialgebra compatibility fails at {a},{b}")
    return OK


def antipode_identity(basis: str, labels) -> tuple[bool, str]:
    """m(S x id)delta and m(id x S)delta vanish on labels of positive degree.

    S(a) is formed once per label: the left half reads it at the cut
    (a, 1) and the right half at (1, a); every other cut calls S.
    """
    mul, s = extend_bilinear(MUL[basis]), ANTIPODE[basis]
    for a in labels:
        t, sa = COMUL[basis](a), s(a)
        left = lin_sum(mul(sa if u == a else s(u), Lin.basis(v)).scale(c)
                       for (u, v), c in t.items())
        right = lin_sum(mul(Lin.basis(u), sa if v == a else s(v)).scale(c)
                        for (u, v), c in t.items())
        if left or right:
            return _fail(f"{basis}: antipode convolution identity fails at {a}")
    return OK


# A map between two algebras is checked the same way: `phi` sends a source
# label to a target element and is extended linearly; `tag` is the failure
# message with one `{}` per component of the first bad input.

def multiplicative(tag: str, phi, src, dst, pairs) -> tuple[bool, str]:
    """phi(a b) = phi(a) phi(b): `src` multiplies two source labels, `dst`
    two target elements."""
    ext = extend_linear(phi)
    for a, b in pairs:
        if ext(src(a, b)) != dst(phi(a), phi(b)):
            return _fail(tag.format(a, b))
    return OK


def comultiplicative(tag: str, phi, src, dst, labels) -> tuple[bool, str]:
    """(phi x phi) of the coproduct is the coproduct of phi: `src` is the
    source coproduct of a label, `dst` the target coproduct of an element."""
    both = tensor_map(phi, phi)
    for a in labels:
        if both(src(a)) != dst(phi(a)):
            return _fail(tag.format(a))
    return OK


def agree(tag: str, f, g, inputs) -> tuple[bool, str]:
    """Two routes to one object give the same value on every input."""
    for x in inputs:
        if f(x) != g(x):
            return _fail(tag.format(x))
    return OK


def _sampled(seed: int, arity: int):
    """Five seeded tuples of parking functions of total degree 5: the
    degrees are drawn first, then one word of each degree."""
    rng = random.Random(seed)
    out = []
    for _ in range(5):
        sizes = []
        for rest in range(arity - 1, 0, -1):
            sizes.append(rng.randint(1, 5 - sum(sizes) - rest))
        sizes.append(5 - sum(sizes))
        out.append(tuple(rng.choice(LABELS["F"](k)) for k in sizes))
    return out


def check_f_associative(d: int) -> tuple[bool, str]:
    return associative("F", chain(_triples("F", d),
                                  _sampled(20260814, 3)))


def check_f_coassociative(d: int) -> tuple[bool, str]:
    return coassociative("F", _upto("F", d))


def check_f_compatible(d: int) -> tuple[bool, str]:
    return compatible("F", chain(_pairs("F", d), _sampled(7, 2)))


def check_f_counit(d: int) -> tuple[bool, str]:
    return counit("F", _upto("F", d))


def check_f_antipode_axiom(d: int) -> tuple[bool, str]:
    return antipode_identity("F", _upto("F", d))


def check_g_compatible(d: int) -> tuple[bool, str]:
    return compatible("G", _pairs("G", d))


def check_p_cocommutative(d: int) -> tuple[bool, str]:
    return cocommutative("P", _upto("P", d))


def check_p_compatible(d: int) -> tuple[bool, str]:
    return compatible("P", _pairs("P", d))


# ---------------------------------------------------------------------------
# duality

def check_duality_adjoint(d: int) -> tuple[bool, str]:
    """<G_a G_b, F_c> = <G_a (x) G_b, Delta F_c> and <Delta G_c, F_a (x) F_b>
    = <G_c, F_a F_b>: each degree n reads every side once, into one table
    over the triples (a, b, c) with a, b nonempty and |a| + |b| = |c| = n."""
    for n in range(2, d + 1):
        split = [(a, b) for a, b in _pairs("F", n) if len(a) + len(b) == n]
        for tag, mul, comul in (
                ("product/coproduct", gbasis.g_product, fbasis.f_coproduct),
                ("coproduct/product", fbasis.f_product, gbasis.g_coproduct)):
            x = _build(((a, b, c), k) for a, b in split
                       for c, k in mul(a, b).items())
            y = _build(((a, b, c), k) for c in LABELS["F"](n)
                       for (a, b), k in comul(c).items() if a and b)
            if x != y:
                a, b, c = min((x - y).labels())
                return _fail(f"{tag} adjointness fails at {a},{b},{c}")
    return OK


def check_duality_unshuffle(d: int) -> tuple[bool, str]:
    return agree("breakpoint coproduct differs from unshuffle at {}",
                 gbasis.g_coproduct, gbasis.g_coproduct_by_unshuffle,
                 _upto("F", d))


def _dual_rows(dual: dict, labels, expand) -> dict:
    """Row x of the matrix of pairings <dual[b], expand(x)> over the labels
    b, for every label x: each expand(x) is mapped once through an index
    of the dual table by the labels of its terms."""
    index: dict = {}
    for b in labels:
        for c, v in dual[b].items():
            index.setdefault(c, []).append((b, v))
    return {x: _build((b, v * w) for c, w in expand(x).items()
                      for b, v in index.get(c, ()))
            for x in labels}


def check_duality_st_bases(d: int) -> tuple[bool, str]:
    """S P = I and T Q = I in every degree n <= d, where P and Q expand the
    two multiplicative bases and S and T are their dual tables; the first
    bad pairing (b, x) in label order is reported."""
    for n in range(1, d + 1):
        labels = LABELS["F"](n)
        s, t = gbasis.st_dual_bases(n)
        bad = [(b, x, tag) for tag, dual, expand in (
                   ("S", s, fbasis.f_mult_basis), ("T", t, gbasis.g_mult_basis))
               for x, row in _dual_rows(dual, labels, expand).items()
               for b in (row - Lin.basis(x)).labels()]
        if bad:
            b, x, tag = min(bad)
            return _fail(f"{tag} basis not dual to products at {b},{x}")
    return OK


def check_classic_convolution(d: int) -> tuple[bool, str]:
    for sig, tau in _pairs(_perms, d):
        na, n = len(sig), len(sig) + len(tau)
        got = _build((c, coef) for c, coef in gbasis.g_product(sig, tau).items()
                     if sorted(c) == list(range(1, n + 1)))
        want = lin_sum(Lin.basis(c) for c in _perms(n)
                       if words.standardize(c[:na]) == sig
                       and words.standardize(c[na:]) == tau)
        if got != want:
            return _fail(f"permutation convolution fails at {sig},{tau}")
    return OK


def _deconcatenate(sig) -> Lin:
    """Coproduct of the permutation algebra: standardized cuts."""
    return _build(((words.standardize(sig[:k]), words.standardize(sig[k:])), 1)
                  for k in range(len(sig) + 1))


def check_phi_morphism(d: int) -> tuple[bool, str]:
    products = multiplicative("phi product fails at {},{}", gbasis.phi,
                              fbasis.f_product, gbasis.g_mul,
                              _pairs(_perms, d))
    return products if not products[0] else comultiplicative(
        "phi coproduct fails at {}", gbasis.phi, _deconcatenate,
        gbasis.g_comul, _upto(_perms, d))


def check_g_ones_power(d: int) -> tuple[bool, str]:
    acc = Lin.basis(())
    for n in range(1, d + 1):
        acc = gbasis.g_mul(acc, Lin.basis((1,)))
        want = lin_sum(Lin.basis(a) for a in words.parking_list(n))
        if acc != want:
            return _fail(f"power {n} of G_1 is not the full class sum")
    return OK


# ---------------------------------------------------------------------------
# counts

PRINTED_CONNECTED = (1, 2, 11, 92, 1014, 13795, 223061, 4180785,
                     89191196, 2135610879, 56749806356, 1658094051392)
PRINTED_LIE = (1, 2, 9, 80, 901, 12564)
PRINTED_SCHRODER = (1, 1, 3, 11, 45, 197, 903)


def check_counts_parking(d: int) -> tuple[bool, str]:
    for n in range(1, d + 1):
        if sum(1 for _ in words.parking_functions(n)) != words.pf_count(n):
            return _fail(f"parking count differs from closed form at n={n}")
        if sum(1 for _ in words.prime_parking_functions(n)) != words.ppf_count(n):
            return _fail(f"prime count differs from closed form at n={n}")
        if sum(1 for _ in words.nondecreasing_parking_functions(n)) != words.catalan(n):
            return _fail(f"nondecreasing count is not Catalan at n={n}")
    return OK


def check_counts_connected(d: int) -> tuple[bool, str]:
    by_enum = [sum(1 for _ in words.connected_parking_functions(n))
               for n in range(1, d + 1)]
    if by_enum != words.connected_counts(d):
        return _fail(f"connected enumeration gives {by_enum}")
    if tuple(words.connected_counts(len(PRINTED_CONNECTED))) != PRINTED_CONNECTED:
        return _fail("connected closed form differs from the printed series")
    return OK


def check_counts_lie(d: int) -> tuple[bool, str]:
    got = tuple(gbasis.lie_generator_series(d))[:len(PRINTED_LIE)]
    return _diff("free Lie generator counts", got, PRINTED_LIE[:d])


def check_counts_schroder(d: int) -> tuple[bool, str]:
    for n in range(d + 1):
        closed = words.schroder_count(n)
        if n < len(PRINTED_SCHRODER) and closed != PRINTED_SCHRODER[n]:
            return _fail(f"closed-form class count wrong at n={n}")
        if len(schroder.classes(n)) != closed:
            return _fail(f"class enumeration differs from closed form at n={n}")
    return OK


def check_counts_free_dimension(d: int) -> tuple[bool, str]:
    c = words.connected_counts(d)
    dims = [1] + [0] * d
    for n in range(1, d + 1):
        dims[n] = sum(c[k - 1] * dims[n - k] for k in range(1, n + 1))
        if dims[n] != words.pf_count(n):
            return _fail(f"free-generator monomial count wrong at n={n}")
    return OK


def check_counts_type_partition(d: int) -> tuple[bool, str]:
    return agree("type-class sizes do not partition the count at n={}",
                 lambda n: sum(words.multinomial(n, i)
                               * prod((k - 1) ** (k - 1) for k in i)
                               for i in words.compositions(n)),
                 words.pf_count, range(1, d + 1))


# ---------------------------------------------------------------------------
# structural equivalences and cross-route checks

def check_parkize_fixed_points(d: int) -> tuple[bool, str]:
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, d + 2)
        w = tuple(rng.randint(1, n + 2) for _ in range(n))
        p = words.parkize(w)
        if not words.is_parking(p) or words.parkize(p) != p:
            return _fail(f"parkization not idempotent at {w}")
        if words.is_parking(w) and p != w:
            return _fail(f"parkization moved the parking word {w}")
    return OK


def check_nc_roundtrip(d: int) -> tuple[bool, str]:
    for n in range(1, d + 3):
        types = Counter()
        for pi in LABELS["P"](n):
            blocks = words.nc_of_parking(pi)
            if not words.is_noncrossing(blocks):
                return _fail(f"blocks of {pi} cross")
            if words.word_of_nc(blocks) != pi:
                return _fail(f"block round trip fails at {pi}")
            types[words.partition_of(map(len, blocks))] += 1
        for lam in words.partitions(n):
            if types[lam] != symfun.kreweras_count(lam, n):
                return _fail(f"block type count wrong at {lam}")
    return OK


def check_prime_characterizations(d: int) -> tuple[bool, str]:
    """Three characterizations of prime parking functions: a parking word
    of length 2..d is prime exactly when no shifted shuffle of two shorter
    ones makes it; a sorted word of length <= d + 3 is prime exactly when
    it is connected; and the type of every parking word of length <= d + 2
    equals its breakpoint gaps.  So it forms words of degree d + 2 and
    sorted labels of degree d + 3."""
    for n in range(2, d + 1):
        shuffled = set()
        for k in range(1, n):
            for u in words.parking_list(k):
                for v in words.parking_list(n - k):
                    shuffled.update(words.shifted_shuffle(u, v))
        for a in words.parking_list(n):
            if words.is_prime(a) != (a not in shuffled):
                return _fail(f"prime/shuffle characterization fails at {a}")
    for n in range(1, d + 4):
        for pi in LABELS["P"](n):
            if words.is_prime(pi) != words.is_connected(pi):
                return _fail(f"prime/connected disagree on sorted {pi}")
    for n in range(1, d + 3):
        for a in words.parking_functions(n):
            bps = words.breakpoints(a)
            gaps = tuple(map(sub, bps, (0,) + bps))
            if words.prime_type(a) != gaps:
                return _fail(f"type differs from breakpoint gaps at {a}")
    return OK


def check_successor_order(d: int) -> tuple[bool, str]:
    for n in range(1, d + 3):
        labels = LABELS["P"](n)
        for pi in labels:
            for s in words.successors(pi):
                if not words.is_catalan_word(s):
                    return _fail(f"successor {s} of {pi} invalid")
        for pi in labels:
            for rho in words.successor_closure(pi):
                if rho != pi and pi in words.successor_closure(rho):
                    return _fail(f"order not antisymmetric at {pi},{rho}")
    return OK


def check_antipode_routes(d: int) -> tuple[bool, str]:
    return agree("antipode routes disagree at {}", fbasis.f_antipode,
                 fbasis.f_antipode_by_recursion, _upto("F", d))


def check_mult_basis(d: int) -> tuple[bool, str]:
    for n in range(1, d + 1):
        try:
            inv = fbasis._f_in_mult_basis(n)
        except ValueError as exc:
            return _fail(f"product-basis transition at n={n}: {exc}")
        for a in LABELS["F"](n):
            row = fbasis.f_mult_basis(a)
            if row.coeff(a) != 1 or min(row.labels()) != a:
                return _fail(f"product basis not led by its label at {a}")
            back = lin_sum(fbasis.f_mult_basis(x).scale(c)
                           for x, c in inv[a].items())
            if back != Lin.basis(a):
                return _fail(f"product-basis inversion fails at {a}")
        try:
            gbasis._g_in_mult_basis(n)
        except ValueError as exc:
            return _fail(f"dual product-basis transition at n={n}: {exc}")
    return OK


def v_element_by_type(i: words.Composition) -> Lin:
    """Oracle route: sum F_a over parking functions of type i."""
    i = tuple(i)
    return _build((a, 1) for a in words.parking_functions(sum(i))
                  if words.prime_type(a) == i)


def check_v_elements(d: int) -> tuple[bool, str]:
    return agree("type-class sum routes disagree at {}", fbasis.v_element,
                 v_element_by_type, _upto(words.compositions, d))


def pf_sum(n: int) -> Lin:
    return _build((a, 1) for a in words.parking_functions(n))


def ppf_inclusion_exclusion(n: int) -> Lin:
    """Prime-class sum recovered from full-class sums by sign inversion."""
    return lin_sum(reduce(fbasis.f_mul, map(pf_sum, i), Lin.basis(()))
                   .scale(-1 if len(i) % 2 == 0 else 1)
                   for i in words.compositions(n))


def check_prime_inclusion_exclusion(d: int) -> tuple[bool, str]:
    return agree("prime sum by sign inversion fails at n={}",
                 lambda n: lin_sum(Lin.basis(a)
                                   for a in words.prime_parking_functions(n)),
                 ppf_inclusion_exclusion, range(1, d + 1))


def check_eta_morphism(d: int) -> tuple[bool, str]:
    eta = lambda a: fbasis.eta(Lin.basis(a))
    products = multiplicative("descent projection not multiplicative at {},{}",
                              eta, fbasis.f_product, symfun.qs_f_product,
                              _pairs("F", d))
    return products if not products[0] else comultiplicative(
        "descent projection not comultiplicative at {}", eta,
        fbasis.f_coproduct, symfun.qs_f_coproduct, _upto("F", d))


def check_ones_coproduct(d: int) -> tuple[bool, str]:
    return agree("all-ones coproduct fails at n={}",
                 lambda n: fbasis.f_coproduct((1,) * n),
                 lambda n: lin_sum(Lin.basis(((1,) * k, (1,) * (n - k)))
                                   for k in range(n + 1)),
                 range(1, d + 1))


def check_eta_star(d: int) -> tuple[bool, str]:
    def want(i):
        coarser = set(words.coarsenings(i))
        return lin_sum(Lin.basis(a) for a in words.parking_list(sum(i))
                       if words.descent_composition(a) in coarser)

    return agree("dual descent embedding fails at {}",
                 lambda i: reduce(gbasis.g_mul, map(gbasis.eta_star, i),
                                  Lin.basis(())),
                 want, _upto(words.compositions, d))


def _evaluation_partition(a) -> words.Partition:
    return words.partition_of(p for p in words.evaluation(a, len(a)) if p)


def check_prime_eval_counts(d: int) -> tuple[bool, str]:
    for n in range(1, d + 1):
        brute: dict[tuple[int, ...], int] = {}
        for a in words.prime_parking_functions(n):
            lam = _evaluation_partition(a)
            brute[lam] = brute.get(lam, 0) + 1
        total = 0
        for lam in words.partitions(n):
            got = symfun.prime_eval_count(lam)
            if got != brute.get(lam, 0):
                return _fail(f"prime count by evaluation wrong at {lam}")
            total += got
        if total != words.ppf_count(n):
            return _fail(f"prime counts do not sum to the class size at n={n}")
    return OK


def check_descent_type_law(d: int) -> tuple[bool, str]:
    for n in range(1, d + 1):
        table: dict[tuple, int] = {}
        for a in words.parking_functions(n):
            key = (words.prime_type(a), words.descent_composition(a))
            table[key] = table.get(key, 0) + 1
        for i in words.compositions(n):
            fi = symfun.type_characteristic(i)
            for j in words.compositions(n):
                got = symfun.hall_pairing(symfun.ribbon_h(j), fi)
                if got != table.get((i, j), 0):
                    return _fail(f"ribbon/type pairing wrong at I={i}, J={j}")
    return OK


def h_star_closed(n: int) -> Lin:
    """Independent route: h_n* = [t^n] E(-t)^(n+1) / (n+1)."""
    if n == 0:
        return Lin.basis(())
    em = [Lin.basis(())] + [symfun._e_in_h(k).scale((-1) ** k) for k in range(1, n + 1)]
    powed = em  # raised to E(-t)^(n+1), truncated at t^n
    for _ in range(n):
        powed = [lin_sum(symfun.h_product(powed[i], em[k - i]) for i in range(k + 1))
                 for k in range(n + 1)]
    return powed[n].scale(Fraction(1, n + 1))


def check_star_involution(d: int) -> tuple[bool, str]:
    if symfun.h_star(1) != -symfun.h((1,)):
        return _fail("first star image wrong")
    if symfun.h_star(2) != symfun.h((1, 1), 2) - symfun.h((2,)):
        return _fail("second star image wrong")
    for n in range(1, d + 3):
        if symfun.h_star(n) != h_star_closed(n):
            return _fail(f"star routes differ at n={n}")
        if symfun.star(symfun.h_star(n)) != symfun.h((n,)):
            return _fail(f"star not involutive at n={n}")
        if symfun.e_star(n) != -symfun.omega(symfun.prime_characteristic(n)):
            return _fail(f"elementary star routes differ at n={n}")
    rng = random.Random(99)
    for _ in range(10):
        terms = []
        for _ in range(3):
            n = rng.randint(1, 4)
            lam = tuple(sorted((rng.randint(1, n) for _ in range(2)),
                               reverse=True))
            terms.append((lam, rng.randint(-3, 3)))
        x = _build(terms)
        if symfun.star(symfun.star(x)) != x:
            return _fail("star not involutive on a random element")
    return OK


def prime_characteristic_closed(n: int) -> Lin:
    """Same character by the explicit partition-indexed formula."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    if n == 1:
        return symfun.h((1,))
    return _build((lam, symfun.kreweras_count(lam, n - 2))
                  for lam in words.partitions(n))


def type_characteristic_by_words(i: words.Composition) -> Lin:
    """Oracle route: sum h over evaluations of nondecreasing members of the type class."""
    n = sum(i)
    return _build((_evaluation_partition(a), 1)
                  for a in words.nondecreasing_parking_functions(n)
                  if words.prime_type(a) == tuple(i))


def parking_characteristic_by_words(n: int) -> Lin:
    return _build((_evaluation_partition(a), 1)
                  for a in words.nondecreasing_parking_functions(n))


def check_characteristics(d: int) -> tuple[bool, str]:
    for n in range(2, d + 3):
        if symfun.prime_characteristic(n) != prime_characteristic_closed(n):
            return _fail(f"prime character routes differ at n={n}")
    for n in range(1, d + 1):
        types = {i: symfun.type_characteristic(i) for i in words.compositions(n)}
        for i, tc in types.items():
            if tc != type_characteristic_by_words(i):
                return _fail(f"type character routes differ at {i}")
        pc = symfun.parking_characteristic(n)
        if pc != parking_characteristic_by_words(n):
            return _fail(f"full character routes differ at n={n}")
        # PF_n = sum over compositions I of n of the products f_I
        if pc != lin_sum(types.values()):
            return _fail(f"full character is not the sum over types at n={n}")
        star_route = symfun.omega(symfun.h_star(n)).scale((-1) ** n)
        if pc != star_route:
            return _fail(f"character/star identity fails at n={n}")
    return OK


def check_eta_v_compatibility(d: int) -> tuple[bool, str]:
    return agree("character projection mismatch at {}",
                 lambda i: symfun.qs_f_to_m(fbasis.eta(fbasis.v_element(i))),
                 lambda i: symfun.sym_to_qsym_m(symfun.type_characteristic(i)),
                 _upto(words.compositions, d))


def _schur_in_h(lam: tuple[int, ...]) -> Lin:
    """Oracle: s_lam = det(h_(lam_i - i + j)) by Jacobi-Trudi (Macdonald,
    Symmetric Functions, I.3.4), with h_0 = 1 and h_(-k) = 0."""
    terms = []
    for perm in permutations(range(len(lam))):
        parts = [p - i + j for i, (p, j) in enumerate(zip(lam, perm))]
        if min(parts, default=0) >= 0:
            inversions = sum(a > b for a, b in combinations(perm, 2))
            terms.append((words.partition_of(p for p in parts if p),
                          (-1) ** inversions))
    return _build(terms)


def check_hall_pairing(d: int) -> tuple[bool, str]:
    """<s_lam, s_mu> = delta, and f_n = prime_characteristic(n) is Schur
    positive: <f_n, s_lam> >= 0."""
    for n in range(1, d + 1):
        schur = {lam: _schur_in_h(lam) for lam in words.partitions(n)}
        in_m = {lam: symfun.in_m(s) for lam, s in schur.items()}
        for (lam, s), mu in product(schur.items(), schur):
            if dual_pairing(s, in_m[mu]) != int(lam == mu):
                return _fail(f"Schur functions not orthonormal at {lam},{mu}")
        f = symfun.prime_characteristic(n)
        for lam in schur:
            if dual_pairing(f, in_m[lam]) < 0:
                return _fail(f"prime characteristic not Schur positive at {lam}")
    return OK


def check_cumulant_examples(d: int) -> tuple[bool, str]:
    semi = symfun.moments_to_cumulants([0, 1, 0, 2, 0, 5])
    if semi != [Fraction(x) for x in (0, 1, 0, 0, 0, 0)]:
        return _fail(f"semicircle cumulants wrong: {semi}")
    cat = symfun.cumulants_to_moments([1, 1, 1, 1])
    if cat != [Fraction(x) for x in (1, 2, 5, 14)]:
        return _fail(f"all-ones moments wrong: {cat}")
    for seq, n_top in (((0, 1, 0, 2, 0, 5), 6), ((1, 2, 5, 14), 4)):
        rs = symfun.moments_to_cumulants(seq)
        for n in range(1, n_top + 1):
            if symfun.nc_moment(rs, n) != Fraction(seq[n - 1]):
                return _fail(f"partition oracle disagrees at degree {n} of {seq}")
    return OK


def cumulants_via_star(moments) -> list[Fraction]:
    """Independent route: R_n = (-1)^n e_n* specialized at h_k -> M_k."""
    ms = symfun._to_fracs(moments)

    def spec(lam: words.Partition) -> Fraction:
        out = Fraction(1)
        for p in lam:
            out *= ms[p - 1]
        return out

    out = []
    for n in range(1, len(ms) + 1):
        val = sum((c * spec(lam) for lam, c in symfun.e_star(n).items()),
                  Fraction(0))
        out.append(val if n % 2 == 0 else -val)
    return out


def check_cumulant_roundtrip(d: int, trials: int = 25) -> tuple[bool, str]:
    rng = random.Random(624)
    for _ in range(trials):
        ms = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(8)]
        rs = symfun.moments_to_cumulants(ms)
        if symfun.cumulants_to_moments(rs) != ms:
            return _fail(f"moment round trip fails on {ms}")
        if cumulants_via_star(ms) != rs:
            return _fail(f"cumulant routes disagree on {ms}")
        back = symfun.moments_to_cumulants(symfun.cumulants_to_moments(ms))
        if back != ms:
            return _fail(f"cumulant round trip fails on {ms}")
    return OK


def check_cumulant_oracle(d: int) -> tuple[bool, str]:
    rng = random.Random(1729)
    for _ in range(5):
        rs = [Fraction(rng.randint(-6, 6), rng.randint(1, 6))
              for _ in range(d + 3)]
        ms = symfun.cumulants_to_moments(rs)
        for n in range(1, len(rs) + 1):
            if ms[n - 1] != symfun.nc_moment(rs, n):
                return _fail(f"series route differs from oracle at degree {n}")
    return OK


def check_p_expand_embedding(d: int) -> tuple[bool, str]:
    products = multiplicative("class-sum product fails at {},{}",
                              catalan.p_expand, MUL["P"], fbasis.f_mul,
                              _pairs("P", d))
    return products if not products[0] else comultiplicative(
        "class-sum coproduct fails at {}", catalan.p_expand,
        catalan.p_coproduct, fbasis.f_comul, _upto("P", d))


def check_m_commutative_associative(d: int) -> tuple[bool, str]:
    return _combine(commutative("M", _pairs("M", d)),
                    associative("M", _triples("M", d)))


def check_m_coproduct_duality(d: int) -> tuple[bool, str]:
    for n in range(1, d + 1):
        for pi in LABELS["P"](n):
            for (u, v), c in catalan.m_coproduct(pi).items():
                if (u and v) and Lin.basis(catalan.p_product(u, v)).coeff(pi) != c:
                    return _fail(f"deconcatenation not dual to products at {pi}")
    return OK


def _poly_mul(x: Lin, y: Lin) -> Lin:
    """Product of polynomials held as Lins over exponent vectors."""
    return _build((tuple(map(add, e1, e2)), c1 * c2)
                  for e1, c1 in x.items() for e2, c2 in y.items())


def check_m_polynomial_realization(d: int) -> tuple[bool, str]:
    k = d + 2
    return multiplicative("polynomial realization breaks at {},{}",
                          lambda pi: Lin(catalan.m_polynomial(pi, k)),
                          catalan.m_product, _poly_mul, _pairs("M", d))


def check_gamma_morphism(d: int) -> tuple[bool, str]:
    cases = {(3,): _flin("111"), (2, 1): _flin("112", "113"),
             (1, 2): _flin("122"), (1, 1, 1): _flin("123")}
    for i, want in cases.items():
        if catalan.gamma(i) != want:
            return _fail(f"monomial embedding wrong at {i}")
    return multiplicative("monomial embedding breaks at {},{}", catalan.gamma,
                          lambda i, j: symfun.qs_m_product(Lin.basis(i),
                                                           Lin.basis(j)),
                          catalan.m_mul, _pairs(words.compositions, d + 1))


def check_ribbon_triangularity(d: int) -> tuple[bool, str]:
    for n in range(1, d + 1):
        table = catalan._r_in_p(n)
        for pi in LABELS["P"](n):
            closure = words.successor_closure(pi)
            expansion = table[pi]
            if any(c not in (1, -1) for _, c in expansion.items()):
                return _fail(f"ribbon expansion of {pi} has entry not ±1")
            if any(rho not in closure for rho in expansion.labels()):
                return _fail(f"ribbon expansion of {pi} leaves its closure")
            back = lin_sum(catalan.p_to_r(rho).scale(c)
                           for rho, c in expansion.items())
            if back != Lin.basis(pi):
                return _fail(f"ribbon inversion fails at {pi}")
    return OK


def _ribbon_law_counterexamples(top: int, law) -> list[tuple]:
    return [(p1, p2) for p1, p2 in _pairs("R", top)
            if law(p1, p2) != catalan.ribbon_product_via_p(p1, p2)]


def check_ribbon_law(d: int) -> tuple[bool, str]:
    bad = _ribbon_law_counterexamples(d, catalan.ribbon_product)
    if bad:
        p1, p2 = bad[0]
        got = catalan.ribbon_product(p1, p2)
        want = catalan.ribbon_product_via_p(p1, p2)
        return _fail(
            f"two-term ribbon law disagrees with the expansion route on "
            f"{len(bad)} pairs; first at R_{p1} R_{p2}: law gives {got!r}, "
            f"expansion gives {want!r}")
    return OK


def check_ribbon_glued_law(d: int) -> tuple[bool, str]:
    bad = _ribbon_law_counterexamples(d, catalan.ribbon_product_glued)
    if bad:
        p1, p2 = bad[0]
        return _fail(f"junction-merge ribbon law fails first at {p1},{p2}")
    return OK


def evaluation_type_sum(n: int) -> Lin:
    """Sum over degree-n labels of the evaluation-composition word."""
    return _build((words.evaluation_composition(pi), 1)
                  for pi in words.nondecreasing_parking_functions(n))


def check_g_series(d: int) -> tuple[bool, str]:
    top = d + 2
    g = catalan.g_series(top)
    for n in range(1, top + 1):
        image = symfun.ns_image(g[n])
        want = symfun.omega(symfun.h_star(n)).scale((-1) ** n)
        if image != want:
            return _fail(f"commutative image of the series fails at n={n}")
        if catalan.g_weighted_coefficient_sum(n) != words.pf_count(n):
            return _fail(f"weighted coefficient sum wrong at n={n}")
        if evaluation_type_sum(n) != g[n]:
            return _fail(f"evaluation-type expansion differs at n={n}")
    return OK


def c_of_pi(pi: words.Word) -> words.Composition:
    """Lengths of the connected factors of the label."""
    return tuple(len(f) for f in
                 words.connected_factorization(catalan._check_label(pi)))


def factor_type_sum(n: int) -> Lin:
    """Sum over degree-n labels of the factor-type generator word."""
    return _build((c_of_pi(pi), 1) for pi in words.nondecreasing_parking_functions(n))


def report_g_routes(d: int) -> tuple[bool, str]:
    top = d + 1
    g = catalan.g_series(top)
    lines = []
    for n in range(1, top + 1):
        by_factor = factor_type_sum(n)
        by_eval = evaluation_type_sum(n)
        lines.append(
            f"n={n}: factor-type route {'==' if by_factor == g[n] else '!='} g_n, "
            f"evaluation route {'==' if by_eval == g[n] else '!='} g_n")
    return True, "; ".join(lines)


def _regroup(terms, key, size) -> Lin:
    """Rewrite (label, coefficient) terms over class keys: key(label) is
    the class of a label and size(k) the number of labels in class k.

    Requires the coefficients to be constant on every class met, with
    the whole class present.
    """
    buckets: dict = {}
    for label, c in terms:
        buckets.setdefault(key(label), []).append(c)
    out = {}
    for k, coeffs in buckets.items():
        if len(coeffs) != size(k) or len(set(coeffs)) != 1:
            raise ValueError(f"not constant on class {k}")
        out[k] = coeffs[0]
    return _build(out.items())


def pq_product_by_regroup(k1, k2) -> Lin:
    """The class product as the subalgebra states it: expand both class
    sums to F words, multiply, and regroup into class sums, which raises
    unless the product is constant on every class it meets."""
    return _regroup(
        fbasis.f_mul(schroder.pq_expand(k1), schroder.pq_expand(k2)).items(),
        schroder.hypo_key, schroder.class_size)


def pq_coproduct_by_regroup(key) -> Lin:
    """The class coproduct as the subalgebra states it: expand the class
    sum to F words, cut, and regroup the pairs of halves into pairs of
    class sums, which raises unless the coproduct is constant on every
    class pair it meets."""
    return _regroup(
        fbasis.f_comul(schroder.pq_expand(key)).items(),
        lambda uv: (schroder.hypo_key(uv[0]), schroder.hypo_key(uv[1])),
        lambda kk: schroder.class_size(kk[0]) * schroder.class_size(kk[1]))


def check_schroder_closure(d: int) -> tuple[bool, str]:
    """Class sums are closed under the F product and coproduct, and the
    routes regrouped from F words are the key rules of `pq_product` and
    `pq_coproduct`."""
    for k1, k2 in _pairs("Pq", d):
        try:
            want = pq_product_by_regroup(k1, k2)
        except ValueError as exc:
            return _fail(f"class product not closed at {k1},{k2}: {exc}")
        if schroder.pq_product(k1, k2) != want:
            return _fail(f"class product differs from the key rule at {k1},{k2}")
    for key in _upto("Pq", d):
        try:
            want = pq_coproduct_by_regroup(key)
        except ValueError as exc:
            return _fail(f"class coproduct not closed at {key}: {exc}")
        if schroder.pq_coproduct(key) != want:
            return _fail(f"class coproduct differs from the key rule at {key}")
    return OK


def check_schroder_quotient(d: int) -> tuple[bool, str]:
    """On every pair (class key, G label) of degree sum at most d, the
    class projection of the product is the same for all representatives."""
    def quotient_mul(u, v) -> Lin:
        return gbasis.g_mul(Lin.basis(u), Lin.basis(v)) \
            .map_labels(schroder.hypo_key)

    for key, x in _pairs("Pq", d, "G"):
        first, *rest = schroder.class_members(key)
        right, left = quotient_mul(x, first), quotient_mul(first, x)
        for rep in rest:
            if quotient_mul(x, rep) != right:
                return _fail(
                    f"quotient product depends on the representative "
                    f"of {key} against {x}")
            if quotient_mul(rep, x) != left:
                return _fail(
                    f"quotient product depends on the representative "
                    f"of {key} against {x} (left)")
    return OK


def check_matrix_product(d: int) -> tuple[bool, str]:
    return multiplicative("grouped matrix product fails at {},{}",
                          matrices.word_class, fbasis.f_product,
                          matrices.mp_mul, _pairs("F", d))


def check_matrix_coproduct(d: int) -> tuple[bool, str]:
    return comultiplicative("grouped matrix coproduct fails at {}",
                            matrices.word_class, fbasis.f_coproduct,
                            matrices.mp_comul, _upto("F", d))


def check_matrix_parkize(d: int) -> tuple[bool, str]:
    """Matrix parkization against word parkization on every packed matrix
    of every word of length <= d + 1 over 1..d + 1, at widths max(word),
    len(word) and len(word) + 1: so it forms objects of degree d + 1.

    Each matrix must read back to its word, leave the word's defect
    column empty, parkize to a matrix reading the parkized word, and,
    when the word parks, trim to as many columns as it has ones."""
    reading, matrix_parkize = matrices.reading, matrices.matrix_parkize
    top = d + 1
    for k in range(1, top + 1):
        for word in product(range(1, top + 1), repeat=k):
            dfct = words.defect(word)
            # the defect column's entries, read off each row
            empty = itemgetter(dfct - 1) if dfct != k + 1 else None
            parked = words.parkize(word)
            trims = words.is_parking(word)
            most = max(word)
            for w in sorted({most, k, k + 1}):
                if w < most:
                    continue
                trim = trims and w >= k
                for m in matrices.word_matrices(word, width=w):
                    if reading(m) != word:
                        return _fail(f"{m} does not read back to {word}")
                    if empty is not None and any(map(empty, m)):
                        return _fail(f"defect column of {m} not empty")
                    pm = matrix_parkize(m)
                    if reading(pm) != parked:
                        return _fail(f"matrix parkization disagrees on {m}")
                    if trim and matrices.width(pm) != k:
                        return _fail(f"trailing trim wrong on {m}")
    if matrix_parkize(((0, 1),)) != ((1,),):
        return _fail("single-entry matrix does not parkize to [[1]]")
    return OK


def check_word_matrices(d: int) -> tuple[bool, str]:
    # degree d + 1 is streamed rather than listed, so no table of it is kept
    for a in chain(_upto("F", d), words.parking_functions(d + 1)):
        for m in matrices.word_matrices(a):
            if matrices.reading(m) != a:
                return _fail(f"matrix of {a} reads back differently")
            if not matrices.is_packed(m):
                return _fail(f"matrix of {a} has a zero row")
    for a in _upto("F", d):
        perm = sorted(set(a)) == sorted(a)
        for m in matrices.word_matrices(a):
            if matrices.is_word_matrix(m) and not perm:
                return _fail(f"non-permutation {a} produced a word matrix")
    return OK


def check_s_primitive(d: int) -> tuple[bool, str]:
    for n in range(1, d + 1):
        s, _t = gbasis.st_dual_bases(n)
        for c in LABELS["F"](n):
            if not words.is_connected(c):
                continue
            sc = s[c]
            one = Lin.basis(())
            reduced = gbasis.g_comul(sc) - tensor(one, sc) - tensor(sc, one)
            if reduced:
                return _fail(f"dual basis element of {c} is not primitive")
    return OK


def check_graded_dimensions(d: int) -> tuple[bool, str]:
    for n in range(1, d + 1):
        if len(LABELS["F"](n)) != words.pf_count(n):
            return _fail("parking dimension table broken")
        if len(LABELS["P"](n)) != words.catalan(n):
            return _fail("Catalan dimension table broken")
        if len(LABELS["Pq"](n)) != words.schroder_count(n):
            return _fail("class dimension table broken")
    return OK


# ---------------------------------------------------------------------------
# registry

@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str
    kind: str = "check"


CHECKS: list[tuple[str, str, str, object]] = [
    ("paper-examples", "f-product", "check", partial(_replay, "f-product")),
    ("paper-examples", "f-coproduct", "check", partial(_replay, "f-coproduct")),
    ("paper-examples", "f-antipode", "check", partial(_replay, "f-antipode")),
    ("paper-examples", "parkization", "check", check_example_parkization),
    ("paper-examples", "g-product", "check", partial(_replay, "g-product")),
    ("paper-examples", "g-coproduct", "check", partial(_replay, "g-coproduct")),
    ("paper-examples", "nc-bijection", "check", check_example_nc_bijection),
    ("paper-examples", "p-coproduct", "check", partial(_replay, "p-coproduct")),
    ("paper-examples", "m-product", "check", partial(_replay, "m-product")),
    ("paper-examples", "m-polynomials", "check", check_example_m_polynomials),
    ("paper-examples", "successors", "check", check_example_successors),
    ("paper-examples", "ribbon-product", "check", check_example_ribbon_product),
    ("paper-examples", "matrix-reading", "check", check_example_matrices),
    ("paper-examples", "g-power", "check", check_example_g_power),
    ("hopf", "f-associative", "check", check_f_associative),
    ("hopf", "f-coassociative", "check", check_f_coassociative),
    ("hopf", "f-compatible", "check", check_f_compatible),
    ("hopf", "f-counit", "check", check_f_counit),
    ("hopf", "f-antipode-axiom", "check", check_f_antipode_axiom),
    ("hopf", "g-compatible", "check", check_g_compatible),
    ("hopf", "p-cocommutative", "check", check_p_cocommutative),
    ("hopf", "p-compatible", "check", check_p_compatible),
    ("duality", "adjointness", "check", check_duality_adjoint),
    ("duality", "unshuffle-coproduct", "check", check_duality_unshuffle),
    ("duality", "st-dual-bases", "check", check_duality_st_bases),
    ("duality", "classic-convolution", "check", check_classic_convolution),
    ("duality", "phi-morphism", "check", check_phi_morphism),
    ("duality", "g-ones-power", "check", check_g_ones_power),
    ("counts", "parking-counts", "check", check_counts_parking),
    ("counts", "connected-series", "check", check_counts_connected),
    ("counts", "lie-series", "check", check_counts_lie),
    ("counts", "schroder-series", "check", check_counts_schroder),
    ("counts", "free-dimension", "check", check_counts_free_dimension),
    ("counts", "type-partition", "check", check_counts_type_partition),
    ("counts", "dimension-table", "check", check_graded_dimensions),
    ("equivalences", "parkize-fixed-points", "check", check_parkize_fixed_points),
    ("equivalences", "nc-roundtrip", "check", check_nc_roundtrip),
    ("equivalences", "prime-characterizations", "check", check_prime_characterizations),
    ("equivalences", "successor-order", "check", check_successor_order),
    ("equivalences", "antipode-routes", "check", check_antipode_routes),
    ("equivalences", "mult-basis", "check", check_mult_basis),
    ("equivalences", "type-class-sums", "check", check_v_elements),
    ("equivalences", "prime-inclusion-exclusion", "check",
     check_prime_inclusion_exclusion),
    ("equivalences", "descent-projection", "check", check_eta_morphism),
    ("equivalences", "ones-coproduct", "check", check_ones_coproduct),
    ("equivalences", "dual-descent-embedding", "check", check_eta_star),
    ("equivalences", "prime-eval-counts", "check", check_prime_eval_counts),
    ("equivalences", "descent-type-law", "check", check_descent_type_law),
    ("equivalences", "star-involution", "check", check_star_involution),
    ("equivalences", "characteristics", "check", check_characteristics),
    ("equivalences", "character-projection", "check", check_eta_v_compatibility),
    ("equivalences", "hall-pairing", "check", check_hall_pairing),
    ("equivalences", "cumulant-examples", "check", check_cumulant_examples),
    ("equivalences", "cumulant-roundtrip", "check", check_cumulant_roundtrip),
    ("equivalences", "cumulant-oracle", "check", check_cumulant_oracle),
    ("equivalences", "class-embedding", "check", check_p_expand_embedding),
    ("equivalences", "m-commutative", "check", check_m_commutative_associative),
    ("equivalences", "m-deconcatenation", "check", check_m_coproduct_duality),
    ("equivalences", "m-realization", "check", check_m_polynomial_realization),
    ("equivalences", "monomial-embedding", "check", check_gamma_morphism),
    ("equivalences", "ribbon-triangularity", "check", check_ribbon_triangularity),
    ("equivalences", "ribbon-two-term-law", "check", check_ribbon_law),
    ("equivalences", "ribbon-junction-law", "check", check_ribbon_glued_law),
    ("equivalences", "g-series", "check", check_g_series),
    ("equivalences", "g-series-routes", "report", report_g_routes),
    ("equivalences", "class-closure", "check", check_schroder_closure),
    ("equivalences", "class-quotient", "check", check_schroder_quotient),
    ("equivalences", "matrix-product", "check", check_matrix_product),
    ("equivalences", "matrix-coproduct", "check", check_matrix_coproduct),
    ("equivalences", "matrix-parkization", "check", check_matrix_parkize),
    ("equivalences", "word-matrices", "check", check_word_matrices),
    ("equivalences", "primitive-elements", "check", check_s_primitive),
]


def run(suite: str = "all", max_degree: int = 4) -> list[CheckResult]:
    wanted = SUITES if suite == "all" else (suite,)
    out = []
    for s, name, kind, fn in CHECKS:
        if s not in wanted:
            continue
        ok, detail = fn(max_degree)
        out.append(CheckResult(s, name, ok, detail, kind))
    return out


# ---------------------------------------------------------------------------
# acceptance gates

def _combine(*parts: tuple[bool, str]) -> tuple[bool, str]:
    bad = [msg for ok, msg in parts if not ok]
    if bad:
        return False, "; ".join(bad)
    return True, "ok"


# Gate k is row k - 1: the (check, degree) pairs that decide it, and the
# (check, degree) pairs whose detail is appended as "; report: ..." and
# never decides the verdict.
CRITERIA = (
    # 1. enumerated parking and prime counts match the closed forms, n <= 7
    ([(check_counts_parking, 7)], []),
    # 2. connected series by enumeration (6) and closed form (12 printed)
    ([(check_counts_connected, 6)], []),
    # 3. every worked example replays exactly
    ([(fn, 0) for s, _n, _k, fn in CHECKS if s == "paper-examples"], []),
    # 4. Hopf axioms through total degree 4, sampled at 5
    ([(check_f_associative, 4), (check_f_coassociative, 5),
      (check_f_compatible, 4), (check_f_counit, 4),
      (check_f_antipode_axiom, 4)], []),
    # 5. duality adjointness (4) and unshuffle coproduct (5)
    ([(check_duality_adjoint, 4), (check_duality_unshuffle, 5)], []),
    # 6. prime counts by evaluation vs enumeration through n = 7
    ([(check_prime_eval_counts, 7)], []),
    # 7. ribbon/type pairing counts descent classes, n <= 5
    ([(check_descent_type_law, 5)], []),
    # 8. star involution and the cumulant round trips
    ([(check_star_involution, 4), (check_cumulant_examples, 0),
      (partial(check_cumulant_roundtrip, trials=100), 4),
      (check_cumulant_oracle, 4)], []),
    # 9. Catalan layer: cocommutativity, dual product laws, the monomial
    # embedding, and the ribbon product re-verified against expansion
    # through the two-term junction law, all pairs to total degree 5.  The
    # stated (raised) two-term law is not associative, so it is the product
    # of no algebra with basis R; its first counterexample is a report.
    ([(check_p_cocommutative, 5), (check_m_commutative_associative, 4),
      (check_gamma_morphism, 4), (check_ribbon_triangularity, 5),
      (check_ribbon_glued_law, 5)], [(check_ribbon_law, 5)]),
    # 10. series fixed point to degree 6 with commutative image and weights
    ([(check_g_series, 4)], [(report_g_routes, 4)]),
    # 11. class counts, closure, and quotient well-definedness on every
    # (class, G label) pair of total degree at most 6
    ([(check_counts_schroder, 6), (check_schroder_closure, 4),
      (check_schroder_quotient, 6)], []),
    # 12. the matrix realization reproduces the word-level structure maps
    ([(check_matrix_product, 4), (check_matrix_coproduct, 4),
      (check_matrix_parkize, 4), (check_word_matrices, 4)], []),
    # 13. freeness: monomial dimensions, generator series, primitives
    ([(check_counts_free_dimension, 5), (check_counts_lie, 6),
      (check_s_primitive, 4)], []),
)


def criterion(k: int) -> tuple[bool, str]:
    """Acceptance gate k, 1 <= k <= 13."""
    checks, reports = CRITERIA[k - 1]
    ok, detail = _combine(*(fn(d) for fn, d in checks))
    for fn, d in reports:
        detail += f"; report: {fn(d)[1]}"
    return ok, detail
