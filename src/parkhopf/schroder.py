"""Schröder subquotient: parking functions grouped by evaluation and recoils.

Each class key is the pair (evaluation vector, recoil composition of the
standardized word).  Sums over classes span a subalgebra on the F side
and a quotient on the G side.  The product of two class sums is read
from their keys alone, by the two-term ribbon rule; the coproduct cuts
every member of the class once and regroups the pairs of halves, checked
to be constant on classes.  The quotient product multiplies
representatives and projects to keys.
"""
from __future__ import annotations

from collections import defaultdict
from functools import cache, lru_cache
from itertools import accumulate
from operator import itemgetter

from .gbasis import g_mul
from .linear import Lin, _build
from .words import Word, evaluation, is_parking, parking_list, parkize

Key = tuple[tuple[int, ...], tuple[int, ...]]


def hypo_key(w: Word) -> Key:
    """Class invariant of a word: evaluation plus recoil composition.

    The recoils are the descents of std(w)^-1, which lists the positions of
    the 1s, then of the 2s, and so on.  It descends exactly where a value
    first occurs before the last occurrence of the previous value present,
    so one pass recording each value's count, first and last position
    gives both parts of the key.
    """
    w = tuple(w)
    n = len(w)
    ev = [0] * n
    first = [0] * n
    last = [0] * n
    for i, x in enumerate(w):
        if x < 1:
            raise ValueError(f"letters must be positive integers, got {x}")
        if x > n:
            raise ValueError(f"letter {x} exceeds evaluation length {n}")
        if not ev[x - 1]:
            first[x - 1] = i
        ev[x - 1] += 1
        last[x - 1] = i
    recoils = []
    run = end = 0  # current recoil part; last position of the previous value
    for m, lo, hi in zip(ev, first, last):
        if m:
            if lo < end:
                recoils.append(run)
                run = 0
            run += m
            end = hi
    if run:
        recoils.append(run)
    return tuple(ev), tuple(recoils)


def key_of_word(a: Word) -> Key:
    a = tuple(a)
    if not is_parking(a):
        raise ValueError(f"not a parking function: {a}")
    return hypo_key(a)


def key_degree(key: Key) -> int:
    return sum(key[0])


def _recoil_pickers(m: tuple[int, ...]) -> list:
    """Pairs (recoil composition, picker) for the rearrangements of
    1^m1 ... k^mk: given their lexicographic list, a picker returns, as a
    tuple, those with its recoil composition.

    A depth-first walk places the letters left to right in lexicographic
    order.  As in `hypo_key`, a recoil starts at letter j when a j is
    placed while a j - 1 is still unplaced; equivalently, when the first j is.
    """
    left = list(m)
    sets: list[int] = []  # recoil set of each rearrangement (bit j: letter j)

    def place(todo: int, recoil_set: int) -> None:
        if not todo:
            sets.append(recoil_set)
            return
        for j in range(len(m)):
            if left[j]:
                bit = 1 << j if j and left[j - 1] else 0
                left[j] -= 1
                place(todo - 1, recoil_set | bit)
                left[j] += 1

    place(sum(m), 0)
    ranks: dict[int, list[int]] = defaultdict(list)
    for rank, recoil_set in enumerate(sets):
        ranks[recoil_set].append(rank)
    pickers = []
    for recoil_set, rs in ranks.items():
        parts: list[int] = []  # m cut before each recoil letter
        for j, mj in enumerate(m):
            if j and not recoil_set >> j & 1:
                parts[-1] += mj
            else:
                parts.append(mj)
        # itemgetter of one index returns the item, not a 1-tuple
        getter = (itemgetter(*rs) if len(rs) > 1
                  else itemgetter(slice(rs[0], rs[0] + 1)))
        pickers.append((tuple(parts), getter))
    return pickers


@lru_cache(maxsize=None)
def classes(n: int) -> dict[Key, tuple[Word, ...]]:
    """Degree-n parking functions grouped by class key, keys in the order
    of their classes' lexicographically first members.

    A class lies inside one evaluation, and the words of an evaluation are
    the rearrangements of one nondecreasing parking function, listed by
    `parking_list` in lexicographic order.  Within an evaluation, a word's
    recoil composition depends only on the multiplicities (m1, ..., mk) of
    its letters and on its rank among those rearrangements.  So the words
    are grouped by their sorted form, and each group is cut into classes
    by the rank pickers of its multiplicities, built once per composition.
    The members are the tuples of `parking_list(n)` themselves.
    """
    groups: dict[Word, list[Word]] = defaultdict(list)
    for a in parking_list(n):
        groups[tuple(sorted(a))].append(a)
    pickers: dict[tuple[int, ...], list] = {}  # multiplicities -> pickers
    found = []
    for group in map(tuple, groups.values()):
        ev = evaluation(group[0], n)
        m = tuple(filter(None, ev))
        if m not in pickers:
            pickers[m] = _recoil_pickers(m)
        found.extend(((ev, recoils), pick(group)) for recoils, pick in pickers[m])
    found.sort(key=lambda kv: kv[1][0])
    return dict(found)


def schroder_dim(n: int) -> int:
    return len(classes(n))


def class_members(key: Key) -> tuple[Word, ...]:
    members = classes(key_degree(key)).get(key)
    if members is None:
        raise ValueError(f"empty class: {key}")
    return members


def representative(key: Key) -> Word:
    return class_members(key)[0]


def pq_expand(key: Key) -> Lin:
    """Class sum in the F-basis."""
    return _build((a, 1) for a in class_members(key))


def class_size(key: Key) -> int:
    return len(class_members(key))


def regroup(terms, key, size) -> Lin:
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


def is_class_key(key: Key) -> bool:
    """Whether some parking function has this key, read from the key alone.

    The evaluation must park: its prefix sums reach their index.  Every
    subset of the junctions between consecutive distinct letters occurs
    as a recoil set, so the recoil composition must be a coarsening of the
    nonzero multiplicities: its partial sums are among theirs.
    """
    ev, recoils = key
    n = len(ev)
    if sum(ev) != n or any(m < 0 for m in ev) or any(r < 1 for r in recoils):
        return False
    if any(s < i for i, s in enumerate(accumulate(ev), 1)):
        return False
    return (sum(recoils) == n
            and set(accumulate(recoils)) <= set(accumulate(filter(None, ev))))


def _check_key(key: Key) -> Key:
    if not is_class_key(key):
        raise ValueError(f"empty class: {key}")
    return key


def pq_product(k1: Key, k2: Key) -> Lin:
    """Product of class sums, from the two keys alone.

    A word of the shifted shuffle of a and b keeps the relative order
    inside a and inside b, so only the junction between the largest
    letter of a and the smallest of b can change the recoil set: the last
    part of r1 and the first part of r2 stay apart or merge, and both
    occur.  A word of either class gives back its unique pair (a, b) as
    its letters up to deg(k1) and the rest, so each class sum appears
    once: the ribbon rule R_I R_J = R_{I·J} + R_{I▷J} of NSym.
    """
    (e1, r1), (e2, r2) = _check_key(k1), _check_key(k2)
    ev = e1 + e2
    if not r1 or not r2:
        return Lin.basis((ev, r1 + r2))
    merged = r1[:-1] + (r1[-1] + r2[0],) + r2[1:]
    return _build((((ev, r1 + r2), 1), ((ev, merged), 1)))


def pq_coproduct(key: Key) -> Lin:
    """Coproduct of a class sum, regrouped into pairs of class sums.

    One pass over the cuts of every member counts the pairs of parkized
    halves; each distinct slice is parkized, and each distinct half
    keyed, once per call.  The members park by construction.
    """
    park, half = cache(parkize), cache(hypo_key)  # memos of this call only
    counts: dict = {}
    get = counts.get
    for a in class_members(key):
        for k in range(len(a) + 1):
            pair = park(a[:k]), park(a[k:])
            counts[pair] = get(pair, 0) + 1
    return regroup(counts.items(), lambda uv: (half(uv[0]), half(uv[1])),
                   lambda kk: class_size(kk[0]) * class_size(kk[1]))


def qq_product(k1: Key, k2: Key, rep1: Word | None = None, rep2: Word | None = None) -> Lin:
    """Quotient-side product: multiply representatives, project to keys."""
    a = representative(k1) if rep1 is None else tuple(rep1)
    b = representative(k2) if rep2 is None else tuple(rep2)
    return g_mul(Lin.basis(a), Lin.basis(b)).map_labels(hypo_key)
