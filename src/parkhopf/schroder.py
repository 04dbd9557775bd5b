"""Schröder subquotient: parking functions grouped by evaluation and recoils.

Each class key is the pair (evaluation vector, recoil composition of the
standardized word).  Sums over classes span a subalgebra on the F side
and a quotient on the G side.  Every production operation reads the key
alone.  The product of two class sums is the two-term ribbon rule.  The
members of a class are the rearrangements of its nondecreasing word with
its recoil composition, made by one walk per shape (nonzero
multiplicities, recoil composition); the same walk counts the cuts of
the members, from which the coproduct is read, and a class's size is an
inclusion–exclusion over its recoil composition.  The quotient product
multiplies representatives and projects to keys.  `classes(n)`, the
grouping of all degree-n parking functions by key, is the reference the
checks compare with.
"""
from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import accumulate
from math import factorial, prod
from operator import itemgetter, sub

from .fbasis import _check_parking
from .gbasis import g_mul
from .linear import Lin, _build
from .words import (Word, _below_one, coarsenings, evaluation,
                    parking_list)

Key = tuple[tuple[int, ...], tuple[int, ...]]


def hypo_key(w: Word) -> Key:
    """Class invariant of a word: evaluation plus recoil composition.

    The recoils are the descents of std(w)^-1, which lists the positions of
    the 1s, then of the 2s, and so on.  It descends exactly where a value
    first occurs before the last occurrence of the previous value present,
    so one pass recording each value's count, first and last position
    gives both parts of the key.  Bad letters are refused as
    `words.evaluation` refuses them.
    """
    w = tuple(w)
    n = len(w)
    ev = [0] * n
    first = [0] * n
    last = [0] * n
    for i, x in enumerate(w):
        if x < 1:
            raise _below_one(w)
        if x > n:
            raise (_below_one(w)
                   or ValueError(f"letter {x} exceeds evaluation length {n}"))
        if not ev[x - 1]:
            first[x - 1] = i
        ev[x - 1] += 1
        last[x - 1] = i
    return tuple(ev), _recoil_composition(ev, first, last)


def _recoil_composition(count, first, last) -> tuple[int, ...]:
    """Recoil composition of a word from each letter's count and first
    and last position (any values where the count is 0), as in `hypo_key`."""
    recoils = []
    run = end = 0  # current recoil part; last position of the previous value
    for m, lo, hi in zip(count, first, last):
        if m:
            if lo < end:
                recoils.append(run)
                run = 0
            run += m
            end = hi
    if run:
        recoils.append(run)
    return tuple(recoils)


def key_of_word(a: Word) -> Key:
    return hypo_key(_check_parking(a))


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


def class_members(key: Key) -> tuple[Word, ...]:
    """The members of a class, in lexicographic order: the patterns of
    its shape written in the key's letters."""
    letters, m = _shape(key)
    get = letters.__getitem__
    return tuple(tuple(map(get, p)) for p in _class_walk(m, key[1])[0])


def representative(key: Key) -> Word:
    """The lexicographically first member of a class."""
    letters, m = _shape(key)
    return tuple(map(letters.__getitem__, _class_walk(m, key[1])[0][0]))


def pq_expand(key: Key) -> Lin:
    """Class sum in the F-basis."""
    return _build((a, 1) for a in class_members(key))


def class_size(key: Key) -> int:
    """The number of members of a class, read from its recoil composition."""
    _check_key(key)
    return _recoil_class_size(key[1])


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


def _shape(key: Key) -> tuple[list[int], tuple[int, ...]]:
    """The distinct letters of a class and their multiplicities."""
    ev, _ = _check_key(key)
    return [v for v, m in enumerate(ev, 1) if m], tuple(filter(None, ev))


@lru_cache(maxsize=None)
def _class_walk(m: tuple[int, ...], recoils: tuple[int, ...]) -> tuple:
    """Patterns and cut counts of the classes of one shape.

    The patterns are the rearrangements of 0^m1 1^m2 ... (k-1)^mk with
    recoil composition `recoils`, in lexicographic order: the depth-first
    walk of `_recoil_pickers`, pruned so that the first copy of a letter j
    is placed only when its recoil bit (some j - 1 still unplaced) is the
    one `recoils` asks for, and the last copy of j not while j + 1 still
    waits for a recoil.  The n + 1 cuts of every pattern are counted by
    prefix content, then by the pair (prefix recoil composition, suffix
    recoil composition).  It returns the patterns, as bytes of letter
    indices, and the counts, as a tuple of (content, ((r1, r2, count), ...))
    with each composition held once.  Each node of the walk works out its
    prefix once; suffixes are worked out per pattern, right to left.
    """
    k, n = len(m), sum(m)
    starts = set(accumulate(recoils))
    recoil_at = [False] + [s in starts for s in accumulate(m[:-1])]
    count, first, last = [0] * k, [0] * k, [0] * k  # of the placed prefix
    word: list[int] = []
    prefixes = [((0,) * k, ())]  # (content, recoil composition) by length
    patterns: list[bytes] = []
    table: dict = {}

    def fold() -> None:
        p = bytes(word)
        patterns.append(p)
        sc, sf, sl = [0] * k, [0] * k, [0] * k  # of the suffix p[t:]
        suffixes = [()] * (n + 1)
        for t in range(n - 1, -1, -1):
            x = p[t]
            if not sc[x]:
                sl[x] = t
            sc[x] += 1
            sf[x] = t
            suffixes[t] = _recoil_composition(sc, sf, sl)
        for (c, r1), r2 in zip(prefixes, suffixes):
            row = table.get(c)
            if row is None:
                row = table[c] = {}
            row[r1, r2] = row.get((r1, r2), 0) + 1

    def place(t: int) -> None:
        if t == n:
            fold()
            return
        for j, mj in enumerate(m):
            cj = count[j]
            if cj == mj:
                continue
            if not cj and j and recoil_at[j] != (count[j - 1] < m[j - 1]):
                continue
            if (cj == mj - 1 and j + 1 < k and recoil_at[j + 1]
                    and not count[j + 1]):
                continue
            if not cj:
                first[j] = t
            count[j] = cj + 1
            held, last[j] = last[j], t
            word.append(j)
            prefixes.append((tuple(count), _recoil_composition(count, first, last)))
            place(t + 1)
            prefixes.pop()
            word.pop()
            last[j] = held
            count[j] = cj

    place(0)
    same: dict = {}  # one object per composition
    return tuple(patterns), tuple(
        (c, tuple((same.setdefault(r1, r1), same.setdefault(r2, r2), total)
                  for (r1, r2), total in row.items()))
        for c, row in table.items())


@lru_cache(maxsize=None)
def _recoil_class_size(recoils: tuple[int, ...]) -> int:
    """Size of every class with this recoil composition R, whatever its
    evaluation.

    A rearrangement has its recoil set inside a set T of junctions exactly
    when the letters of each T-block come sorted, and n!/prod(block sums)!
    rearrangements do.  Each T inside R's recoil set has the block sums of
    one coarsening of R, and inclusion–exclusion over them, with the sign
    pattern of `symfun.ribbon_h`, keeps the recoil set R exactly.
    """
    n = sum(recoils)
    return sum((-1) ** (len(recoils) - len(t)) * factorial(n)
               // prod(map(factorial, t)) for t in coarsenings(recoils))


def _parkized_evaluation(letters, counts) -> tuple[int, ...]:
    """Evaluation of the parkized word holding counts[j] copies of each of
    the increasing letters[j], by the rule of `words.parkize`:
    new(v) = min(new(prev) + v - prev, i) on the distinct letters."""
    ev = [0] * sum(counts)
    prev = cur = 0
    i = 1  # one more than the letters below v
    for v, c in zip(letters, counts):
        if c:
            cur = min(cur + v - prev, i)
            ev[cur - 1] = c
            prev = v
            i += c
    return tuple(ev)


def pq_coproduct(key: Key) -> Lin:
    """Coproduct of a class sum, regrouped into pairs of class sums.

    Parkization relabels a word's letters in order, so a cut of a member
    parkizes to the halves whose keys are the parkized evaluations of the
    prefix and suffix contents with the recoil compositions of the two
    halves of the pattern: the cut counts of the class's walk, summed by
    key pair.  Each pair of classes (K1, K2) then has every one of its
    |K1|·|K2| word pairs c times, and c is the coefficient; a total that
    |K1|·|K2| does not divide raises.
    """
    letters, m = _shape(key)
    totals: dict = {}
    get = totals.get
    for c, row in _class_walk(m, key[1])[1]:
        e1 = _parkized_evaluation(letters, c)
        e2 = _parkized_evaluation(letters, tuple(map(sub, m, c)))
        for r1, r2, count in row:
            pair = (e1, r1), (e2, r2)
            totals[pair] = get(pair, 0) + count
    terms = []
    for pair, total in totals.items():
        coeff, rest = divmod(total, _recoil_class_size(pair[0][1])
                             * _recoil_class_size(pair[1][1]))
        if rest:
            raise ValueError(f"not constant on class {pair}")
        terms.append((pair, coeff))
    return _build(terms)


def qq_product(k1: Key, k2: Key, rep1: Word | None = None, rep2: Word | None = None) -> Lin:
    """Quotient-side product: multiply representatives, project to keys."""
    a = representative(k1) if rep1 is None else tuple(rep1)
    b = representative(k2) if rep2 is None else tuple(rep2)
    return g_mul(Lin.basis(a), Lin.basis(b)).map_labels(hypo_key)
