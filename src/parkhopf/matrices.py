"""Packed (0,1)-matrix realization of the parking-function algebra.

A word is spread over matrices whose rows cut it into strictly
increasing blocks; the product interleaves rows of two matrices in all
covering ways, and the coproduct splits the rows followed by matrix
parkization.
"""
from __future__ import annotations

from itertools import chain, combinations, compress
from operator import itemgetter

from .linear import Lin, _build, extend_bilinear, extend_linear
from .words import Word

Matrix = tuple[tuple[int, ...], ...]


def _normalize(m) -> Matrix:
    return tuple(map(tuple, m))


def width(m: Matrix) -> int:
    return len(m[0]) if m else 0


def ones(m: Matrix) -> int:
    return sum(sum(row) for row in m)


def reading(m: Matrix) -> Word:
    """Row-major list of column indices of the ones."""
    if not m:
        return ()
    return tuple(compress(tuple(range(1, len(m[0]) + 1)) * len(m),
                          chain.from_iterable(m)))


def is_packed(m: Matrix) -> bool:
    """Entries 0/1, no zero rows, within-row ones strictly left to right."""
    m = _normalize(m)
    return all(set(row) <= {0, 1} and any(row) for row in m)


def is_word_matrix(m: Matrix) -> bool:
    """Every column holds exactly one 1."""
    m = _normalize(m)
    return bool(m) and all(sum(col) == 1 for col in zip(*m))


def word_matrices(a: Word, width: int | None = None) -> list[Matrix]:
    """All packed matrices of the given width (default len(a)) reading
    back to a.

    Rows are consecutive strictly increasing blocks: cuts are forced at
    every non-ascent and free at every ascent.
    """
    a = tuple(a)
    n = len(a)
    cols = n if width is None else width
    if not a:
        return [()]
    if min(a) < 1:
        raise ValueError(f"letters of a word are positive, got {a}")
    if max(a) > cols:
        return []
    # the row of every block a[lo:hi] that can occur, built once
    block = {}
    for lo in range(n):
        row = [0] * cols
        for hi in range(lo + 1, n + 1):
            row[a[hi - 1] - 1] = 1
            block[lo, hi] = tuple(row)
            if hi == n or a[hi - 1] >= a[hi]:
                break
    # (rows closed so far, start of the open block) for each cut set
    partial = [((), 0)]
    for i in range(1, n):
        cut = [(rows + (block[lo, i],), i) for rows, lo in partial]
        partial = partial + cut if a[i - 1] < a[i] else cut
    return sorted(rows + (block[lo, n],) for rows, lo in partial)


def word_class(a: Word) -> Lin:
    """Sum of all matrices reading back to a."""
    return _build((m, 1) for m in word_matrices(a))


def augmented_shuffle(p: Matrix, q: Matrix) -> list[Matrix]:
    """Interleave the rows of p and q over a common set of slots.

    Each slot carries a row of p, a row of q, or both merged; columns of
    q land to the right of those of p.  With r slots and p's rows in
    slots alpha, q's rows fill every free slot and rq - (r - rp) of alpha.
    """
    p, q = _normalize(p), _normalize(q)
    rp, rq, wp, wq = len(p), len(q), width(p), width(q)
    zp, zq = (0,) * wp, (0,) * wq
    out = set()
    for r in range(max(rp, rq), rp + rq + 1):
        for alpha in combinations(range(r), rp):
            free = [s for s in range(r) if s not in alpha]
            pmap = dict(zip(alpha, p))
            for shared in combinations(alpha, rq - len(free)):
                qmap = dict(zip(sorted(free + list(shared)), q))
                out.add(tuple(pmap.get(s, zp) + qmap.get(s, zq)
                              for s in range(r)))
    return sorted(out)


def matrix_parkize(m: Matrix) -> Matrix:
    """Relabel the columns by the parkization of the reading and trim
    trailing zero columns so the width is at most the number of ones;
    fixed points (reading parks, width <= ones) come back as they are.

    Parkization sees only the multiset of the reading's letters, so one
    pass over the column sums relabels, as `words.parkize` does on the
    sorted reading: a nonzero column j with `below` ones to its left keeps
    its gap to the previous nonzero column unless that would lift it above
    below + 1.  A label never moves up and its drop never shrinks, so the
    reading parks exactly when the last nonzero column keeps its label.
    """
    m = _normalize(m)
    pick = []  # old column (0-based) of each new one; -1 for a zero column
    below = prev = cur = 0  # ones so far; last nonzero column, its new label
    for j, ones_here in enumerate(map(sum, zip(*m)), start=1):
        if ones_here:
            cur += j - prev
            if cur > below + 1:
                cur = below + 1
            if len(pick) < cur - 1:  # a zero column inside a kept gap
                pick += [-1] * (cur - 1 - len(pick))
            pick.append(j - 1)
            prev = j
            below += ones_here
    cols = width(m)
    if cur == prev and cols <= below:
        return m
    pick += [-1] * (min(cols - prev + cur, below) - cur)
    if not pick:
        return ((),) * len(m)
    if -1 in pick:  # a new column with no source reads the appended zero
        m = tuple(row + (0,) for row in m)
    if len(pick) == 1:
        j = pick[0]
        return tuple((row[j],) for row in m)
    return tuple(map(itemgetter(*pick), m))


def mp_product(p: Matrix, q: Matrix) -> Lin:
    return _build((m, 1) for m in augmented_shuffle(p, q))


mp_mul = extend_bilinear(mp_product)


def mp_coproduct(m: Matrix) -> Lin:
    """Cut the row list in two and parkize both halves."""
    m = _normalize(m)
    return _build(((matrix_parkize(m[:k]), matrix_parkize(m[k:])), 1)
                  for k in range(len(m) + 1))


mp_comul = extend_linear(mp_coproduct)

