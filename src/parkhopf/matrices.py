"""Packed (0,1)-matrix realization of the parking-function algebra.

A word is spread over matrices whose rows cut it into strictly
increasing blocks; the product interleaves rows of two matrices in all
covering ways, and the coproduct splits the rows followed by matrix
parkization.
"""
from __future__ import annotations

from itertools import chain, combinations

from .linear import Lin, _build, extend_bilinear, extend_linear
from .words import Word, parkize

Matrix = tuple[tuple[int, ...], ...]


def _normalize(m) -> Matrix:
    return tuple(tuple(row) for row in m)


def width(m: Matrix) -> int:
    return len(m[0]) if m else 0


def ones(m: Matrix) -> int:
    return sum(sum(row) for row in m)


def reading(m: Matrix) -> Word:
    """Row-major list of column indices of the ones."""
    return tuple(j + 1 for row in m for j, x in enumerate(row) if x)


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
    if max(a) > cols:
        return []
    ascents = [i for i in range(1, n) if a[i - 1] < a[i]]
    forced = [i for i in range(1, n) if a[i - 1] >= a[i]]
    out = []
    for extra in chain.from_iterable(
        combinations(ascents, k) for k in range(len(ascents) + 1)
    ):
        cuts = sorted(forced + list(extra))
        rows = []
        for lo, hi in zip([0] + cuts, cuts + [n]):
            block = set(a[lo:hi])
            rows.append(tuple(1 if j + 1 in block else 0 for j in range(cols)))
        out.append(tuple(rows))
    return sorted(out)


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
    fixed points (reading parks, width <= ones) come back as they are."""
    m = _normalize(m)
    r = reading(m)
    p = parkize(r)
    n = len(r)
    if p == r and width(m) <= n:
        return m
    cols = min(width(m) - max(r, default=0) + max(p, default=0), n)
    source = dict(zip(p, r))  # new column -> old column, for nonzero columns
    pick = [source.get(c, 0) - 1 for c in range(1, cols + 1)]
    return tuple(tuple(row[j] if j >= 0 else 0 for j in pick) for row in m)


def mp_product(p: Matrix, q: Matrix) -> Lin:
    return _build((m, 1) for m in augmented_shuffle(p, q))


mp_mul = extend_bilinear(mp_product)


def mp_coproduct(m: Matrix) -> Lin:
    """Cut the row list in two and parkize both halves."""
    m = _normalize(m)
    return _build(((matrix_parkize(m[:k]), matrix_parkize(m[k:])), 1)
                  for k in range(len(m) + 1))


mp_comul = extend_linear(mp_coproduct)

