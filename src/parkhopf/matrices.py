"""Packed (0,1)-matrix realization of the parking-function algebra.

A word is spread over matrices whose rows cut it into strictly
increasing blocks; the product interleaves rows of two matrices in all
covering ways, and the coproduct splits the rows followed by matrix
parkization.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, compress
from operator import itemgetter

from .linear import Lin, _build, extend_bilinear, extend_linear
from .words import Word

Matrix = tuple[tuple[int, ...], ...]


def _normalize(m) -> Matrix:
    """m as a tuple of tuples; one that is already comes back as itself."""
    rows = tuple(map(tuple, m))
    return m if rows == m else rows


def width(m: Matrix) -> int:
    return len(m[0]) if m else 0


def ones(m: Matrix) -> int:
    return sum(sum(row) for row in m)


@lru_cache(maxsize=None)
def _reading_labels(cols: int, rows: int) -> Word:
    # the column index of every entry in row-major order
    return tuple(range(1, cols + 1)) * rows


def reading(m: Matrix) -> Word:
    """Row-major list of column indices of the ones."""
    if not m:
        return ()
    return tuple(compress(_reading_labels(len(m[0]), len(m)),
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
    every non-ascent and free at every ascent.  Of two first blocks the
    shorter row sorts first (it lacks the longer one's next letter and
    agrees before it), so listing each suffix's matrices by first block
    length, suffixes first, yields them in sorted order.
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
    # tails[lo]: the matrices of a[lo:], sorted
    tails = [None] * n + [[()]]
    for lo in range(n - 1, -1, -1):
        row = [0] * cols
        out = []
        for hi in range(lo + 1, n + 1):
            row[a[hi - 1] - 1] = 1
            head = (tuple(row),)
            out += [head + rest for rest in tails[hi]]
            if hi == n or a[hi - 1] >= a[hi]:
                break
        tails[lo] = out
    return tails[0]


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


@lru_cache(maxsize=None)
def _column_plan(sums: tuple[int, ...]):
    """What `matrix_parkize` does to a matrix with these column sums:
    None for a fixed point, else a getter mapping each row to its new row.

    A nonzero column j with `below` ones to its left keeps its gap to the
    previous nonzero column unless that would lift it above below + 1.
    Every new column with no source, inside a kept gap or trailing, reads
    a zero column of the gap or the tail it stands for.
    """
    pick = []  # old column (0-based) of each new one
    below = prev = cur = 0  # ones so far; last nonzero column, its new label
    for j, ones_here in enumerate(sums, start=1):
        if ones_here:
            cur += j - prev
            if cur > below + 1:
                cur = below + 1
            pick += range(prev, prev + cur - 1 - len(pick))
            pick.append(j - 1)
            prev = j
            below += ones_here
    if cur == prev and len(sums) <= below:
        return None
    pick += range(prev, prev + min(len(sums) - prev + cur, below) - cur)
    if len(pick) > 1:
        return itemgetter(*pick)
    return itemgetter(slice(pick[0], pick[0] + 1) if pick else slice(0))


def matrix_parkize(m: Matrix) -> Matrix:
    """Relabel the columns by the parkization of the reading and trim
    trailing zero columns so the width is at most the number of ones;
    fixed points (reading parks, width <= ones) come back as they are.

    Parkization sees only the multiset of the reading's letters, so the
    column sums decide the relabelling, as `words.parkize` does on the
    sorted reading (see `_column_plan`).  A label never moves up and its
    drop never shrinks, so the reading parks exactly when the last
    nonzero column keeps its label.
    """
    return _parkize_rows(_normalize(m))


def _parkize_rows(m: Matrix) -> Matrix:
    """`matrix_parkize` of a matrix that is already a tuple of tuples."""
    plan = _column_plan(tuple(map(sum, zip(*m))))
    if plan is None:
        return m
    return tuple(map(plan, m))


def mp_product(p: Matrix, q: Matrix) -> Lin:
    return _build((m, 1) for m in augmented_shuffle(p, q))


mp_mul = extend_bilinear(mp_product)


def mp_coproduct(m: Matrix) -> Lin:
    """Cut the row list in two and parkize both halves."""
    m = _normalize(m)
    return _build(((_parkize_rows(m[:k]), _parkize_rows(m[k:])), 1)
                  for k in range(len(m) + 1))


mp_comul = extend_linear(mp_coproduct)

