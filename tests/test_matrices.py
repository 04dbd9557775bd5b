"""Packed (0,1)-matrix realization."""
from __future__ import annotations

import functools
import itertools
import random
from itertools import combinations

import pytest

from parkhopf import matrices, verify, words
from parkhopf.linear import _build


def test_reading():
    assert matrices.reading(()) == ()


def test_predicates():
    assert matrices.is_packed(((1, 0), (0, 1)))
    assert not matrices.is_packed(((0, 0), (1, 1)))
    assert matrices.is_word_matrix(((1, 0), (0, 1)))
    assert not matrices.is_word_matrix(((1, 1), (0, 1)))


def test_word_matrices_of_122():
    # stated once, in paper-examples/matrix-reading
    assert verify.check_example_matrices(0) == verify.OK


def test_word_matrices_width_bound():
    assert matrices.word_matrices((3, 1)) == []
    assert matrices.word_matrices((2, 2)) == [((0, 1), (0, 1))]
    assert matrices.word_matrices(()) == [()]
    with pytest.raises(ValueError):
        matrices.word_matrices((2, 0), 2)


def test_word_matrices_roundtrip():
    assert verify.check_word_matrices(4)[0]


@functools.lru_cache(maxsize=None)
def _increasing_cuts(rises):
    # reference: every set of cut positions of a word whose adjacent pairs
    # rise as `rises` says, kept when each block strictly increases; a
    # block a[lo:hi] increases when every pair inside it rises
    n = len(rises) + 1
    out = []
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            bounds = (0,) + cuts + (n,)
            spans = list(zip(bounds, bounds[1:]))
            if all(all(rises[lo:hi - 1]) for lo, hi in spans):
                out.append(spans)
    return out


def _word_matrices_by_cut_filter(a, width):
    kept = _increasing_cuts(tuple(x < y for x, y in zip(a, a[1:])))
    blocks = {span for spans in kept for span in spans}
    cols = range(1, width + 1)
    row = {(lo, hi): tuple(int(j in a[lo:hi]) for j in cols)
           for lo, hi in blocks}
    return sorted(tuple(map(row.get, spans)) for spans in kept)


@pytest.mark.parametrize("n", range(7))
def test_word_matrices_matches_the_cut_filter(n):
    for a in itertools.product(range(1, 7), repeat=n):
        if not a:
            assert matrices.word_matrices(a, 0) == [()]
            assert matrices.word_matrices(a, 1) == [()]
            continue
        for width in range(max(a), n + 2):
            assert (matrices.word_matrices(a, width)
                    == _word_matrices_by_cut_filter(a, width)), (a, width)


def _seeded_words(seed, count):
    # words of length 6 and 7 over 1..8, past the exhaustive tests' reach
    rng = random.Random(seed)
    return [tuple(rng.randint(1, 8) for _ in range(rng.choice((6, 7))))
            for _ in range(count)]


def test_word_matrices_matches_the_cut_filter_at_degrees_6_and_7():
    for a in _seeded_words(6, 1000):
        for width in range(max(a), len(a) + 3):
            assert (matrices.word_matrices(a, width)
                    == _word_matrices_by_cut_filter(a, width)), (a, width)


def test_list_matrices_act_as_tuples():
    for a in [(1, 2, 2), (3, 1, 2), (2, 3, 1, 2), (1, 1, 4)]:
        for m in matrices.word_matrices(a, len(a) + 1):
            rows = [list(row) for row in m]
            assert matrices.reading(rows) == matrices.reading(m) == a
            assert matrices.matrix_parkize(rows) == matrices.matrix_parkize(m)
            assert matrices.mp_coproduct(rows) == matrices.mp_coproduct(m)
    assert matrices.matrix_parkize([[0, 0, 0]]) == ((),)
    # a tuple whose later rows are lists is copied as a list would be
    assert matrices.matrix_parkize(((1,), [1])) == ((1,), (1,))
    assert matrices.matrix_parkize(((0, 1), [1, 0])) == ((0, 1), (1, 0))
    assert matrices.reading([]) == ()


def test_mp_coproduct_normalizes_once(monkeypatch):
    calls = []
    normalize = matrices._normalize

    def spy(m):
        calls.append(m)
        return normalize(m)

    monkeypatch.setattr(matrices, "_normalize", spy)
    m = matrices.word_matrices((3, 1, 2), 4)[0]
    want = _build(((matrices.matrix_parkize(m[:k]),
                    matrices.matrix_parkize(m[k:])), 1)
                  for k in range(len(m) + 1))
    calls.clear()
    assert matrices.mp_coproduct(m) == want
    assert calls == [m]


def test_augmented_shuffle_degree_one():
    p = ((1,),)
    got = matrices.augmented_shuffle(p, p)
    assert len(got) == 3
    readings = sorted(matrices.reading(m) for m in got)
    assert readings == [(1, 2), (1, 2), (2, 1)]


def _augmented_shuffle_by_cover(p, q):
    # reference: every pair of slot sets for p and q, kept when they cover
    rp, rq, wp, wq = len(p), len(q), matrices.width(p), matrices.width(q)
    out = set()
    for r in range(max(rp, rq), rp + rq + 1):
        slots = set(range(r))
        for alpha in combinations(range(r), rp):
            for beta in combinations(range(r), rq):
                if set(alpha) | set(beta) != slots:
                    continue
                pmap = dict(zip(alpha, p))
                qmap = dict(zip(beta, q))
                out.add(tuple(pmap.get(s, (0,) * wp) + qmap.get(s, (0,) * wq)
                              for s in range(r)))
    return sorted(out)


def test_augmented_shuffle_matches_the_cover_filter():
    rng = random.Random(4)
    labels = [a for n in range(5) for a in words.parking_list(n)]
    for _ in range(300):
        p = rng.choice(matrices.word_matrices(rng.choice(labels)))
        q = rng.choice(matrices.word_matrices(rng.choice(labels)))
        assert matrices.augmented_shuffle(p, q) == \
            _augmented_shuffle_by_cover(p, q), (p, q)


def _matrix_parkize_by_deletion(m):
    # reference: delete the (all-zero) defect column until the reading
    # parks, then trim trailing zero columns down to the number of ones
    m = tuple(tuple(row) for row in m)
    while True:
        r = matrices.reading(m)
        d = words.defect(r)
        if d == len(r) + 1:
            break
        assert all(row[d - 1] == 0 for row in m)
        m = tuple(row[: d - 1] + row[d:] for row in m)
    n = matrices.ones(m)
    while matrices.width(m) > n and not any(row[-1] for row in m):
        m = tuple(row[:-1] for row in m)
    return m


@pytest.mark.parametrize("k", range(6))
def test_matrix_parkize_matches_the_deletion_loop(k):
    for w in itertools.product(range(1, 6), repeat=k):
        for width in range(max(w, default=0), k + 3):
            for m in matrices.word_matrices(w, width):
                assert (matrices.matrix_parkize(m)
                        == _matrix_parkize_by_deletion(m)), m
    for m in [(), ((0, 0, 0),), ((0, 1, 0), (0, 0, 0)), ((0, 0), (0, 1))]:
        assert matrices.matrix_parkize(m) == _matrix_parkize_by_deletion(m), m


def test_matrix_parkize_matches_the_deletion_loop_at_degrees_6_and_7():
    for a in _seeded_words(7, 1000):
        for width in range(max(a), len(a) + 3):
            for m in matrices.word_matrices(a, width):
                assert (matrices.matrix_parkize(m)
                        == _matrix_parkize_by_deletion(m)), m


def test_matrix_parkize():
    assert matrices.matrix_parkize(((0, 1),)) == ((1,),)
    assert matrices.matrix_parkize(((0, 1), (0, 1))) == ((1,), (1,))
    stay = ((1, 1, 0), (0, 1, 0))
    assert matrices.matrix_parkize(stay) is stay  # a tuple is not copied
    assert verify.check_matrix_parkize(4)[0]


def test_product_matches_word_level():
    assert verify.check_matrix_product(3)[0]


def test_coproduct_matches_word_level():
    assert verify.check_matrix_coproduct(3)[0]


def test_coproduct_modes():
    m = ((1, 1, 0), (0, 1, 0))  # reads 122
    rows = matrices.mp_coproduct(m)
    assert ((), m) in [lab for lab, _ in rows.items()]
