"""Packed (0,1)-matrix realization."""
from __future__ import annotations

import itertools
import random
from itertools import combinations

import pytest

from parkhopf import matrices, verify, words


def test_reading():
    m = ((0, 1, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0))
    assert matrices.reading(m) == (2, 3, 1, 2)
    assert matrices.reading(()) == ()


def test_predicates():
    assert matrices.is_packed(((1, 0), (0, 1)))
    assert not matrices.is_packed(((0, 0), (1, 1)))
    assert matrices.is_word_matrix(((1, 0), (0, 1)))
    assert not matrices.is_word_matrix(((1, 1), (0, 1)))


def test_word_matrices_of_122():
    got = set(matrices.word_matrices((1, 2, 2)))
    assert got == {((1, 1, 0), (0, 1, 0)),
                   ((1, 0, 0), (0, 1, 0), (0, 1, 0))}


def test_word_matrices_width_bound():
    assert matrices.word_matrices((3, 1)) == []
    assert matrices.word_matrices((2, 2)) == [((0, 1), (0, 1))]
    assert matrices.word_matrices(()) == [()]


def test_word_matrices_roundtrip():
    assert verify.check_word_matrices(4)[0]


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


def test_matrix_parkize():
    assert matrices.matrix_parkize(((0, 1),)) == ((1,),)
    assert matrices.matrix_parkize(((0, 1), (0, 1))) == ((1,), (1,))
    stay = ((1, 1, 0), (0, 1, 0))
    assert matrices.matrix_parkize(stay) == stay
    assert verify.check_matrix_parkize(4)[0]


def test_product_matches_word_level():
    assert verify.check_matrix_product(3)[0]


def test_coproduct_matches_word_level():
    assert verify.check_matrix_coproduct(3)[0]


def test_coproduct_modes():
    m = ((1, 1, 0), (0, 1, 0))  # reads 122
    rows = matrices.mp_coproduct(m)
    assert ((), m) in [lab for lab, _ in rows.items()]
