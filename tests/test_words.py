"""Parking-function combinatorics: parkization, primes, orders, counts."""
from __future__ import annotations

import itertools
import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, strategies as st

from parkhopf import verify, words

random_word = st.lists(st.integers(min_value=1, max_value=9),
                       min_size=0, max_size=7).map(tuple)


@pytest.mark.parametrize("kind", words.ENUM_KINDS)
def test_enumerate_class_is_strictly_increasing(kind):
    for n in range(8):
        listed = list(words.enumerate_class(kind, n))
        assert all(x < y for x, y in zip(listed, listed[1:])), (kind, n)
        assert len(listed) == words.class_count(kind, n)


BRUTE_FILTERS = {
    "pf": words.is_parking,
    "prime": lambda w: words.is_parking(w) and words.is_prime(w),
    "nondecreasing": words.is_catalan_word,
    "connected": lambda w: words.is_parking(w) and words.is_connected(w),
}


@pytest.mark.parametrize("kind", words.ENUM_KINDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_class_matches_brute_force(kind, n):
    # product() runs lexicographically, so the filter is the reference order too
    want = [w for w in itertools.product(range(1, n + 1), repeat=n)
            if BRUTE_FILTERS[kind](w)]
    assert list(words.enumerate_class(kind, n)) == want


def test_prime_parking_functions_of_length_8():
    first = last = None
    count = 0
    for w in words.prime_parking_functions(8):
        assert last is None or last < w, w
        first = first or w
        last = w
        count += 1
    assert count == words.ppf_count(8) == 823_543
    assert first == (1,) * 8
    assert last == (7, 6, 5, 4, 3, 2, 1, 1)


@pytest.mark.parametrize("enumerate_words", [words.parking_functions,
                                             words.connected_parking_functions])
def test_enumeration_is_lazy(enumerate_words):
    # degree 12 has over 10**11 words: a lazy walk yields the first ones
    # after filling one row of its table, under 12**3 suffixes
    tracemalloc.start()
    try:
        head = list(itertools.islice(enumerate_words(12), 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert head == [(1,) * 11 + (x,) for x in range(1, 6)]
    assert peak < 1_000_000


@pytest.mark.parametrize("kind", words.ENUM_KINDS)
def test_negative_degree_is_refused(kind):
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        next(words.enumerate_class(kind, -1))
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        words.class_count(kind, -1)


def test_enumerate_class_degree_zero():
    assert list(words.enumerate_class("pf", 0)) == [()]
    assert list(words.enumerate_class("nondecreasing", 0)) == [()]
    assert list(words.enumerate_class("prime", 0)) == []
    assert list(words.enumerate_class("connected", 0)) == []


def test_is_parking():
    assert words.is_parking(())
    assert words.is_parking((1, 1, 2))
    assert words.is_parking((3, 1, 3, 2))
    assert not words.is_parking((2, 2))
    assert not words.is_parking((1, 3, 3))


def test_parkize_example():
    assert words.parkize(()) == ()
    assert words.parkize((7,)) == (1,)
    assert words.parkize((2, 2, 5)) == (1, 1, 3)


# word -> the letter its refusal names: the first below 1 in word order,
# not the smallest
PARKIZE_REFUSALS = {(0,): 0, (0, 2): 0, (3, -1, 2): -1, (3, 0, -1): 0,
                    (2, -1, 0): -1}


@pytest.mark.parametrize("w", list(PARKIZE_REFUSALS))
def test_parkize_rejects_nonpositive_letters(w):
    low = PARKIZE_REFUSALS[w]
    with pytest.raises(ValueError,
                       match=f"^letters must be positive integers, got {low}$"):
        words.parkize(w)


@pytest.mark.parametrize("w", [(0,), (0, 1), (3, -1, 2)])
def test_defect_rejects_nonpositive_letters(w):
    with pytest.raises(ValueError, match="letters must be positive integers"):
        words.defect(w)


def _parkize_by_decrement(w):
    # reference: decrement every letter above the defect until the word parks
    w = tuple(w)
    while True:
        d = words.defect(w)
        if d == len(w) + 1:
            return w
        w = tuple(x - 1 if x > d else x for x in w)


@pytest.mark.parametrize("n", range(7))
def test_parkize_matches_the_decrement_loop_on_every_small_word(n):
    for w in itertools.product(range(1, n + 3), repeat=n):
        assert words.parkize(w) == _parkize_by_decrement(w), w


def test_parkize_matches_the_decrement_loop_on_seeded_words():
    rng = random.Random(12)
    for _ in range(20_000):
        w = tuple(rng.randint(1, 20) for _ in range(rng.randint(0, 12)))
        assert words.parkize(w) == _parkize_by_decrement(w), w


@given(random_word)
def test_parkize_idempotent(w):
    p = words.parkize(w)
    assert words.is_parking(p)
    assert words.parkize(p) == p
    if words.is_parking(w):
        assert p == w


@given(random_word)
def test_parkize_preserves_pattern(w):
    p = words.parkize(w)
    for i in range(len(w)):
        for j in range(len(w)):
            assert (w[i] < w[j]) == (p[i] < p[j])


def test_standardize():
    assert words.standardize((3, 1, 3, 2)) == (3, 1, 4, 2)
    assert words.standardize((1, 1)) == (1, 2)
    assert words.inverse_permutation((3, 1, 4, 2)) == (2, 4, 1, 3)


def test_shifted_shuffle_counts():
    u, v = (1, 2), (1, 1)
    result = words.shifted_shuffle(u, v)
    assert len(result) == comb(4, 2)
    assert len(set(result)) == len(result)
    assert all(words.is_parking(w) for w in result)


def _shifted_shuffle_by_combinations(u, v):
    # reference: place u at each choice of positions, fill the rest with v
    v = words.shift(v, len(u))
    n, m = len(u), len(v)
    out = []
    for pos in itertools.combinations(range(n + m), n):
        word = [0] * (n + m)
        for i, p in enumerate(pos):
            word[p] = u[i]
        it = iter(v)
        for j in range(n + m):
            if not word[j]:
                word[j] = next(it)
        out.append(tuple(word))
    return out


def test_shifted_shuffle_matches_the_combinations_loop():
    rng = random.Random(5)
    for n in range(8):
        for m in range(8):
            u = tuple(rng.randint(1, 9) for _ in range(n))
            v = tuple(rng.randint(1, 9) for _ in range(m))
            assert words.shifted_shuffle(u, v) == \
                _shifted_shuffle_by_combinations(u, v), (u, v)


def test_shifted_shuffle_stores_getters_for_short_pairs_only():
    words.shifted_shuffle((1,) * 6, (1,) * 6)
    words.shifted_shuffle((1,) * 7, (1,) * 6)
    assert (6, 6) in words._SHUFFLE_GETTERS
    assert all(n + m <= 12 for n, m in words._SHUFFLE_GETTERS)


def test_breakpoints_and_primes():
    assert words.breakpoints((4, 1, 2, 5, 2)) == (1, 3, 4, 5)
    assert words.breakpoints((1, 1)) == (2,)
    assert words.is_prime((1, 1))
    assert not words.is_prime((1, 2))
    assert words.prime_type((4, 1, 2, 5, 2)) == (1, 2, 1, 1)
    with pytest.raises(ValueError):
        words.prime_type((2, 2))


def _breakpoints_by_parking_check(a):
    # reference: the parking test, then a second count for the breakpoints
    if not words.is_parking(a):
        raise ValueError("not a parking function")
    n = len(a)
    counts = [0] * (n + 1)
    for x in a:
        counts[x] += 1
    out = []
    seen = 0
    for b in range(1, n + 1):
        seen += counts[b]
        if seen == b:
            out.append(b)
    return tuple(out)


def _split_points_by_loop(w):
    # reference: suffix minima by an explicit backward loop
    n = len(w)
    out = []
    suffix_min = n + 2
    mins = [0] * n
    for i in range(n - 1, -1, -1):
        suffix_min = min(suffix_min, w[i])
        mins[i] = suffix_min
    for k in range(1, n):
        if mins[k] > k:
            out.append(k)
    return out


def _prime_type_by_factors(a):
    # reference: build the factors of the sorted word and take their lengths
    if not words.is_parking(a):
        raise ValueError("not a parking function")
    if len(a) == 0:
        return ()
    w = tuple(sorted(a))
    cuts = [0] + _split_points_by_loop(w) + [len(w)]
    return tuple(len(tuple(x - lo for x in w[lo:hi]))
                 for lo, hi in zip(cuts, cuts[1:]))


def _outcome(f, w):
    try:
        return f(w)
    except ValueError as exc:
        return "ValueError", str(exc)


WORD_KERNELS = [(words.breakpoints, _breakpoints_by_parking_check),
                (words.prime_type, _prime_type_by_factors),
                (words._split_points, _split_points_by_loop)]


REFUSING = (words.is_parking, words.defect, words.breakpoints, words.prime_type)


@pytest.mark.parametrize("n", range(7))
def test_word_kernels_match_their_references_on_every_small_word(n):
    # letters up to 8 exceed every length in this test, so non-parking
    # words of each kind are covered; letters below 1 take the first error
    small = range(-1, 6) if n <= 4 else ()
    for letters in (range(1, 9), small):
        for w in itertools.product(letters, repeat=n):
            for kernel, reference in WORD_KERNELS:
                assert _outcome(kernel, w) == _outcome(reference, w), w
    # the positive-letters message comes exactly when w holds a letter
    # below 1, naming the first one, wherever it stands
    for w in itertools.product(small, repeat=n):
        low = next((x for x in w if x < 1), None)
        refusal = ("ValueError", f"letters must be positive integers, got {low}")
        for f in REFUSING:
            assert (_outcome(f, w) == refusal) == (low is not None), (f, w)


def test_word_kernels_match_their_references_at_length_7():
    # every 8th parking word of length 7 (all 262 144 take about 8 s on a
    # shared two-core host), and the non-parking words that differ from one
    # of them in the last letter
    listed = words.parking_list(7)[::8]
    listed += tuple(w[:-1] + (8,) for w in listed)
    for kernel, reference in WORD_KERNELS:
        assert ([_outcome(kernel, w) for w in listed]
                == [_outcome(reference, w) for w in listed])


def test_connected_factorization():
    assert words.connected_factorization((1, 1, 3)) == ((1, 1), (1,))
    assert words.connected_factorization((1, 2, 1)) == ((1, 2, 1),)
    assert words.is_connected((1, 2, 1))
    assert not words.is_connected((1, 2, 3))


def test_descent_composition():
    assert words.descent_composition((3, 1, 3, 2)) == (1, 2, 1)
    assert words.descent_composition((1, 1, 2)) == (3,)


def test_evaluation():
    assert words.evaluation((1, 1, 3), 3) == (2, 0, 1)
    assert words.word_of_evaluation((2, 0, 1)) == (1, 1, 3)
    assert words.evaluation_composition((1, 1, 3)) == (2, 1)


# word -> the letter its refusal at n = 2 names; a letter below 1 is
# refused first, whether it stands before or after a letter above n
EVALUATION_REFUSALS = {(0, 1): 0, (1, 0): 0, (-1, 2): -1, (5, 0): 0,
                       (0, 5): 0, (5, 1, -1, 0): -1}


@pytest.mark.parametrize("w", list(EVALUATION_REFUSALS))
def test_evaluation_rejects_letters_below_one(w):
    low = EVALUATION_REFUSALS[w]
    with pytest.raises(ValueError,
                       match=f"^letters must be positive integers, got {low}$"):
        words.evaluation(w, 2)


def test_evaluation_rejects_letters_above_n():
    with pytest.raises(ValueError, match="^letter 5 exceeds evaluation length 2$"):
        words.evaluation((1, 5), 2)


def test_successors_and_closure():
    assert words.successor_closure((1, 1, 3)) == {(1, 1, 3), (1, 1, 1)}
    with pytest.raises(ValueError):
        words.successors((2, 1))


def test_noncrossing_bijection():
    assert words.is_noncrossing(((1, 3), (2, 4))) is False


def test_distinct_permutations():
    perms = list(words.distinct_permutations((1, 1, 2)))
    assert sorted(perms) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


def test_compositions_partitions():
    assert sum(1 for _ in words.compositions(5)) == 16
    assert list(words.partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                         (1, 1, 1, 1)]
    assert words.multinomial(4, (2, 2)) == 6
    assert words.multinomial(4, (2, 1, 1)) == 12


@pytest.mark.parametrize("parts", [(1, 1), (2, 2)])
def test_multinomial_rejects_parts_of_another_sum(parts):
    with pytest.raises(ValueError, match="do not sum to 3"):
        words.multinomial(3, parts)
    assert words.partition_of((1, 3, 2)) == (3, 2, 1)


def test_counts_closed_forms():
    assert [words.pf_count(n) for n in range(8)] == [
        1, 1, 3, 16, 125, 1296, 16807, 262144]
    assert [words.ppf_count(n) for n in range(1, 8)] == [
        1, 1, 4, 27, 256, 3125, 46656]
    assert [words.catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert [words.schroder_count(n) for n in range(7)] == [
        1, 1, 3, 11, 45, 197, 903]
    assert words.connected_counts(6) == [1, 2, 11, 92, 1014, 13795]


def test_enumeration_kinds():
    assert sorted(words.enumerate_class("prime", 2)) == [(1, 1)]
    assert sorted(words.enumerate_class("connected", 2)) == [(1, 1), (2, 1)]
    assert words.class_count("nondecreasing", 4) == 14
    with pytest.raises(ValueError):
        words.class_count("bogus", 3)


def test_dimension_table_checks_the_counts_against_the_labels(monkeypatch):
    assert verify.check_graded_dimensions(4)[0]
    monkeypatch.setattr(words, "catalan", lambda n: 0)
    assert verify.check_graded_dimensions(4) == (
        False, "Catalan dimension table broken")


@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_matches_counts(n):
    for kind in words.ENUM_KINDS:
        assert sum(1 for _ in words.enumerate_class(kind, n)) == \
            words.class_count(kind, n)


def test_mirror():
    assert words.mirror((1, 2, 2)) == (2, 2, 1)
    assert words.mirror(()) == ()
