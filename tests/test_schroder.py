"""Hypoplactic classes: keys, class sums, the quotient product."""
from __future__ import annotations

import random
from itertools import product

import pytest

from parkhopf import fbasis, schroder, verify, words
from parkhopf.algebras import LABELS
from parkhopf.linear import Lin, tensor


def w(s):
    return tuple(int(ch) for ch in s)


def test_hypo_key_values():
    assert schroder.hypo_key(()) == ((), ())
    assert schroder.hypo_key(w("11")) == ((2, 0), (2,))
    assert schroder.hypo_key(w("12")) == ((1, 1), (2,))
    assert schroder.hypo_key(w("21")) == ((1, 1), (1, 1))


def _reference_key(a):
    # the composition hypo_key replaces: recoils of the standardized word
    if not a:
        return ((), ())
    recoils = words.descent_composition(
        words.inverse_permutation(words.standardize(a)))
    return words.evaluation(a, len(a)), recoils


def _seeded_words():
    # letters <= len(w), each word with a repeated letter; parking or not
    rng = random.Random(11)
    out = []
    for _ in range(50):
        n = rng.randint(2, 7)
        a = [rng.randint(1, n) for _ in range(n - 1)]
        a.insert(rng.randrange(n), rng.choice(a))
        out.append(tuple(a))
    return out


KEY_CASES = [a for n in range(6) for a in words.parking_list(n)] + _seeded_words()


def test_hypo_key_matches_the_standardization_reference():
    seeded = KEY_CASES[-50:]
    assert sum(not words.is_parking(a) for a in seeded) >= 10
    for a in KEY_CASES:
        assert schroder.hypo_key(a) == _reference_key(a), a


@pytest.mark.parametrize("n", range(8))
def test_classes_match_the_sorted_grouping(n):
    # at n = 7 the per-word key is hypo_key, checked above against the
    # standardization reference, which would take seconds on 262 144 words
    key = schroder.hypo_key if n == 7 else _reference_key
    want: dict = {}
    for a in sorted(words.parking_list(n)):
        want.setdefault(key(a), []).append(a)
    got = schroder.classes(n)
    assert list(got) == list(want)
    assert got == {k: tuple(v) for k, v in want.items()}


@pytest.mark.parametrize("n", range(8))
def test_class_members_are_the_listed_tuples(n):
    # the table shares the words of parking_list(n) rather than copying them
    listed = {a: a for a in words.parking_list(n)}
    for members in schroder.classes(n).values():
        assert type(members) is tuple
        assert all(a is listed[a] for a in members)


def test_classes_of_degree_zero():
    assert schroder.classes(0) == {((), ()): ((),)}


@pytest.mark.parametrize("n", range(7))
def test_recoil_pickers_match_hypo_key(n):
    for m in words.compositions(n):
        ranked = tuple(words.distinct_permutations(words.word_of_evaluation(m)))
        picked = []
        for recoils, pick in schroder._recoil_pickers(m):
            members = pick(ranked)
            assert type(members) is tuple and members, (m, recoils)
            for a in members:
                assert schroder.hypo_key(a)[1] == recoils, (m, a)
            picked.extend(members)
        assert sorted(picked) == list(ranked), m


# word -> the letter its refusal names; a letter below 1 is refused first,
# whether it stands before or after a letter above the length
HYPO_KEY_REFUSALS = {(0, 1): 0, (1, 0): 0, (2, -1): -1, (5, 0): 0, (0, 5): 0,
                     (3, 0, -1): 0}


@pytest.mark.parametrize("bad", list(HYPO_KEY_REFUSALS))
def test_hypo_key_rejects_letters_below_one(bad):
    low = HYPO_KEY_REFUSALS[bad]
    with pytest.raises(ValueError,
                       match=f"^letters must be positive integers, got {low}$"):
        schroder.hypo_key(bad)


def test_hypo_key_rejects_letters_above_length():
    with pytest.raises(ValueError, match="^letter 3 exceeds evaluation length 2$"):
        schroder.hypo_key((1, 3))


def test_key_of_word_rejects_non_parking():
    with pytest.raises(ValueError):
        schroder.key_of_word((1, 3))


def test_class_counts():
    assert [len(schroder.classes(n)) for n in range(7)] == [
        1, 1, 3, 11, 45, 197, 903]


def test_classes_partition_words():
    for n in range(1, 5):
        members = [a for key in schroder.classes(n)
                   for a in schroder.class_members(key)]
        assert sorted(members) == sorted(words.parking_list(n))


def test_representative_is_lex_min():
    key = schroder.hypo_key(w("21"))
    assert schroder.representative(key) == w("21")
    assert tuple(schroder.class_members(schroder.hypo_key(w("12")))) == (
        w("12"),)


def test_pq_expand():
    key = schroder.hypo_key(w("21"))
    assert schroder.pq_expand(key) == Lin.basis(w("21"))


def test_pq_product_degree_one():
    k1 = schroder.hypo_key(w("1"))
    got = schroder.pq_product(k1, k1)
    want = (Lin.basis(schroder.hypo_key(w("12")))
            + Lin.basis(schroder.hypo_key(w("21"))))
    assert got == want


def test_pq_closure_and_coproduct():
    assert verify.check_schroder_closure(4)[0]
    t = schroder.pq_coproduct(schroder.hypo_key(w("11")))
    empty = schroder.hypo_key(())
    one = schroder.hypo_key(w("1"))
    full = schroder.hypo_key(w("11"))
    assert t == (Lin.basis((empty, full)) + Lin.basis((one, one))
                 + Lin.basis((full, empty)))


def test_quotient_well_defined():
    assert verify.check_schroder_quotient(5)[0]


def test_qq_product_projects_convolution():
    got = schroder.qq_product(schroder.hypo_key(w("1")),
                              schroder.hypo_key(w("1")))
    keys = {schroder.hypo_key(a) for a in [w("11"), w("12"), w("21")]}
    assert set(got.labels()) == keys
    assert all(c == 1 for _, c in got.items())


def test_key_degree():
    assert schroder.key_degree(schroder.hypo_key(w("1124"))) == 4


@pytest.mark.parametrize("n", range(7))
def test_is_class_key_accepts_exactly_the_table_keys(n):
    # candidates: every evaluation vector of length n summing to n, with
    # every composition of n as its recoil composition
    table = set(schroder.classes(n))
    candidates = [(ev, r) for ev in product(range(n + 1), repeat=n)
                  if sum(ev) == n for r in words.compositions(n)]
    assert table <= set(candidates)
    assert {k for k in candidates if schroder.is_class_key(k)} == table


@pytest.mark.parametrize("key", [
    ((2, -1, 2), (3,)), ((1, 1), (1, 0, 1)), ((1, 1), ()), ((1,), (1, 1)),
    ((2,), (2,)), ((0, 2), (2,)), ((2, 0), (1, 1))])
def test_pq_product_refuses_a_key_no_word_has(key):
    one = schroder.hypo_key((1,))
    for k1, k2 in ((key, one), (one, key)):
        with pytest.raises(ValueError, match="empty class"):
            schroder.pq_product(k1, k2)


def _keys_upto(top):
    return {n: list(schroder.classes(n)) for n in range(top + 1)}


def test_pq_product_key_rule_matches_the_regrouped_f_product():
    # every key pair of degree sum <= 6, the unit key included
    keys = _keys_upto(6)
    pairs = 0
    for na, nb in product(range(7), repeat=2):
        if na + nb > 6:
            continue
        for k1, k2 in product(keys[na], keys[nb]):
            assert schroder.pq_product(k1, k2) == \
                verify.pq_product_by_regroup(k1, k2), (k1, k2)
            pairs += 1
    assert pairs == 3300


@pytest.mark.parametrize("n", range(6))
def test_pq_coproduct_splits_back_to_the_f_coproduct(n):
    for key in schroder.classes(n):
        got = Lin()
        for (u, v), c in schroder.pq_coproduct(key).items():
            got += tensor(schroder.pq_expand(u), schroder.pq_expand(v)).scale(c)
        assert got == fbasis.f_comul(schroder.pq_expand(key)), key


def test_pq_coproduct_by_regroup_raises_on_a_class_with_a_member_missing(monkeypatch):
    key = schroder.hypo_key(w("2131"))
    members = schroder.class_members(key)
    assert len(members) > 2
    real = schroder.class_members
    monkeypatch.setattr(schroder, "class_members",
                        lambda k: real(k)[1:] if k == key else real(k))
    with pytest.raises(ValueError, match="not constant on class"):
        verify.pq_coproduct_by_regroup(key)


def test_pq_coproduct_raises_when_a_class_pair_count_is_not_divisible(monkeypatch):
    # a cut table with one count too many cannot be a whole number of
    # copies of every class pair
    key = schroder.hypo_key(w("2131"))
    real = schroder._class_walk

    def extra(m, recoils):
        patterns, cuts = real(m, recoils)
        (c, ((r1, r2, n), *row)), *rest = cuts
        return patterns, ((c, ((r1, r2, n + 1), *row)), *rest)

    monkeypatch.setattr(schroder, "_class_walk", extra)
    with pytest.raises(ValueError, match="not constant on class"):
        schroder.pq_coproduct(key)


@pytest.mark.parametrize("n", range(8))
def test_class_members_sizes_and_labels_match_the_class_table(n):
    # the table groups every parking function of degree n by hypo_key
    table = schroder.classes(n)
    assert LABELS["Pq"](n) == LABELS["Q"](n) == sorted(table)
    for key, members in table.items():
        assert schroder.class_members(key) == members, key
        assert schroder.representative(key) == members[0], key
        assert schroder.class_size(key) == len(members), key


@pytest.mark.parametrize("n", range(7))
def test_pq_coproduct_matches_the_regrouped_f_coproduct(n):
    for key in schroder.classes(n):
        assert schroder.pq_coproduct(key) == \
            verify.pq_coproduct_by_regroup(key), key


def test_pq_coproduct_matches_the_regrouped_f_coproduct_at_degree_7():
    keys = random.Random(7).sample(list(schroder.classes(7)), 150)
    for key in keys:
        assert schroder.pq_coproduct(key) == \
            verify.pq_coproduct_by_regroup(key), key


@pytest.mark.parametrize("key", [((2,), (2,)), ((1, 1), (1, 0, 1)),
                                 ((0, 2), (2,)), ((2, 0), (1, 1))])
def test_key_routes_refuse_a_key_no_word_has(key):
    for route in (schroder.class_members, schroder.representative,
                  schroder.class_size, schroder.pq_coproduct):
        with pytest.raises(ValueError, match="empty class"):
            route(key)


def test_closure_check_fails_on_a_product_missing_a_term(monkeypatch):
    real = schroder.pq_product

    def dropped(k1, k2):
        terms = list(real(k1, k2).items())
        return Lin(dict(terms[1:]))

    monkeypatch.setattr(schroder, "pq_product", dropped)
    ok, detail = verify.check_schroder_closure(3)
    assert not ok and "differs from the key rule" in detail


def _corrupt_coproduct(monkeypatch, change):
    real = schroder.pq_coproduct

    def corrupted(key):
        terms = list(real(key).items())
        return Lin(dict(change(terms) if len(terms) > 2 else terms))

    monkeypatch.setattr(schroder, "pq_coproduct", corrupted)
    ok, detail = verify.check_schroder_closure(3)
    assert not ok and "class coproduct differs from the key rule" in detail


def test_closure_check_fails_on_a_coproduct_missing_a_term(monkeypatch):
    _corrupt_coproduct(monkeypatch, lambda terms: terms[1:])


def test_closure_check_fails_on_a_coproduct_with_a_doubled_coefficient(monkeypatch):
    _corrupt_coproduct(
        monkeypatch, lambda terms: [(terms[0][0], 2 * terms[0][1])] + terms[1:])
