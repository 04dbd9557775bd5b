"""Words, parking functions, and the combinatorial maps between them.

Words are tuples of positive integers (letters are 1-based); the empty tuple
is the unique word of length 0.  A word of length n is a parking function
when its nondecreasing rearrangement a satisfies a[i] <= i+1 for every index.
`is_parking`, `defect`, `breakpoints`, `prime_type`, `parkize` and
`evaluation` refuse a word holding a letter below 1 with `letters must be
positive integers, got x`, x the first such letter in word order, wherever
it stands; the command line exits 3 with it.
Non-crossing partitions of [n] are stored as tuples of blocks, each block a
sorted tuple, blocks ordered by their minima.

Everything here is pure and side-effect free; the only state is a handful of
memo caches that are safe to share.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from math import comb, factorial
from operator import itemgetter, sub

Word = tuple[int, ...]
Composition = tuple[int, ...]
Partition = tuple[int, ...]
Blocks = tuple[tuple[int, ...], ...]


def _check_degree(n: int) -> None:
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")


# ---------------------------------------------------------------------------
# parking predicates and parkization

def _slack(w: Word) -> list[int]:
    """slack[b] = #{letters <= b} - b for b = 0..len(w).

    Every letter is read before any verdict, so a letter below 1 is refused
    by name wherever it stands (the first in word order).  slack[0] is 0 and
    each step, #{letters == b} - 1, lowers it by at most 1: w parks exactly
    when -1 is absent, and the index of the first -1 is the defect.
    """
    n = len(w)
    steps = [-1] * (n + 1)
    steps[0] = 0
    for x in w:
        if x < 1:
            raise _below_one(w)
        if x <= n:
            steps[x] += 1
    return list(itertools.accumulate(steps))


def _below_one(w: Word) -> ValueError | None:
    """The refusal of a word holding a letter below 1, naming the first
    such letter in word order; None when every letter is positive."""
    for x in w:
        if x < 1:
            return ValueError(f"letters must be positive integers, got {x}")
    return None


def is_parking(w: Word) -> bool:
    return -1 not in _slack(w)


def defect(w: Word) -> int:
    """Smallest i with fewer than i letters <= i; len(w)+1 when w is parking."""
    slack = _slack(w)
    return slack.index(-1) if -1 in slack else len(slack)


def parkize(w: Word) -> Word:
    """Nearest parking function below w with the same relative order (ties kept).

    One pass over sorted(w) walks the distinct values upward.  A value v
    with i - 1 letters below it keeps its gap to the previous value prev
    unless that would lift it above i, the highest a parking word allows:
    new(v) = min(new(prev) + v - prev, i), starting from new(0) = 0.
    Parking words are fixed points.
    """
    w = tuple(w)
    letters = sorted(w)
    if letters and letters[0] < 1:
        raise _below_one(w)
    new = {}
    prev = cur = 0
    for i, v in enumerate(letters, start=1):
        if v != prev:
            cur += v - prev
            if cur > i:
                cur = i
            new[v] = cur
            prev = v
    return tuple(map(new.__getitem__, w))


def standardize(w: Word) -> Word:
    """The permutation ranking letters left to right, ties broken by position."""
    order = sorted(range(len(w)), key=lambda i: (w[i], i))
    out = [0] * len(w)
    for rank, i in enumerate(order, start=1):
        out[i] = rank
    return tuple(out)


def inverse_permutation(p: Word) -> Word:
    out = [0] * len(p)
    for i, x in enumerate(p, start=1):
        out[x - 1] = i
    return tuple(out)


# ---------------------------------------------------------------------------
# shifted concatenation, shuffles

def shift(w: Word, k: int) -> Word:
    return tuple(x + k for x in w)


def shifted_concat(u: Word, v: Word) -> Word:
    return tuple(u) + shift(v, len(u))


# (len(u), len(v)) -> one itemgetter per shuffle, stored for short pairs only
_SHUFFLE_GETTERS: dict[tuple[int, int], list[itemgetter]] = {}
_SHUFFLE_TABLE_MAX = 12


def _shuffle_getters(n: int, m: int) -> list[itemgetter]:
    getters = _SHUFFLE_GETTERS.get((n, m))
    if getters is None:
        getters = []
        for pos in itertools.combinations(range(n + m), n):
            source = list(range(n, n + m))  # v's letters, in order
            for i, p in enumerate(pos):
                source.insert(p, i)
            getters.append(itemgetter(*source))
        if n + m <= _SHUFFLE_TABLE_MAX:
            _SHUFFLE_GETTERS[n, m] = getters
    return getters


def shifted_shuffle(u: Word, v: Word) -> list[Word]:
    """u shuffled with v shifted by len(u); C(|u|+|v|, |u|) words, as a list.

    The words come one per choice of positions for u, in
    itertools.combinations order.  Each choice is an itemgetter on
    u + shift(v, len(u)).  The getters are kept in a module table per
    (len(u), len(v)) when len(u) + len(v) <= 12; longer pairs build theirs
    for the one call, so memory stays bounded.
    """
    word = tuple(u) + shift(v, len(u))
    n, m = len(u), len(v)
    if not n or not m:
        return [word]
    return [g(word) for g in _shuffle_getters(n, m)]


# ---------------------------------------------------------------------------
# breakpoints, primality, connectedness

def breakpoints(a: Word) -> tuple[int, ...]:
    """Values b such that exactly b letters of the parking function a are <= b."""
    out = []
    for b, s in enumerate(_slack(a)):
        if not s:
            out.append(b)
        elif s < 0:
            raise ValueError("not a parking function")
    return tuple(out[1:])  # slack[0] is 0, and b = 0 is no breakpoint


def is_prime(a: Word) -> bool:
    """A parking function is prime when its only breakpoint is its length."""
    if len(a) == 0:
        raise ValueError("primality is undefined for the empty word")
    return breakpoints(a) == (len(a),)


def _split_points(w: Word) -> list[int]:
    # k splits w into w[:k] * (w[k:] - k) exactly when every later letter exceeds k
    mins = list(itertools.accumulate(reversed(w), min))[::-1]
    return [k for k in range(1, len(w)) if mins[k] > k]


def is_connected(w: Word) -> bool:
    """True when w admits no factorization under shifted concatenation."""
    if len(w) == 0:
        raise ValueError("connectedness is undefined for the empty word")
    return not _split_points(w)


def connected_factorization(w: Word) -> tuple[Word, ...]:
    """The unique maximal factorization w = w1 * w2 * ... under shifted concatenation.

    Valid split points compose, so cutting at every one of them at once gives
    the finest factorization; each factor is unshifted back to the alphabet
    starting at 1.
    """
    w = tuple(w)
    if not w:
        return ()
    cuts = [0] + _split_points(w) + [len(w)]
    return tuple(
        tuple(x - lo for x in w[lo:hi]) for lo, hi in zip(cuts, cuts[1:])
    )


def prime_type(a: Word) -> Composition:
    """Lengths of the maximal factors of the sorted word; equals the breakpoint gaps.

    One scan of the sorted word s does the checking: a smallest letter below
    1 is refused by naming the first such letter in word order, s[k] > k + 1
    means a is not parking, and s[k] > k (k > 0) is a cut, every later
    letter being at least s[k].
    """
    n = len(a)
    s = sorted(a)
    if n and s[0] < 1:
        raise _below_one(a)
    out = []
    last = 0
    for k, x in enumerate(s):
        if x > k:
            if x > k + 1:
                raise ValueError("not a parking function")
            if k:
                out.append(k - last)
                last = k
    if n:
        out.append(n - last)
    return tuple(out)


def mirror(w: Word) -> Word:
    return tuple(reversed(w))


# ---------------------------------------------------------------------------
# descents and compositions

def descent_composition(w: Word) -> Composition:
    if not w:
        raise ValueError("undefined for empty word")
    parts = []
    run = 1
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return tuple(parts)


def compositions(n: int):
    """Compositions of n in lexicographic order."""
    _check_degree(n)
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def coarsenings(i: Composition):
    """Compositions obtained from i by summing adjacent parts (i itself included)."""
    r = len(i)
    if r == 0:
        yield ()
        return
    for keep in itertools.product((False, True), repeat=r - 1):
        out = [i[0]]
        for part, cut in zip(i[1:], keep):
            if cut:
                out.append(part)
            else:
                out[-1] += part
        yield tuple(out)


def refinements(i: Composition):
    """Compositions refining i: each part split into an arbitrary composition."""
    if len(i) == 0:
        yield ()
        return
    for head in compositions(i[0]):
        for tail in refinements(i[1:]):
            yield head + tail


def partitions(n: int, bound: int | None = None):
    """Partitions of n, parts weakly decreasing, in reverse-lexicographic order."""
    _check_degree(n)
    if n == 0:
        yield ()
        return
    if bound is None:
        bound = n
    for first in range(min(n, bound), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partition_of(i) -> Partition:
    return tuple(sorted(i, reverse=True))


def multinomial(n: int, parts) -> int:
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out


# ---------------------------------------------------------------------------
# evaluations and the successor order on nondecreasing parking functions

def evaluation(w: Word, n: int) -> tuple[int, ...]:
    """Multiplicity vector (m_1, ..., m_n); letters below 1 or above n are
    rejected, a letter below 1 first wherever it stands."""
    ev = [0] * n
    for x in w:
        if x < 1:
            raise _below_one(w)
        if x > n:
            raise (_below_one(w)
                   or ValueError(f"letter {x} exceeds evaluation length {n}"))
        ev[x - 1] += 1
    return tuple(ev)


def word_of_evaluation(ev) -> Word:
    out = []
    for value, m in enumerate(ev, start=1):
        out.extend([value] * m)
    return tuple(out)


def evaluation_composition(w: Word) -> Composition:
    """Nonzero evaluation entries read left to right."""
    return tuple(m for m in evaluation(w, len(w)) if m)


def is_catalan_word(pi: Word) -> bool:
    return tuple(pi) == tuple(sorted(pi)) and is_parking(pi)


def successors(pi: Word) -> tuple[Word, ...]:
    """Merge two consecutive nonzero evaluation entries leftward, one pair at a time."""
    if not is_catalan_word(pi):
        raise ValueError("not a Catalan label")
    n = len(pi)
    ev = list(evaluation(pi, n))
    support = [i for i, m in enumerate(ev) if m]
    out = set()
    for left, right in zip(support, support[1:]):
        merged = ev.copy()
        merged[left] += merged[right]
        merged[right] = 0
        out.add(word_of_evaluation(merged))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def successor_closure(pi: Word) -> frozenset[Word]:
    """pi together with everything reachable by successor moves."""
    out = {pi}
    stack = [pi]
    while stack:
        for s in successors(stack.pop()):
            if s not in out:
                out.add(s)
                stack.append(s)
    return frozenset(out)


# ---------------------------------------------------------------------------
# non-crossing partitions

def is_noncrossing(blocks: Blocks) -> bool:
    for b, c in itertools.combinations(blocks, 2):
        lo, hi = (b, c) if b[0] < c[0] else (c, b)
        # hi must sit inside a single gap of lo
        i = bisect_left(lo, hi[0])
        if i < len(lo) and hi[-1] > lo[i]:
            return False
    return True


def nc_of_parking(a: Word) -> Blocks:
    """The non-crossing partition whose block minima, repeated by block size, sort to a.

    Blocks are rebuilt greedily from the largest minimum down: each minimum v of
    multiplicity m takes the m-1 smallest unused elements above v.  The parking
    condition guarantees enough room at every step.
    """
    if not is_parking(a):
        raise ValueError("not a parking function")
    n = len(a)
    mult = Counter(a)
    used = [False] * (n + 2)
    blocks = []
    for v in sorted(mult, reverse=True):
        block = [v]
        used[v] = True
        need = mult[v] - 1
        x = v + 1
        while need:
            assert x <= n
            if not used[x]:
                block.append(x)
                used[x] = True
                need -= 1
            x += 1
        blocks.append(tuple(block))
    return tuple(sorted(blocks))


def word_of_nc(blocks: Blocks) -> Word:
    """Sorted word of block minima with multiplicity equal to block size."""
    cover = sorted(x for b in blocks for x in b)
    if cover != list(range(1, len(cover) + 1)):
        raise ValueError("not a partition of an initial segment")
    if not is_noncrossing(blocks):
        raise ValueError("not non-crossing")
    out = []
    for b in blocks:
        out.extend([min(b)] * len(b))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# enumeration

# Letters placed from the completion table instead of by the walk.  Streamed,
# best of five (Python 3.11.7, shared two-core host), r = 2 / 3 / 4 took:
# pf at 7 0.119 / 0.065 / 0.096 s, connected at 7 0.138 / 0.086 / 0.160 s,
# prime at 8 0.576 / 0.224 / 0.212 s.  A shorter tail leaves more to the walk;
# a longer one gives rows that fewer prefixes share.
_TAIL = 3


def _parking_words(n: int, prime: bool = False, connected: bool = False):
    """Parking functions of length n, lexicographically; optionally prime or connected.

    A prefix of length k extends to a word of the class exactly when no
    threshold b has a deficit need[b] - #{letters <= b} above the n - k free
    positions.  need[b] is b, and b + 1 below n for prime words.  A letter l
    lifts only the thresholds >= l, so letters are tried upward with a running
    maximum of the deficits below l, and the loop stops at the first letter
    where that maximum exceeds the slack left after it.

    For connected words, `opened` holds the prefix lengths k < n whose letters
    are all <= k and after which no letter <= k has come yet: the split points
    so far.  A letter l closes every open k >= l; a word is connected when it
    ends with none open.

    The walk places the first n - _TAIL letters.  The last ones come from a
    table local to the call, keyed by the state the prefix leaves, whose entry
    lists the suffixes in order; each is filled once, by the same walk, when a
    prefix first reaches its state.  The key decides every step left:
    - the deficits, clipped at 0: a threshold already met stays met, so only
      the positive deficits prune, and they do so whatever letters made them;
    - the first open split point: every open one is below the suffix's
      positions, and a letter that closes the first closes the rest, so the
      word ends connected exactly when a suffix letter is <= the first;
    - for connected words, the top letter: a suffix position k opens a split
      point exactly when the largest letter so far is <= k + 1.
    """
    _check_degree(n)
    if n == 0:
        if not (prime or connected):
            yield ()
        return
    need = [b + 1 if prime and b < n else b for b in range(n + 1)]
    counts = [0] * (n + 1)  # counts[v] = letters equal to v placed so far
    word = [0] * n
    opened: list[int] = []
    head = max(n - _TAIL, 0)

    def walk(k: int, top: int, stop: int):
        # k letters placed so far, the largest of them `top`; yields once per
        # prefix of length `stop` < n, or once per word when `stop` is n
        if k == stop:
            yield top
            return
        slack = n - k - 1
        worst = seen = 0  # largest deficit below `letter`; letters < `letter`
        for letter in range(1, n + 1):
            word[k] = letter
            if not slack:
                if opened and letter > opened[0]:
                    return
                yield top
            else:
                counts[letter] += 1
                if connected:
                    cut = len(opened)
                    while cut and opened[cut - 1] >= letter:
                        cut -= 1
                    closed = opened[cut:]
                    high = max(top, letter)
                    opened[cut:] = [k + 1] if high <= k + 1 else []
                    yield from walk(k + 1, high, stop)
                    opened[cut:] = closed
                else:
                    yield from walk(k + 1, top, stop)
                counts[letter] -= 1
            # the next letter leaves threshold `letter` below it
            seen += counts[letter]
            if need[letter] - seen > worst:
                worst = need[letter] - seen
                if worst > slack:
                    return

    tails: dict[tuple, list[Word]] = {}
    suffixes: dict[Word, Word] = {}  # one tuple per distinct suffix, shared
    zeros = itertools.repeat(0)
    for top in walk(0, 0, head):
        deficits = map(sub, need, itertools.accumulate(counts))
        key = (tuple(map(max, deficits, zeros)), opened[0] if opened else 0,
               top if connected else 0)
        entry = tails.get(key)
        if entry is None:
            fill = (tuple(word[head:]) for _ in walk(head, top, n))
            entry = tails[key] = [suffixes.setdefault(s, s) for s in fill]
        yield from map(tuple(word[:head]).__add__, entry)


def parking_functions(n: int):
    """Parking functions of length n, lexicographically."""
    return _parking_words(n)


def prime_parking_functions(n: int):
    """Prime parking functions of length n (no breakpoint below n), lexicographically."""
    return _parking_words(n, prime=True)


def nondecreasing_parking_functions(n: int):
    """Nondecreasing parking functions of length n, lexicographically."""
    _check_degree(n)
    if n == 0:
        yield ()
        return
    word: list[int] = []

    def rec(lo: int, i: int):
        if i == n:
            yield tuple(word)
            return
        for letter in range(lo, i + 2):
            word.append(letter)
            yield from rec(letter, i + 1)
            word.pop()

    yield from rec(1, 0)


def connected_parking_functions(n: int):
    """Connected parking functions of length n (no split point), lexicographically."""
    return _parking_words(n, connected=True)


@lru_cache(maxsize=None)
def parking_list(n: int) -> tuple[Word, ...]:
    """Cached tuple of all parking functions of length n, in lexicographic order."""
    return tuple(parking_functions(n))


# ---------------------------------------------------------------------------
# counting

def pf_count(n: int) -> int:
    _check_degree(n)
    return 1 if n == 0 else (n + 1) ** (n - 1)


def ppf_count(n: int) -> int:
    _check_degree(n)
    if n == 0:
        return 0
    return (n - 1) ** (n - 1)  # 0**0 == 1 covers n == 1


def catalan(n: int) -> int:
    _check_degree(n)
    return comb(2 * n, n) // (n + 1)


def schroder_count(n: int) -> int:
    """Little Schroder numbers 1, 1, 3, 11, 45, 197, 903, ..."""
    _check_degree(n)
    if n == 0:
        return 1
    total = sum(comb(n + 1, k) * comb(2 * n - k, n - k) for k in range(n + 1))
    q, r = divmod(total, 2 * n + 2)
    assert r == 0
    return q


def connected_counts(top: int) -> list[int]:
    """Numbers of connected parking functions for n = 1..top.

    The counting series c(t) satisfies P(t) = 1 + c(t) P(t) where P is the
    parking-function series, giving an integer convolution recurrence.
    """
    _check_degree(top)
    p = [pf_count(n) for n in range(top + 1)]
    c = [0] * (top + 1)
    for n in range(1, top + 1):
        c[n] = p[n] - sum(c[k] * p[n - k] for k in range(1, n))
    return c[1:]


def connected_count(n: int) -> int:
    return connected_counts(n)[-1] if n else 0


# kind -> (generator, count) of each class the command line enumerates
_CLASSES = {
    "pf": (parking_functions, pf_count),
    "prime": (prime_parking_functions, ppf_count),
    "nondecreasing": (nondecreasing_parking_functions, catalan),
    "connected": (connected_parking_functions, connected_count),
}
ENUM_KINDS = tuple(_CLASSES)


def _enum_class(kind: str):
    try:
        return _CLASSES[kind]
    except KeyError:
        raise ValueError(f"unknown class {kind!r}") from None


def enumerate_class(kind: str, n: int):
    return _enum_class(kind)[0](n)


def class_count(kind: str, n: int) -> int:
    return _enum_class(kind)[1](n)


def distinct_permutations(w: Word):
    """All distinct rearrangements of w, lexicographically."""
    seq = sorted(w)
    n = len(seq)
    if n == 0:
        yield ()
        return
    while True:
        yield tuple(seq)
        i = n - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = reversed(seq[i + 1:])
