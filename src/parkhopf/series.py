"""The free moment-cumulant recurrence, over any ring with exact equality.

The R-transform relation M(z) = 1 + sum_s r_s z^s M(z)^s (Nica-Speicher,
Lectures on the Combinatorics of Free Probability, Lecture 10) reads
m_k = sum_{s<=k} r_s [z^(k-s)] M(z)^s.  The s = k term is r_k itself and
the others need only m_(<k) and r_(<k): one triangular recurrence, solved
for m_k by `free_moments` or for r_k by `free_cumulants`.

The ring is given as its zero, its unit and its product; its elements add
with + and subtract with -.  Over Lin each + copies the running sum, which
costs a few per cent of `catalan.g_series(12)` against `lin_sum`, so the
recurrence sums with `sum` in every ring.  The product may be
noncommutative: r_s multiplies on the left, so over NSym the moments of
the cumulants S_s are the coefficients of g = 1 + sum_s S_s g^s.
"""

from __future__ import annotations

from typing import Callable, Sequence


def _lower_terms(pw: list[list], ms: list, rs: list, zero, one,
                 mul: Callable):
    """The part sum_{s<k} r_s [z^(k-s)] M(z)^s of m_k, for k = len(pw).

    pw[s][j] = [z^j] M(z)^s holds rows s < k with s + j < k on entry; each
    row grows by its entry j = k - s, from M times row s - 1, and row k
    starts as [one].  Reads m_0 = one, ..., m_(k-1) from ms and r_s from
    rs[s - 1] for s < k; later entries of either are not read.
    """
    k = len(pw)
    pw[0].append(zero)
    for s in range(1, k):
        j, prev = k - s, pw[s - 1]
        pw[s].append(sum(map(mul, ms[:j + 1], prev[j::-1]), zero))
    pw.append([one])
    return sum(map(mul, rs, [pw[s][k - s] for s in range(1, k)]), zero)


def free_moments(cumulants: Sequence, zero, one, mul: Callable) -> list:
    """Moments m_1..m_n of the free cumulants r_1..r_n: m_k is r_k plus
    its lower terms."""
    pw, ms = [[one]], [one]
    for r in cumulants:
        ms.append(r + _lower_terms(pw, ms, cumulants, zero, one, mul))
    return ms[1:]


def free_cumulants(moments: Sequence, zero, one, mul: Callable) -> list:
    """Free cumulants r_1..r_n of the moments m_1..m_n: r_k is m_k less
    its lower terms."""
    pw, ms, rs = [[one]], [one, *moments], []
    for m in moments:
        rs.append(m - _lower_terms(pw, ms, rs, zero, one, mul))
    return rs
