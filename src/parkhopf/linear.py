"""Free modules over the rationals with hashable basis labels.

A Lin is an immutable-ish sparse vector: a dict from label to a nonzero
coefficient, stored as an ``int`` when it is integral and as a ``Fraction``
otherwise (``_coerce`` is that normal form).  ``Fraction(2) == 2`` and the
two hash alike, so equality does not depend on the form.  Labels can be
anything hashable — words, pairs of words for tensor squares, compositions —
so every algebra in the package shares this one class and the handful of
free functions below.

There is one way to sum many terms: ``_build`` (for (label, coefficient)
pairs) or ``lin_sum`` (for Lins), which fill one fresh dict in place and
freeze it.  ``+`` and ``-`` are two-operand conveniences; each copies its
left operand, so a loop of ``+=`` copies the running sum on every term.  A
Lin that has been returned is never mutated, so cached results can be
shared.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from numbers import Rational
from typing import Any, Callable, Iterable, Iterator, Sequence

Label = Any


def _coerce(c) -> int | Fraction:
    """c as stored: an int when integral, a Fraction otherwise."""
    if type(c) is int:
        return c
    if not isinstance(c, (Rational, str)):
        raise TypeError(f"non-exact coefficient {c!r}")
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Lin:
    """Finite rational linear combination of basis labels.

    Each coefficient is nonzero, an int when integral and a Fraction
    otherwise.
    """

    __slots__ = ("_t",)

    def __init__(self, terms: dict[Label, int | Fraction] | None = None):
        self._t: dict[Label, int | Fraction] = {}
        if terms:
            for k, c in terms.items():
                c = _coerce(c)
                if c:
                    self._t[k] = c

    @staticmethod
    def basis(label: Label, c=1) -> "Lin":
        return Lin({label: _coerce(c)})

    @staticmethod
    def zero() -> "Lin":
        return Lin()

    # -- container protocol ------------------------------------------------

    def coeff(self, label: Label) -> int | Fraction:
        return self._t.get(label, 0)

    def items(self) -> Iterator[tuple[Label, int | Fraction]]:
        return iter(self._t.items())

    def labels(self):
        return self._t.keys()

    def __len__(self) -> int:
        return len(self._t)

    def __bool__(self) -> bool:
        return bool(self._t)

    def __iter__(self):
        return iter(self._t)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Lin") -> "Lin":
        return self._plus(other._t.items())

    def __neg__(self) -> "Lin":
        r = Lin()
        r._t = {k: -c for k, c in self._t.items()}
        return r

    def __sub__(self, other: "Lin") -> "Lin":
        return self._plus((k, -c) for k, c in other._t.items())

    def _plus(self, terms: Iterable[tuple[Label, int | Fraction]]) -> "Lin":
        out = dict(self._t)
        for k, c in terms:
            s = out.get(k, 0) + c
            if type(s) is not int:
                s = _coerce(s)
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        r = Lin()
        r._t = out
        return r

    def scale(self, c) -> "Lin":
        c = _coerce(c)
        if not c:
            return Lin()
        return _freeze({k: v * c for k, v in self._t.items()})

    def __mul__(self, c):
        if isinstance(c, (int, Fraction, Rational)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Lin) and self._t == other._t

    def __hash__(self):
        raise TypeError("Lin is not hashable")

    def __repr__(self) -> str:
        if not self._t:
            return "Lin(0)"
        parts = ", ".join(f"{k!r}: {c}" for k, c in sorted_items(self))
        return f"Lin({{{parts}}})"

    def map_labels(self, f: Callable[[Label], Label]) -> "Lin":
        """Relabel basis elements, collecting collisions."""
        return _build((f(k), c) for k, c in self._t.items())


def _build(terms: Iterable[tuple[Label, Any]]) -> Lin:
    """Sum (label, coefficient) pairs into one fresh Lin.

    The pairs are added into a private dict in place and frozen by
    ``_freeze``.  The result never shares its dict with any other Lin.
    """
    acc: dict[Label, Any] = {}
    get = acc.get
    for k, c in terms:
        acc[k] = get(k, 0) + c
    return _freeze(acc)


def _freeze(acc: dict[Label, Any]) -> Lin:
    """Wrap a private dict of sums as a Lin, taking ownership of it.

    Every sum that is not an int goes through ``_coerce``: an integral
    Fraction becomes an int and a float raises.  ``acc`` itself becomes
    the Lin's dict; a filtered copy is made only when some sum is 0.
    """
    zero = False
    for k, c in acc.items():
        if type(c) is not int:
            c = acc[k] = _coerce(c)
        if not c:
            zero = True
    r = Lin.__new__(Lin)
    r._t = {k: c for k, c in acc.items() if c} if zero else acc
    return r


def lin_sum(items: Iterable[Lin]) -> Lin:
    return _build(kc for x in items for kc in x._t.items())


def term_key(label) -> tuple:
    """Graded-lexicographic sort key for word-like or pair-of-words labels."""
    if isinstance(label, tuple) and label and isinstance(label[0], tuple):
        return tuple(term_key(part) for part in label)
    return (len(label), label) if isinstance(label, tuple) else (0, label)


def sorted_items(v: Lin) -> list[tuple[Label, int | Fraction]]:
    return sorted(v.items(), key=lambda kv: term_key(kv[0]))


def extend_linear(f: Callable[[Label], Lin]) -> Callable[[Lin], Lin]:
    def ext(v: Lin) -> Lin:
        return _build((k2, c * c2) for k, c in v.items()
                      for k2, c2 in f(k).items())

    return ext


def extend_bilinear(f: Callable[[Label, Label], Lin]) -> Callable[[Lin, Lin], Lin]:
    def ext(u: Lin, v: Lin) -> Lin:
        return _build((k, c1 * c2 * c) for k1, c1 in u.items()
                      for k2, c2 in v.items() for k, c in f(k1, k2).items())

    return ext


def tensor(u: Lin, v: Lin) -> Lin:
    """Tensor product; labels become (label_u, label_v) pairs."""
    return _build(((k1, k2), c1 * c2) for k1, c1 in u.items()
                  for k2, c2 in v.items())


def dual_pairing(u: Lin, v: Lin) -> int | Fraction:
    """<u, v> treating equal labels as dual pairs."""
    small, big = (u, v) if len(u) <= len(v) else (v, u)
    return sum(c * big.coeff(k) for k, c in small.items())


def tensor_mul(mul: Callable[[Label, Label], Lin]) -> Callable[[Lin, Lin], Lin]:
    """Componentwise product on tensor squares: (a(x)b)(c(x)d) = ac (x) bd."""

    def prod(x: Lin, y: Lin) -> Lin:
        return _build((k, c1 * c2 * c) for (a1, a2), c1 in x.items()
                      for (b1, b2), c2 in y.items()
                      for k, c in tensor(mul(a1, b1), mul(a2, b2)).items())

    return prod


def tensor_map(left: Callable[[Label], Lin], right: Callable[[Label], Lin]) -> Callable[[Lin], Lin]:
    """Apply label maps to the two legs of a tensor element."""

    def apply(x: Lin) -> Lin:
        # each leg is mapped once per tensor term
        return _build(((k1, k2), c * c1 * c2) for (a, b), c in x.items()
                      for la, rb in [(left(a), right(b))]
                      for k1, c1 in la.items()
                      for k2, c2 in rb.items())

    return apply


def invert_unitriangular(
    labels: Sequence[Label],
    expand: Callable[[Label], Lin],
) -> dict[Label, Lin]:
    """Invert a change of basis that is unitriangular in the given label order.

    ``expand(b)`` writes basis element b of the source family in the target
    family; the matrix must have unit diagonal and be triangular with respect
    to the order of ``labels`` (either all strictly-upper or all
    strictly-lower off-diagonal support — the direction is discovered).
    Returns target basis elements written in the source family.
    """
    index = {b: i for i, b in enumerate(labels)}
    rows = {b: expand(b) for b in labels}
    direction = 0  # +1 upper (entries at later labels), -1 lower
    for b in labels:
        row = rows[b]
        if row.coeff(b) != 1:
            raise ValueError("triangularity violated")
        for k in row:
            if k == b:
                continue
            if k not in index:
                raise ValueError("triangularity violated")
            d = 1 if index[k] > index[b] else -1
            if direction == 0:
                direction = d
            elif direction != d:
                raise ValueError("triangularity violated")
    order = reversed(labels) if direction >= 0 else labels
    inv: dict[Label, Lin] = {}
    for b in order:
        inv[b] = _build(chain([(b, 1)], (kc for k, c in rows[b].items()
                                          if k != b
                                          for kc in inv[k].scale(-c).items())))
    return inv

