"""Plain-text and JSON rendering for basis expansions."""
from __future__ import annotations

from fractions import Fraction

from .linear import Lin, sorted_items


# byte b in 1..9 -> the digit b; every other byte -> a non-digit
_DIGITS = bytes(0x30 + b if 1 <= b <= 9 else 0x2C for b in range(256))


def render_word(w) -> str:
    """Digit string when all letters fit in one digit, else comma separated.

    `w` is a sequence of integers (it is read twice).
    """
    try:
        digits = bytes(w).translate(_DIGITS)
    except ValueError:  # a letter outside 0..255
        digits = b""
    if digits.isdigit():
        return digits.decode()
    return ",".join(map(str, w))


def parse_word(s: str) -> tuple[int, ...]:
    """Inverse of render_word; raises ValueError on malformed input."""
    s = s.strip()
    if not s:
        raise ValueError("malformed word: empty")
    try:
        if "," in s:
            return tuple(int(p) for p in s.split(","))
        return tuple(int(ch) for ch in s)
    except ValueError:
        raise ValueError(f"malformed word: {s!r}") from None


def format_coeff(c) -> str:
    return str(Fraction(c))


def _term_body(label, symbol: str, render) -> str:
    text = render(label)
    return f"{symbol}{text}" if text else "1"


def lin_to_text(x: Lin, symbol: str, render=render_word) -> str:
    """Deterministic rendering, graded-lexicographic term order."""
    if not x:
        return "0"
    chunks: list[str] = []
    for label, c in sorted_items(x):
        body = _term_body(label, symbol, render)
        if abs(c) != 1:
            body = f"{format_coeff(abs(c))}*{body}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(chunks)


def lin_to_json(x: Lin, algebra: str, basis: str, encode=list) -> dict:
    """Schema: {"algebra": ..., "basis": ..., "terms": [{"idx", "c"}, ...]}."""
    return {
        "algebra": algebra,
        "basis": basis,
        "terms": [
            {"idx": encode(label), "c": format_coeff(c)}
            for label, c in sorted_items(x)
        ],
    }


def tensor_to_text(x: Lin, symbol: str, render=render_word) -> str:
    """Rendering for elements whose labels are pairs: u (x) v per term."""
    def pair(label) -> str:
        u, v = label
        return f"{_term_body(u, symbol, render)} (x) {_term_body(v, symbol, render)}"

    return lin_to_text(x, "", pair)


def tensor_to_json(x: Lin, algebra: str, basis: str, encode=list) -> dict:
    """lin_to_json with each pair label encoded as [encode(u), encode(v)]."""
    return lin_to_json(x, algebra, basis,
                       lambda label: [encode(label[0]), encode(label[1])])
