"""Command-line interface: enumeration, algebra operations on all bases,
coefficient series, moment/cumulant conversion, and the verification runner.

Exit codes: 0 success, 1 verification failure, 2 safety-bound violation,
3 malformed input.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from fractions import Fraction
from itertools import islice
from math import log10

from . import words
from .algebras import ANTIPODE, BASES, COMUL, MUL, SUITES
from .jsonio import (format_coeff, lin_to_json, lin_to_text, render_word,
                     tensor_to_json, tensor_to_text)

ENUM_BOUND = 8
SERIES_BOUND = 12
DEGREE_BOUND = 5
CUMULANT_BOUND = 20
CUMULANT_DIGITS = 64  # per numerator or denominator; PARKHOPF_MAX_N leaves it
ENUM_BLOCK = 4096  # words per write of the enum stream
TOKEN_SHOWN = 40  # characters of a bad term an error message repeats


class _Refused(Exception):
    """Malformed input found below a subcommand: exit 3 with its message."""


def _bound(default: int) -> int:
    """The default bound, raised (never lowered) by PARKHOPF_MAX_N."""
    env = os.environ.get("PARKHOPF_MAX_N")
    if not env:
        return default
    try:
        return max(default, int(env))
    except ValueError:
        raise _Refused(
            f"malformed PARKHOPF_MAX_N: {env!r} is not an integer") from None


def _die(code: int, msg: str) -> int:
    print(f"parkhopf: {msg}", file=sys.stderr)
    return code


def _open_out(args):
    """The --out file opened for writing, or None without --out."""
    if not args.out:
        return None
    try:
        return open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise _Refused(f"cannot write {args.out}: {exc.strerror}") from None


def _check_out(args) -> None:
    """Refuse an --out path whose directory is missing or unwritable, or
    that is a directory, before any work and creating no file; `_open_out`
    still reports what only opening finds."""
    if not args.out:
        return
    parent = os.path.dirname(os.path.abspath(args.out))
    if os.path.isdir(args.out):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise _Refused(f"cannot write {args.out}: {os.strerror(code)}")


def _emit(args, text, payload) -> None:
    """Print text or JSON; also write JSON to --out.  `text` and `payload`
    are thunks, and only the forms printed or written are built.

    The file is opened first, so an unwritable --out prints nothing."""
    out = _open_out(args)
    try:
        doc = payload() if args.format == "json" or out else None
        print(json.dumps(doc, sort_keys=True) if args.format == "json"
              else text())
        if out:
            json.dump(doc, out, sort_keys=True, indent=2)
            out.write("\n")
    finally:
        if out:
            out.close()


# ---------------------------------------------------------------------------
# subcommands

def cmd_enum(args) -> int:
    if args.n < 0:
        return _die(3, f"n must be nonnegative, got {args.n}")
    bound = _bound(ENUM_BOUND)
    if args.n > bound:
        return _die(2, f"enumeration bound exceeded: n={args.n} > {bound}")
    _check_out(args)
    if args.count_only:
        count = words.class_count(args.kind, args.n)
        _emit(args, lambda: str(count),
              lambda: {"kind": args.kind, "n": args.n, "count": count})
        return 0
    # every class generator yields in lexicographic order
    listed = words.enumerate_class(args.kind, args.n)
    sinks = [_enum_sink(sys.stdout, args, None) if args.format == "json"
             else (sys.stdout, "", render_word, "\n", "\n", "")]
    out = _open_out(args)
    try:
        if out:
            sinks.append(_enum_sink(out, args, 2))
        # one write per sink per block of words: each write to an
        # unbuffered stdout (PYTHONUNBUFFERED) is a system call
        first = True
        while block := list(islice(listed, ENUM_BLOCK)):
            for fh, head, render, sep, _tail, _empty in sinks:
                fh.write((head if first else sep) + sep.join(map(render, block)))
            first = False
        for fh, _head, _render, _sep, tail, empty in sinks:
            fh.write(empty if first else tail)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`| head`); the interpreter's final
        # flush would fail again unless stdout goes somewhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    finally:
        if out:
            out.close()
    return 0


def _enum_sink(fh, args, indent: int | None):
    """(file, head, render, separator, tail, empty form) writing the enum
    payload as json.dump(..., sort_keys=True, indent=indent) would, plus a
    final newline."""
    kind = json.dumps(args.kind)
    if indent is None:
        head = f'{{"kind": {kind}, "n": {args.n}, "words": '
        return (fh, head + "[", lambda a: "[" + ", ".join(map(str, a)) + "]",
                ", ", "]}\n", head + "[]}\n")
    head = f'{{\n  "kind": {kind},\n  "n": {args.n},\n  "words": '
    return (fh, head + "[\n",
            lambda a: "    [\n      " + ",\n      ".join(map(str, a)) + "\n    ]"
            if a else "    []",
            ",\n", "\n  ]\n}\n", head + "[]\n}\n")


OPS = {
    # command: (table, arity, noun, text renderer, JSON encoder)
    "mul": (MUL, 2, "product", lin_to_text, lin_to_json),
    "comul": (COMUL, 1, "coproduct", tensor_to_text, tensor_to_json),
    "antipode": (ANTIPODE, 1, "antipode", lin_to_text, lin_to_json),
}


def cmd_op(args) -> int:
    table, _arity, noun, to_text, to_json = OPS[args.command]
    algebra, symbol, parse, render, encode = BASES[args.basis]
    try:
        labels = [parse(t) for t in args.labels]
        op = table.get(args.basis)
        if op is None:
            raise ValueError(f"{noun} not available in basis {args.basis}")
        if args.basis in ("Pq", "Q"):
            # a class is walked from its key, members and cuts, and a Q
            # product multiplies representatives: the output degree keeps
            # the enumeration bound until a budget by output size replaces it
            from . import schroder
            degree = sum(map(schroder.key_degree, labels))
            bound = _bound(ENUM_BOUND)
            if degree > bound:
                return _die(2, "class operation bound exceeded: "
                               f"output degree {degree} > {bound}")
        _check_out(args)
        result = op(*labels)
    except ValueError as exc:
        return _die(3, str(exc))
    _emit(args, lambda: to_text(result, symbol, render),
          lambda: to_json(result, algebra, args.basis, encode))
    return 0


def cmd_series(args) -> int:
    if args.N < 0:
        return _die(3, f"N must be nonnegative, got {args.N}")
    bound = _bound(SERIES_BOUND)
    if args.N > bound:
        return _die(2, f"series bound exceeded: N={args.N} > {bound}")
    _check_out(args)
    n = args.N
    if args.which == "connected":
        coeffs = words.connected_counts(n)
    elif args.which == "lie":
        from . import gbasis
        coeffs = gbasis.lie_generator_series(n)
    elif args.which == "schroder":
        coeffs = [words.schroder_count(k) for k in range(n + 1)]
    else:  # g
        from . import catalan
        g = catalan.g_series(n)
        _emit(args, lambda: "\n".join(f"g_{k} = " + lin_to_text(g[k], "S^")
                                      for k in range(1, n + 1)),
              lambda: {"series": "g", "N": n,
                       "degrees": [lin_to_json(g[k], "NSym", "S")
                                   for k in range(1, n + 1)]})
        return 0
    _emit(args, lambda: " ".join(str(c) for c in coeffs),
          lambda: {"series": args.which, "N": n, "coefficients": list(coeffs)})
    return 0


def _bad_term(what: str, tok: str) -> ValueError:
    """An error naming one term of a rational list, cut to TOKEN_SHOWN
    characters, so a long argument is not echoed back whole."""
    shown = repr(tok[:TOKEN_SHOWN]) + ("…" if len(tok) > TOKEN_SHOWN else "")
    return ValueError(f"{what}: {shown}")


def _parse_rationals(text: str) -> list[Fraction]:
    """Integers, fractions and decimals; exponent notation is refused, as
    `Fraction` would build 10^k for any k it is given.  An error names the
    first bad term: an empty one, then one in exponent notation, then one
    `Fraction` refuses."""
    toks = [t.strip() for t in text.split(",")]
    for t in toks:
        if not t:
            raise _bad_term("malformed rational list", t)
    for t in toks:
        if "e" in t.lower():
            raise _bad_term("exponent notation is not accepted", t)
    out = []
    for t in toks:
        try:
            out.append(Fraction(t))
        except (ValueError, ZeroDivisionError) as exc:
            raise _bad_term("malformed rational list", t) from exc
    return out


def _digits(x: int) -> int:
    """Decimal digits of |x|, counted without `str`, which refuses an int
    longer than the interpreter's limit (a decimal's denominator can be)."""
    x = abs(x)
    if not x:
        return 1
    k = int(log10(x)) + 1  # the float can be one off near a power of ten
    if x < 10 ** (k - 1):
        return k - 1
    return k + 1 if x >= 10 ** k else k


def cmd_cumulants(args) -> int:
    source = args.moments if args.moments is not None else args.cumulants
    try:
        seq = _parse_rationals(source)
    except ValueError as exc:
        return _die(3, str(exc))
    bound = _bound(CUMULANT_BOUND)
    if len(seq) > bound:
        return _die(2, f"sequence bound exceeded: {len(seq)} > {bound}")
    digits = max(_digits(part) for c in seq
                 for part in (c.numerator, c.denominator))
    if digits > CUMULANT_DIGITS:
        return _die(2, f"digit bound exceeded: {digits} > {CUMULANT_DIGITS}")
    _check_out(args)
    from . import symfun
    if args.moments is not None:
        out = symfun.moments_to_cumulants(seq)
        direction = "moments->cumulants"
        moments, cumulants = seq, out
    else:
        out = symfun.cumulants_to_moments(seq)
        direction = "cumulants->moments"
        moments, cumulants = out, seq
    if args.check:
        for n in range(1, len(seq) + 1):
            if symfun.nc_moment(cumulants, n) != moments[n - 1]:
                return _die(1, f"partition oracle mismatch at degree {n}")
    try:
        given = [format_coeff(c) for c in seq]
        rendered = [format_coeff(c) for c in out]
    except ValueError:  # the interpreter's int-to-str digit limit
        return _die(2, "output bound exceeded: a term has more than "
                       f"{sys.get_int_max_str_digits()} digits")
    _emit(args, lambda: ",".join(rendered),
          lambda: {"direction": direction, "input": given, "output": rendered})
    return 0


def cmd_verify(args) -> int:
    if args.max_degree < 0:
        return _die(3, f"--max-degree must be nonnegative, got {args.max_degree}")
    bound = _bound(DEGREE_BOUND)
    if args.max_degree > bound:
        return _die(2, f"degree bound exceeded: {args.max_degree} > {bound}")
    _check_out(args)
    from . import verify  # only this command pays for the suites' import
    results = verify.run(args.suite, args.max_degree)
    lines = []
    failed = 0
    for r in results:
        if r.kind == "report":
            lines.append(f"REPORT {r.suite}/{r.name}: {r.detail}")
        elif r.ok:
            lines.append(f"PASS   {r.suite}/{r.name}")
        else:
            failed += 1
            lines.append(f"FAIL   {r.suite}/{r.name}: {r.detail}")
    checks = sum(1 for r in results if r.kind == "check")
    lines.append(f"{checks - failed}/{checks} checks passed")
    _emit(args, lambda: "\n".join(lines),
          lambda: {"suite": args.suite, "max_degree": args.max_degree,
                   "results": [{"suite": r.suite, "name": r.name, "ok": r.ok,
                                "kind": r.kind, "detail": r.detail}
                               for r in results]})
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: exit 3, not argparse's 2.  The
    subcommand parsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="FILE.json", default=None)

    top = _Parser(
        prog="parkhopf",
        description="Exact computations in the parking-function Hopf algebras.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", parents=[common],
                       help="enumerate a class of parking functions")
    p.add_argument("kind", choices=words.ENUM_KINDS)
    p.add_argument("n", type=int)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_enum)

    for name, (_table, arity, *_) in OPS.items():
        p = sub.add_parser(name, parents=[common],
                           help=f"{name} in a chosen basis")
        p.add_argument("--basis", choices=sorted(BASES), default="F")
        p.add_argument("labels", nargs=arity, metavar="WORD")
        p.set_defaults(fn=cmd_op)

    p = sub.add_parser("series", parents=[common],
                       help="print coefficient series")
    p.add_argument("which", choices=("connected", "lie", "schroder", "g"))
    p.add_argument("N", type=int)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("cumulants", parents=[common],
                       help="convert between moments and free cumulants")
    group = p.add_mutually_exclusive_group(required=True)
    for name in ("moments", "cumulants"):
        group.add_argument(f"--{name}", help="comma-separated rationals; a list "
                           f"that starts with a minus sign is --{name}=-1,2")
    p.add_argument("--check", action="store_true",
                   help="also replay the conversion through the "
                        "noncrossing-partition sum formula")
    p.set_defaults(fn=cmd_cumulants)

    p = sub.add_parser("verify", parents=[common],
                       help="run the verification suites")
    p.add_argument("--suite", default="all",
                   choices=("all",) + SUITES)
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(fn=cmd_verify)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _Refused as exc:
        return _die(3, str(exc))


if __name__ == "__main__":
    sys.exit(main())
