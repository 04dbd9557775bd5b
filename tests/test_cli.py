"""Command-line contract: outputs, exit codes, bounds, JSON schema."""
from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from parkhopf import (algebras, catalan, cli, fbasis, gbasis, schroder, verify,
                      words)
from parkhopf.cli import main
from parkhopf.jsonio import render_word
from parkhopf.linear import Lin

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_commands():
    """(argv, comment) for each line of the README's command block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    for line in block.split("```", 1)[0].splitlines():
        command, _, comment = line.partition("#")
        yield command.split()[1:], comment.strip()


def test_readme_command_block(capsys, monkeypatch):
    # each `parkhopf ...` line prints what its comment says: the whole output,
    # or its head and "(k terms)"; the verify line is left to test_verify_*
    monkeypatch.delenv("PARKHOPF_MAX_N", raising=False)
    commands = list(_readme_commands())
    assert len(commands) == 15 and commands[-1][0][0] == "verify"
    for argv, comment in commands[:-1]:
        code, out, _ = run(capsys, *argv)
        out = out.strip()
        head, dots, count = comment.partition(" ... (")
        if dots:
            terms = len(re.split(r"\n| [+-] ", out))
            assert (code, count) == (0, f"{terms} terms)"), argv
            assert out.startswith(head), argv
        else:
            assert (code, out) == (0, comment), argv


def test_enum_count(capsys):
    # --count-only prints the length of the class the stream lists
    for kind in words.ENUM_KINDS:
        count, listed = (run(capsys, "enum", kind, "4", *flag)[1]
                         for flag in (["--count-only"], []))
        assert int(count) == len(listed.splitlines()) > 0, kind


def test_enum_bound(capsys):
    code, _, err = run(capsys, "enum", "pf", "9")
    assert code == 2 and "bound" in err


def test_enum_bound_override(capsys, monkeypatch):
    monkeypatch.setenv("PARKHOPF_MAX_N", "9")
    code, out, _ = run(capsys, "enum", "pf", "9", "--count-only")
    assert code == 0 and out.strip() == str(10 ** 8)


def test_bound_override_only_raises(capsys, monkeypatch):
    monkeypatch.setenv("PARKHOPF_MAX_N", "9")
    moments = ",".join(["1"] * 10)
    code, out, _ = run(capsys, "cumulants", "--moments", moments)
    assert code == 0 and out.strip()
    monkeypatch.setenv("PARKHOPF_MAX_N", "3")
    code, out, _ = run(capsys, "enum", "pf", "4", "--count-only")
    assert code == 0 and out.strip() == "125"


def test_enum_bound_override_malformed(capsys, monkeypatch):
    for value in ("nine", "9.5"):
        monkeypatch.setenv("PARKHOPF_MAX_N", value)
        code, out, err = run(capsys, "enum", "pf", "3", "--count-only")
        assert code == 3 and out == "" and "PARKHOPF_MAX_N" in err


def test_enum_text_streams_the_json_words(capsys):
    code, text, _ = run(capsys, "enum", "connected", "4")
    assert code == 0
    code, doc, _ = run(capsys, "enum", "connected", "4", "--format", "json")
    assert code == 0
    listed = ["".join(map(str, a)) for a in json.loads(doc)["words"]]
    assert text.splitlines() == listed and len(listed) == 92


@pytest.mark.parametrize("kind, listed", [("prime", []), ("pf", [[]])],
                         ids=["prime", "pf"])
def test_enum_empty_class_with_out_file(capsys, tmp_path, kind, listed):
    # no words, and one empty word (one empty line on stdout): the file
    # is json.dump's, byte for byte
    target = tmp_path / "f.json"
    code, out, _ = run(capsys, "enum", kind, "0", "--out", str(target))
    payload = {"kind": kind, "n": 0, "words": listed}
    assert code == 0 and out == "\n" * len(listed)
    assert target.read_text() == json.dumps(payload, sort_keys=True,
                                            indent=2) + "\n"


def test_enum_json_streams_the_class():
    # 262 144 words: holding them as lists takes about 70 MB, a block 1 MB
    with open(os.devnull, "w", encoding="utf-8") as null, redirect_stdout(null):
        tracemalloc.start()
        try:
            assert main(["enum", "pf", "7", "--format", "json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 8_000_000


def test_enum_into_a_closed_pipe_exits_quietly():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen([sys.executable, "-m", "parkhopf.cli",
                           "enum", "pf", "7"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"1111111\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 0 and err == b""


def test_enum_pf_7_through_an_unbuffered_pipe():
    # the text is written in blocks; the bytes are the recorded corpus digest
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    env.pop("PARKHOPF_MAX_N", None)
    proc = subprocess.run([sys.executable, "-m", "parkhopf.cli",
                           "enum", "pf", "7"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.returncode == 0 and proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "4936cafbf55955b056abcb8e7c1233072d5729c32cc51c3e2188e0f5025f6c17")


_FOOTPRINT = """import sys
from parkhopf.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(*sorted(m for m in sys.modules if m.startswith("parkhopf.")))
sys.exit(code)
"""
_CLI_MODULES = {"parkhopf.cli", "parkhopf.algebras", "parkhopf.jsonio",
                "parkhopf.linear", "parkhopf.words"}


@pytest.mark.parametrize("argv, more", [
    ([], set()),
    (["enum", "pf", "3", "--count-only"], set()),
    (["mul", "--basis", "F", "12", "11"], {"fbasis"}),
    (["comul", "--basis", "G", "41252"], {"fbasis", "gbasis"}),
    (["cumulants", "--moments", "0,1,0,2"], {"series", "symfun"}),
], ids=["import", "enum", "mul-F", "comul-G", "cumulants"])
def test_cli_loads_only_the_modules_its_command_runs(argv, more):
    # exactly these: an import that comes back to the top of a module
    # (`verify` included) shows here
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PARKHOPF_MAX_N", None)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _FOOTPRINT,
                           *argv], env=env, stdout=subprocess.PIPE, check=True)
    loaded = proc.stdout.decode().splitlines()[-1].split()
    assert set(loaded) == _CLI_MODULES | {f"parkhopf.{m}" for m in more}


@pytest.mark.parametrize("table, basis, module, name, args", [
    ("MUL", "F", fbasis, "f_product", ((1, 2), (1, 1))),
    ("COMUL", "G", gbasis, "g_coproduct", ((4, 1, 2, 5, 2),)),
    ("ANTIPODE", "G", gbasis, "g_antipode_lin", ((1, 2, 2),)),
    ("MUL", "P", catalan, "p_product", ((1,), (1, 2))),
], ids=["F-mul", "G-comul", "G-antipode", "P-mul"])
def test_table_entries_look_their_function_up_on_each_call(
        monkeypatch, table, basis, module, name, args):
    # the tracer in perfbench replaces module attributes; calls made through
    # the tables must reach the replacement, also once the entry has run
    assert getattr(cli, table) is getattr(algebras, table)
    entry = getattr(algebras, table)[basis]
    want = entry(*args)
    original, seen = getattr(module, name), []

    def spy(*a):
        seen.append(a)
        return original(*a)
    monkeypatch.setattr(module, name, spy)
    assert entry(*args) == want and getattr(cli, table)[basis](*args) == want
    assert len(seen) == 2


def _render_word_reference(w) -> str:
    # the per-letter definition render_word replaced
    w = tuple(w)
    if not w:
        return ""
    if all(1 <= x <= 9 for x in w):
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def test_render_word_matches_the_per_letter_definition():
    cases = [(), (10,), (300, 1), (-1, 2)]
    for n in range(1, 7):
        cases.extend(words.parking_functions(n))
    rng = random.Random(7)
    cases.extend(tuple(rng.randint(0, 12) for _ in range(rng.randint(1, 8)))
                 for _ in range(200))
    # both non-digit routes are hit: a letter 0 and a two-digit letter
    assert any(0 in w for w in cases) and any(max(w, default=0) > 9
                                              for w in cases)
    for w in cases:
        assert render_word(w) == _render_word_reference(w), w


@pytest.mark.parametrize("argv, message", [
    (("comul", "--basis", "R", "1"), "coproduct not available in basis R"),
    (("antipode", "--basis", "P", "1"), "antipode not available in basis P"),
    (("mul", "--basis", "F", "1", "13"), "not a parking function: 13"),
    # a letter below 1 is refused by name wherever it stands
    (("mul", "50", "1"), "letters must be positive integers, got 0"),
    (("mul", "05", "1"), "letters must be positive integers, got 0"),
])
def test_op_malformed_input(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err == f"parkhopf: {message}\n"


@pytest.mark.parametrize("argv", [("mul", "1"), ("mul", "--basis", "X", "1", "1"),
                                  ("cumulants", "--moments", "-1,2")])
def test_op_rejected_by_the_parser(capsys, argv):
    # a usage error is malformed input
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 3


def _example_verdict(name):
    [result] = [r for r in verify.run("paper-examples", 0) if r.name == name]
    return result.ok, result.detail


# paper-examples replays the single-operation worked examples through the
# command line: a wrong structure map fails the row that prints it.

def test_mul_text(monkeypatch):
    product = algebras.MUL["F"]
    monkeypatch.setitem(algebras.MUL, "F",
                        lambda a, b: product(a, b) - Lin.basis((3, 3, 1, 2)))
    ok, detail = _example_verdict("f-product")
    assert not ok and "mul --basis F 12 11" in detail


def test_mul_malformed(capsys):
    code, _, err = run(capsys, "mul", "--basis", "F", "13", "11")
    assert code == 3 and "not a parking function" in err


def test_antipode_text(monkeypatch):
    antipode = algebras.ANTIPODE["F"]
    monkeypatch.setitem(algebras.ANTIPODE, "F", lambda a: -antipode(a))
    ok, detail = _example_verdict("f-antipode")
    assert not ok and "antipode 122" in detail


def test_comul_text(monkeypatch):
    coproduct = algebras.COMUL["G"]
    monkeypatch.setitem(algebras.COMUL, "G", lambda a: coproduct(a)
                        - Lin.basis(((1,), (3, 1, 4, 1))))
    ok, detail = _example_verdict("g-coproduct")
    assert not ok and "comul --basis G 41252" in detail


def test_mul_json_schema(capsys):
    code, out, _ = run(capsys, "mul", "--basis", "G", "12", "11",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["algebra"] == "PQSym*" and doc["basis"] == "G"
    assert len(doc["terms"]) == 10
    assert all(set(t) == {"idx", "c"} for t in doc["terms"])
    assert doc["terms"][0]["c"] == "1"


def test_comul_json_tensor_idx(capsys):
    code, out, _ = run(capsys, "comul", "--basis", "F", "11",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [[], [1, 1]] in [t["idx"] for t in doc["terms"]]


def test_out_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "mul", "--basis", "F", "1", "1",
                       "--out", str(target))
    assert code == 0 and out.strip() == "F_12 + F_21"
    doc = json.loads(target.read_text())
    assert doc["algebra"] == "PQSym"


# the command line in a child capped at 512 MiB of address space
_LIMITED_CLI = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (2 ** 29, 2 ** 29)); "
                "from parkhopf.cli import main; sys.exit(main(sys.argv[1:]))")


def _run_cli(*argv, timeout=60):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PARKHOPF_MAX_N", None)
    return subprocess.run([sys.executable, "-c", _LIMITED_CLI, *argv],
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=timeout)


@pytest.mark.parametrize("argv", [("comul", "--basis", "G", "41252"),
                                  ("enum", "pf", "2"),
                                  ("verify", "--suite", "counts",
                                   "--max-degree", "1")])
def test_unwritable_out_file_is_malformed_input(tmp_path, argv):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    proc = _run_cli(*argv, "--out", str(target))
    err = proc.stderr.decode()
    assert proc.returncode == 3 and proc.stdout == b""
    assert err.startswith(f"parkhopf: cannot write {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [("verify",), ("comul", "--basis", "G", "12"),
                                  ("enum", "pf", "2"),
                                  ("enum", "pf", "2", "--count-only"),
                                  ("series", "g", "12"),
                                  ("series", "lie", "3"),
                                  ("cumulants", "--moments", "1,2")],
                         ids=["verify", "comul", "enum", "enum-count",
                              "series-g", "series-lie", "cumulants"])
@pytest.mark.parametrize("where", [("no", "x.json"), ()],
                         ids=["missing-directory", "directory"])
def test_unwritable_out_file_is_refused_before_the_work(capsys, monkeypatch,
                                                        tmp_path, argv, where):
    from parkhopf import catalan, gbasis, symfun, verify, words

    def work(*_args):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(verify, "run", work)
    monkeypatch.setitem(cli.COMUL, "G", work)
    monkeypatch.setattr(words, "enumerate_class", work)
    monkeypatch.setattr(words, "class_count", work)
    monkeypatch.setattr(catalan, "g_series", work)
    monkeypatch.setattr(gbasis, "lie_generator_series", work)
    monkeypatch.setattr(symfun, "moments_to_cumulants", work)
    target = tmp_path.joinpath(*where)  # a missing directory, or a directory
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 3 and out == ""
    assert err.startswith(f"parkhopf: cannot write {target}: ")
    assert list(tmp_path.iterdir()) == []


def test_class_operations_are_bounded_before_any_table():
    # the bound is on the output degree of a Pq or Q operation, 10 here
    proc = _run_cli("mul", "--basis", "Q", "11111", "11111", timeout=5)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == (
        b"parkhopf: class operation bound exceeded: output degree 10 > 8\n")


def test_class_bound_is_raised_by_the_override(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ENUM_BOUND", 3)
    for argv in (("mul", "--basis", "Q", "11", "11"),
                 ("comul", "--basis", "Pq", "1211")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "degree 4 > 3" in err
    monkeypatch.setenv("PARKHOPF_MAX_N", "4")
    code, out, _ = run(capsys, "mul", "--basis", "Q", "11", "11")
    assert code == 0
    assert out.strip() == "Q_1133 + Q_1313 + Q_1122 + Q_1212 + Q_1111"
    code, out, _ = run(capsys, "comul", "--basis", "Pq", "1211")
    assert code == 0 and out.startswith("1 (x) Pq_1121 + ")


def test_class_routes_enumerate_no_degree(capsys, monkeypatch):
    # Pq and Q products, coproducts, renderings and labels are read from
    # the class keys: no route lists a degree's parking functions or
    # groups them into its class table
    def refuse(*args):
        raise AssertionError(f"enumerated a whole degree: {args}")

    schroder._class_walk.cache_clear()  # each walk runs under the patches
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("parkhopf")
                and getattr(mod, "parking_list", None) is words.parking_list):
            monkeypatch.setattr(mod, "parking_list", refuse)
    monkeypatch.setattr(schroder, "classes", refuse)
    calls = [("mul", "Pq", "1211", "2131"), ("mul", "Pq", "1", "2314151"),
             ("mul", "Q", "1211", "2131"), ("mul", "Q", "21", "132411"),
             ("comul", "Pq", "21436587"), ("comul", "Pq", "12345678"),
             ("comul", "Pq", "1211")]
    for command, basis, *labels in calls:
        for fmt in ([], ["--format", "json"]):
            code, out, err = run(capsys, command, "--basis", basis, *labels, *fmt)
            assert code == 0 and out and not err, (command, basis, labels)
    for n in range(8):
        assert len(algebras.LABELS["Pq"](n)) == words.schroder_count(n)


def test_series_outputs(capsys):
    # the text line is the JSON document's coefficients
    for which in ("connected", "lie", "schroder"):
        text, doc = (run(capsys, "series", which, "6", *fmt)[1]
                     for fmt in ([], ["--format", "json"]))
        assert text.split() == list(map(str, json.loads(doc)["coefficients"]))


def test_series_g(capsys):
    code, out, _ = run(capsys, "series", "g", "3")
    assert code == 0
    assert out.splitlines()[2] == "g_3 = S^3 + S^12 + 2*S^21 + S^111"


def test_series_bound(capsys):
    code, _, err = run(capsys, "series", "connected", "13")
    assert code == 2 and "bound" in err


def test_cumulants(capsys):
    code, out, _ = run(capsys, "cumulants", "--moments", "1/2,1/3", "--check")
    assert code == 0 and out.strip() == "1/2,1/12"


def test_cumulants_malformed(capsys):
    code, _, err = run(capsys, "cumulants", "--moments", "")
    assert code == 3 and "malformed" in err
    code, _, err = run(capsys, "cumulants", "--moments", "1,x")
    assert code == 3


def _length_20_sequence() -> str:
    """(k^2 - 7)/k for k = 1..20; it starts with a minus sign."""
    return ",".join(f"{k * k - 7}/{k}" for k in range(1, 21))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("direction", ["--moments", "--cumulants"])
def test_cumulants_check_at_the_length_bound(capsys, direction, fmt):
    seq = _length_20_sequence()
    code, plain, _ = run(capsys, "cumulants", f"{direction}={seq}",
                         "--format", fmt)
    assert code == 0
    code, checked, err = run(capsys, "cumulants", f"{direction}={seq}",
                             "--format", fmt, "--check")
    assert code == 0 and err == "" and checked == plain


def test_cumulants_check_keeps_the_length_bound(capsys, monkeypatch):
    from parkhopf import symfun

    def work(*_args):
        raise AssertionError("the work ran above the length bound")

    monkeypatch.delenv("PARKHOPF_MAX_N", raising=False)
    monkeypatch.setattr(symfun, "nc_moment", work)
    monkeypatch.setattr(symfun, "moments_to_cumulants", work)
    code, out, err = run(capsys, "cumulants",
                         f"--moments={_length_20_sequence()},1", "--check")
    assert code == 2 and out == ""
    assert err == "parkhopf: sequence bound exceeded: 21 > 20\n"


def test_cumulants_check_length_bound_is_raised_by_the_override(
        capsys, monkeypatch):
    seq = f"--moments={_length_20_sequence()},1"
    monkeypatch.setenv("PARKHOPF_MAX_N", "21")
    code, checked, _ = run(capsys, "cumulants", seq, "--check")
    assert code == 0 and len(checked.split(",")) == 21
    code, plain, _ = run(capsys, "cumulants", seq)
    assert code == 0 and checked == plain


@pytest.mark.parametrize("direction, want", [("moments", "-1,1"),
                                             ("cumulants", "-1,3")])
def test_cumulants_list_with_a_leading_minus_sign(capsys, direction, want):
    # argparse takes a separate "-1,2" for an option; the "=" form converts
    code, out, err = run(capsys, "cumulants", f"--{direction}=-1,2", "--check")
    assert code == 0 and err == "" and out.strip() == want


@pytest.mark.parametrize("text", ["1e-5000", "1e100000000", "1,2E3", "1/2,3e0"])
def test_cumulants_refuse_exponent_notation(text):
    # 1e100000000 would build a 10^8-digit integer before any bound
    proc = _run_cli("cumulants", "--moments", text, timeout=10)
    assert proc.returncode == 3 and proc.stdout == b""
    bad = next(t for t in text.split(",") if "e" in t.lower())
    assert proc.stderr.decode() == (
        f"parkhopf: exponent notation is not accepted: {bad!r}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cumulants_too_long_to_render(capsys, monkeypatch, fmt):
    # 21 terms 1/(10^63 + k), each within the digit bound: r_21 has a
    # denominator of 4 380 digits, over the default int-to-str limit
    monkeypatch.setenv("PARKHOPF_MAX_N", "21")
    seq = ",".join(f"1/{10 ** 63 + k}" for k in range(1, 22))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "cumulants", "--moments", seq,
                             "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == ""
    assert err == ("parkhopf: output bound exceeded: "
                   "a term has more than 4300 digits\n")


def _wide_sequence(digits: int, where: str) -> str:
    """Three terms whose widest numerator (or denominator) has `digits`
    digits; it starts with a minus sign."""
    wide = str(10 ** digits - 1)
    term = f"-{wide}/7" if where == "numerator" else f"-7/{wide}"
    return f"{term},1/3,2"


@pytest.mark.parametrize("check", [[], ["--check"]])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("direction", ["--moments", "--cumulants"])
@pytest.mark.parametrize("where", ["numerator", "denominator"])
def test_cumulants_digit_bound(capsys, monkeypatch, where, direction, fmt,
                               check):
    at_bound = _wide_sequence(cli.CUMULANT_DIGITS, where)
    code, out, err = run(capsys, "cumulants", f"{direction}={at_bound}",
                         "--format", fmt, *check)
    assert code == 0 and out and err == ""

    def work(*_args):
        raise AssertionError("the work ran above the digit bound")

    from parkhopf import symfun
    for name in ("moments_to_cumulants", "cumulants_to_moments", "nc_moment"):
        monkeypatch.setattr(symfun, name, work)
    # the length override does not raise the digit bound
    monkeypatch.setenv("PARKHOPF_MAX_N", "1000")
    over = _wide_sequence(cli.CUMULANT_DIGITS + 1, where)
    code, out, err = run(capsys, "cumulants", f"{direction}={over}",
                         "--format", fmt, *check)
    assert code == 2 and out == ""
    assert err == (f"parkhopf: digit bound exceeded: "
                   f"{cli.CUMULANT_DIGITS + 1} > {cli.CUMULANT_DIGITS}\n")


@pytest.mark.parametrize("text, digits", [
    ("1/" + "0" * 70 + "3", 1),             # leading zeros are not digits
    ("0." + "0" * 62 + "1", 64),            # 1/10^63
    ("0." + "0" * 63 + "1", 65),            # 1/10^64
    ("0." + "1" * 4300, 4301),              # past the int-to-str limit
])
def test_cumulants_digit_bound_counts_lowest_terms(capsys, text, digits):
    code, out, err = run(capsys, "cumulants", f"--moments={text}")
    if digits <= cli.CUMULANT_DIGITS:
        assert code == 0 and err == ""
    else:
        assert code == 2 and out == ""
        assert err == (f"parkhopf: digit bound exceeded: {digits} > "
                       f"{cli.CUMULANT_DIGITS}\n")


def test_cumulants_numeral_past_the_interpreter_limit_is_malformed(capsys):
    code, out, err = run(capsys, "cumulants", "--moments=2," + "1" * 4301)
    assert code == 3 and out == ""
    assert err.startswith("parkhopf: malformed rational list: ")


@pytest.mark.parametrize("text, prefix", [
    ("1" * 5000, "malformed rational list"),
    ("1,2,x" + "1" * 5000, "malformed rational list"),
    ("1," + "2" * 5000 + "e1", "exponent notation is not accepted")],
    ids=["numeral", "letter", "exponent"])
def test_cumulants_error_names_the_bad_term_cut_short(capsys, text, prefix):
    # the message repeats at most TOKEN_SHOWN characters of the bad term,
    # not the whole argument
    code, out, err = run(capsys, "cumulants", f"--moments={text}")
    shown = repr(max(text.split(","), key=len)[:cli.TOKEN_SHOWN])
    assert code == 3 and out == ""
    assert err == f"parkhopf: {prefix}: {shown}…\n"
    assert len(err) < 100


def test_verify_passing_suites(capsys):
    for suite in ("paper-examples", "hopf", "counts"):
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--max-degree", "3")
        assert code == 0, out
        assert "FAIL" not in out


def test_verify_equivalences_reports_red_law(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "equivalences",
                       "--max-degree", "3")
    assert code == 1
    assert "FAIL   equivalences/ribbon-two-term-law" in out
    assert "REPORT equivalences/g-series-routes" in out


def test_verify_unknown_suite_is_rejected_by_the_parser():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 3


def test_verify_degree_bound(capsys):
    for degree in ("6", "7"):
        code, _, err = run(capsys, "verify", "--suite", "counts",
                           "--max-degree", degree)
        assert code == 2 and f"degree bound exceeded: {degree} > 5" in err


@pytest.mark.parametrize("argv", [("enum", "pf", "-1"),
                                  ("series", "lie", "-1"),
                                  ("verify", "--max-degree", "-1")])
def test_negative_size_is_malformed_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "must be nonnegative, got -1" in err


CORPUS = ROOT / "perfbench" / "cli_corpus.json"


def _replay_corpus(capsys, path):
    # every recorded command prints the same bytes and exits with the same
    # code; returns how many commands were replayed
    with open(path, encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    for cmd in commands:
        code, out, _ = run(capsys, *cmd["argv"])
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert (code, digest) == (cmd["exit"], cmd["sha256"]), cmd["argv"]
    return len(commands)


def test_cli_corpus_is_byte_identical(capsys, monkeypatch):
    # the README's determinism promise
    monkeypatch.delenv("PARKHOPF_MAX_N", raising=False)
    assert _replay_corpus(capsys, CORPUS) == 33


def test_output_corpus_is_byte_identical(capsys, monkeypatch):
    # tests/corpus.json: argv, exit code and the sha256 of stdout, recorded
    # before a refactor and checked after it
    monkeypatch.delenv("PARKHOPF_MAX_N", raising=False)
    assert _replay_corpus(capsys, ROOT / "tests" / "corpus.json") >= 39
