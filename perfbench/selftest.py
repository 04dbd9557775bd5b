"""Self-test of the benchmark's checkers and output contract.

    python3 perfbench/selftest.py

1. Every workload's checker rejects a deliberately wrong answer or verdict
   (through the cheap check or the second route), and the pass rate of a
   run holding it falls below 1.
2. Every metric named in BENCHMARK.json is printed, with its unit, by a
   short run of every workload, traced and untraced.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
Takes a few minutes; exits 1 on the first failed expectation.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import BENCH_DIR, OUT_DIR, ROOT, load_package, load_spec  # noqa: E402
from perfbench.run import Run  # noqa: E402
from perfbench.workloads import KINDS, WORKLOADS  # noqa: E402


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        sys.exit(1)


def rejected(wl, label, wrong) -> bool:
    """True when the check or the second route flags `wrong`."""
    try:
        if wl.check(label, wrong):
            return True
    except Exception:  # noqa: BLE001 - a checker crash on a wrong answer also rejects it
        return True
    return bool(wl.oracle([(label, wrong)]))


def pass_rate_falls(wl, good: list[tuple], wrong: tuple) -> bool:
    run = Run()
    for label, answer in good + [wrong]:
        run.record(label, 0.0, 0.0, answer)
    run.units.append((0, len(run.done)))
    run.check_unit(wl, 0)
    errors = len(run.errors) + len(wl.oracle(run.kept()))
    return (len(run.done) - errors) / len(run.done) < 1


def corrupt_lin(lin_cls, ans):
    """Two wrong answers: one coefficient raised by one, and one term dropped."""
    items = list(ans.items())
    bumped = ans + lin_cls.basis(items[0][0], 1)
    dropped = lin_cls({k: v for k, v in items[1:]}) if len(items) > 1 else bumped
    return bumped, dropped


def test_api_stream(pkg):
    wl = WORKLOADS["api-stream"](pkg, 0)
    wl.prepare()
    Lin = pkg["linear"].Lin
    for kind in KINDS:
        kind_queries = [q for q in wl.units[0] if q[0] == kind]
        kind_, d, args = min(kind_queries, key=lambda q: (q[1] != 4, q[1]))
        label = (kind, d, args)
        ans = wl.route(kind)(*args)
        expect(wl.check(label, ans) is None and not wl.oracle([(label, ans)]),
               f"api-stream accepts a right {kind} answer")
        if kind == "cumulants":
            wrongs = [ans[:-1] + [ans[-1] + 1]]
        else:
            wrongs = corrupt_lin(Lin, ans)
        for wrong in wrongs:
            expect(rejected(wl, label, wrong), f"api-stream rejects a wrong {kind} answer")
        expect(pass_rate_falls(wl, [(label, ans)], (label, wrongs[0])),
               f"api-stream pass rate falls with a wrong {kind} answer")


def test_degree_tables(pkg):
    wl = WORKLOADS["degree-tables"](pkg, 0)
    wl.prepare()
    w = pkg["words"]
    good = ("enum.pf.7", (w.pf_count(7), (1,) * 7, (7, 6, 5, 4, 3, 2, 1)))
    expect(wl.check(*good) is None, "degree-tables accepts the right pf count")
    wrong = ("enum.pf.7", (w.pf_count(7) - 1, (1,) * 7, (7, 6, 5, 4, 3, 2, 1)))
    expect(rejected(wl, *wrong), "degree-tables rejects a wrong pf count")
    table = dict(pkg["catalan"]._r_in_p(5))
    table.popitem()
    expect(rejected(wl, "catalan.r_in_p.7", table), "degree-tables rejects a short table")
    expect(pass_rate_falls(wl, [good], wrong), "degree-tables pass rate falls")


def test_verify_all(pkg):
    wl = WORKLOADS["verify-all"](pkg, 0)
    name = "equivalences/ribbon-two-term-law"
    kind, ok = wl.expected[name]
    expect(not ok and wl.check(name, (kind, ok)) is None,
           "verify-all accepts the recorded ribbon-law FAIL")
    expect(rejected(wl, name, (kind, True)), "verify-all rejects a PASS where FAIL is recorded")
    other = "hopf/f-associative"
    expect(rejected(wl, other, ("check", False)), "verify-all rejects a wrong FAIL")
    expect(pass_rate_falls(wl, [(name, (kind, ok))], (other, ("check", False))),
           "verify-all pass rate falls")


def test_cli_oneshot(pkg):
    wl = WORKLOADS["cli-oneshot"](pkg, 0)
    wl.prepare()
    entry = wl.corpus["commands"][3]
    label = " ".join(entry["argv"])
    good = (entry["exit"], entry["sha256"], entry["bytes"])
    expect(wl.check(label, good) is None, f"cli-oneshot accepts the recorded output of {label}")
    wrong = (entry["exit"], "0" * 64, entry["bytes"])
    expect(rejected(wl, label, wrong), "cli-oneshot rejects a changed stdout")
    expect(rejected(wl, label, (3,) + good[1:]), "cli-oneshot rejects a changed exit code")
    expect(pass_rate_falls(wl, [(label, good)], (label, wrong)), "cli-oneshot pass rate falls")
    expect(wl.reference() > 0, "cli-oneshot's reference child runs and prints its fixed answer")


def test_metrics_printed():
    spec = load_spec()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for name in WORKLOADS:
            out = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", "0", "--seconds", "0.01", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=180)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(out.returncode == 0 and result["correct"] and got == want,
                   f"{name} --trace {trace} prints every {group} metric with its unit")


def test_bare_directory():
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "api-stream",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             capture_output=True, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare)
    expect(out.returncode != 0 and not out.stdout.strip(),
           "without the package sources the benchmark fails and prints no result")


def main() -> int:
    pkg = load_package()
    test_api_stream(pkg)
    test_degree_tables(pkg)
    test_verify_all(pkg)
    test_cli_oneshot(pkg)
    test_bare_directory()
    test_metrics_printed()
    return 0


if __name__ == "__main__":
    sys.exit(main())
