"""Record the expected answers the benchmark checks against.

    python3 perfbench/record.py

Writes perfbench/cli_corpus.json (stdout digest and exit code of every
cli-oneshot command) and perfbench/verify_expected.json (the verdict table
of `verify.run("all", 4)`).  The committed files were recorded at the
commit that introduced the benchmark; re-record only when an output change
is intended.  The README's hand-written outputs are checked first, so a
recording cannot silently disagree with the documentation.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import load_package  # noqa: E402
from perfbench.workloads import CORPUS, EXPECTED_VERDICTS, run_cli  # noqa: E402

README_EXAMPLES = [
    "enum pf 3 --count-only", "enum prime 2", "mul --basis F 12 11",
    "antipode 122", "comul --basis G 41252", "mul --basis R 1 12",
    "series connected 6", "series lie 5", "series schroder 4", "series g 3",
    "cumulants --moments 0,1,0,2", "cumulants --cumulants 1,1,1",
]
# Outputs the README states in full, or by their number of terms.
README_OUTPUTS = {
    "enum pf 3 --count-only": "16",
    "enum prime 2": "11",
    "antipode 122": "F_212 - F_213 + F_221 - F_231 - F_321",
    "mul --basis R 1 12": "R_113 + R_123",
    "series connected 6": "1 2 11 92 1014 13795",
    "series lie 5": "1 2 9 80 901",
    "series schroder 4": "1 1 3 11 45",
    "cumulants --moments 0,1,0,2": "0,1,0,0",
    "cumulants --cumulants 1,1,1": "1,2,5",
}
README_TERM_COUNTS = {"mul --basis F 12 11": 6, "comul --basis G 41252": 5}
# Length-7 permutations for `antipode`; the seed picks one per run.  All
# sum the same 47293 closed-form terms, and their outputs (1400-2100 terms)
# are of like size, so the pick moves the pass time little.
ANTIPODE_WORDS = ["1762534", "1574623", "2657413", "5137624",
                  "4167325", "1725364", "2156374", "5146732"]
INLINE_LIMIT = 2048


def record_cli() -> None:
    commands = [(cmd, "fixed") for cmd in README_EXAMPLES]
    commands += [(cmd + " --format json", "fixed") for cmd in README_EXAMPLES]
    commands.append(("enum pf 7", "fixed"))
    commands += [(f"antipode {w}", "antipode7") for w in ANTIPODE_WORDS]
    entries = []
    for cmd, group in commands:
        code, out, _ = run_cli(cmd.split())
        text = out.decode()
        if code != 0:
            raise SystemExit(f"{cmd}: exit {code}")
        if cmd in README_OUTPUTS and text.strip() != README_OUTPUTS[cmd]:
            raise SystemExit(f"{cmd}: README says {README_OUTPUTS[cmd]!r}, got {text.strip()!r}")
        terms = text.count(" + ") + text.count(" - ") + 1
        if cmd in README_TERM_COUNTS and terms != README_TERM_COUNTS[cmd]:
            raise SystemExit(f"{cmd}: README term count differs: {text.strip()!r}")
        entry = {"argv": cmd.split(), "group": group, "exit": code,
                 "bytes": len(out), "sha256": hashlib.sha256(out).hexdigest()}
        if len(out) <= INLINE_LIMIT:
            entry["stdout"] = text
        entries.append(entry)
        print(f"{len(out):>9} bytes  {cmd}")
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump({"commands": entries}, fh, indent=1)
        fh.write("\n")


def record_verify() -> None:
    verify = load_package()["verify"]
    timings = []
    rows = []
    for suite, name, kind, fn in verify.CHECKS:
        t0 = perf_counter()
        ok, _ = fn(4)
        timings.append((perf_counter() - t0, f"{suite}/{name}"))
        rows.append({"check": f"{suite}/{name}", "kind": kind, "ok": ok})
    with open(EXPECTED_VERDICTS, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
    bad = [r["check"] for r in rows if not r["ok"]]
    print(f"{len(rows)} verdicts, not ok: {bad}")
    for s, name in sorted(timings, reverse=True)[:8]:
        print(f"{s:8.3f} s  {name}")


if __name__ == "__main__":
    record_cli()
    record_verify()
