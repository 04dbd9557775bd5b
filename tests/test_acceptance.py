"""Acceptance gates: the thirteen criteria, one test and one printed
PASS/FAIL line each.

Criterion 9 re-verifies the two-term junction law for the ribbon product
(`ribbon_product_glued`) against the expansion-route reference product on
every pair through total degree 5. The stated raised law (`ribbon_product`)
is disproved: it is not associative and disagrees with expansion from total
degree 3 on (first at R_1 * R_12). Criterion 9 appends that counterexample
to its detail as a report, and `verify --suite equivalences` keeps it as a
FAIL line.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from parkhopf import verify


@pytest.mark.parametrize("k", range(1, 14))
def test_criterion(k, capsys):
    ok, detail = verify.criterion(k)
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'}"
    if not ok:
        line += f" -- {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, detail


def test_registry_matches_the_recorded_verdict_table():
    recorded = Path(__file__).resolve().parent.parent / "perfbench" \
        / "verify_expected.json"
    with open(recorded, encoding="utf-8") as fh:
        rows = json.load(fh)
    assert [(f"{s}/{n}", k) for s, n, k, _ in verify.CHECKS] \
        == [(r["check"], r["kind"]) for r in rows]
