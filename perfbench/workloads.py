"""The four workloads.  Each builds its inputs from the seed before timing,
runs its unit of work on request, and checks every answer afterwards.

A workload exposes:
  prepare()        generate inputs (untimed, part of set-up)
  warm()           untimed warm-up, part of set-up
  cold             True when each unit starts with every package cache cleared
  in_child         True when each operation runs in a child process
  min_units        optional: units timed whatever --seconds says (default 1)
  reference()      optional: seconds of one run of the workload's own
                   reference; without it the run probes common.reference_loop
  run_unit(i, record, traced)
                   one unit of work; calls record(label, start, end, answer)
                   once per operation, with perf_counter() times
  check(label, answer) -> error string or None   (cheap, every answer)
  oracle(done) -> list of (index, error)         (second routes, on a sample)
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from time import perf_counter

from .common import BENCH_DIR, OUT_DIR, ROOT, SRC

# ---------------------------------------------------------------------------
# api-stream

# kind -> (arity, lowest degree, highest degree, oracle's highest degree).
# Degree slots 1..8 are clamped into [lowest, highest], so every kind gets
# the same number of queries per cycle and expensive kinds repeat their top
# degree instead of running at degree 8: F.antipode at 7 costs ~1 s, a cold
# G.antipode at 6 up to 0.25 s and at 8 many seconds, Pq.mul at 7 ~5 s, and
# Pq at 7 needs the 3 s class table of degree 7.
KINDS = {
    "F.mul": (2, 2, 8, 8), "F.comul": (1, 1, 8, 8), "F.antipode": (1, 1, 6, 6),
    "G.mul": (2, 2, 8, 5), "G.comul": (1, 1, 8, 5), "G.antipode": (1, 1, 5, 4),
    "P.comul": (1, 1, 8, 5), "M.mul": (2, 2, 8, 6), "M.comul": (1, 1, 8, 8),
    "R.mul": (2, 2, 8, 5), "Pq.mul": (2, 2, 6, 5), "Pq.comul": (1, 1, 6, 5),
    "Q.mul": (2, 2, 7, 6), "MP.mul": (2, 2, 8, 8), "MP.comul": (1, 1, 8, 8),
    "cumulants": (1, 1, 8, 6),
}
SLOTS = 8              # queries per kind per cycle
CYCLES_PER_UNIT = 8    # 1024 queries per unit, enough for a p99 with ten beyond
STREAM_UNITS = 10      # pre-generated; the run wraps around if it gets this far
ORACLE_SAMPLES = 2     # per kind


class ApiStream:
    name = "api-stream"
    cold = False
    in_child = False

    def __init__(self, pkg: dict, seed: int):
        self.p = pkg
        self.seed = seed
        self.units: list[list[tuple]] = []
        self.warmup: list[tuple] = []

    # -- inputs ------------------------------------------------------------

    def _pf(self, rng, n):
        is_parking = self.p["words"].is_parking
        while True:
            w = tuple(rng.randint(1, n) for _ in range(n))
            if is_parking(w):
                return w

    def _arg(self, rng, kind, n):
        base = kind.split(".")[0]
        if base in ("F", "G"):
            return self._pf(rng, n)
        if base in ("P", "M", "R"):
            return tuple(sorted(self._pf(rng, n)))
        if base in ("Pq", "Q"):
            return self.p["schroder"].key_of_word(self._pf(rng, n))
        if base == "MP":
            return rng.choice(self.p["matrices"].word_matrices(self._pf(rng, n)))
        return [rng.randint(-3, 5) for _ in range(n)]  # moment sequence

    def _query(self, rng, kind, slot):
        arity, lo, hi, _ = KINDS[kind]
        d = min(max(slot, lo), hi)
        if arity == 1:
            return kind, d, (self._arg(rng, kind, d),)
        k = rng.randint(1, d - 1)
        return kind, d, (self._arg(rng, kind, k), self._arg(rng, kind, d - k))

    def _cycle(self, rng):
        qs = [self._query(rng, kind, s) for kind in KINDS
              for s in range(1, SLOTS + 1)]
        rng.shuffle(qs)
        return qs

    def prepare(self):
        rng = random.Random(f"api-stream/{self.seed}")
        self.warmup = self._cycle(rng)
        self.units = [[q for _ in range(CYCLES_PER_UNIT) for q in self._cycle(rng)]
                      for _ in range(STREAM_UNITS)]

    # -- production routes, looked up at call time ---------------------------

    def route(self, kind):
        cli, matrices, symfun = self.p["cli"], self.p["matrices"], self.p["symfun"]
        base, op = kind.split(".") if "." in kind else (kind, "")
        if kind == "cumulants":
            return symfun.moments_to_cumulants
        if base == "MP":
            return matrices.mp_product if op == "mul" else matrices.mp_coproduct
        table = {"mul": cli.MUL, "comul": cli.COMUL, "antipode": cli.ANTIPODE}[op]
        return table[base]

    def warm(self):
        for kind, _, args in self.warmup:
            self.route(kind)(*args)

    def run_unit(self, i, record, traced=None):
        for kind, d, args in self.units[i % STREAM_UNITS]:
            fn = self.route(kind)
            t0 = perf_counter()
            ans = fn(*args) if traced is None else traced.span(f"op.{kind}", fn, *args)
            record((kind, d, args), t0, perf_counter(), ans)

    # -- checks ------------------------------------------------------------

    def check(self, label, ans):
        kind, d, args = label
        w, sch, mat = self.p["words"], self.p["schroder"], self.p["matrices"]
        terms = list(ans.items()) if kind != "cumulants" else None
        if kind == "F.mul":
            a, b = args
            if len(terms) != comb(d, len(a)) or any(c != 1 for _, c in terms):
                return "wrong number of shuffle terms"
            if any(len(x) != d or not w.is_parking(x) for x, _ in terms):
                return "term is not a parking function of the right length"
        elif kind in ("F.comul", "G.comul"):
            (a,) = args
            if any(c != 1 for _, c in terms):
                return "coefficient other than 1"
            for (u, v), _ in terms:
                if len(u) + len(v) != d or not (w.is_parking(u) and w.is_parking(v)):
                    return f"bad tensor factor {u},{v}"
                if kind == "G.comul" and (
                        u != tuple(x for x in a if x <= len(u))
                        or v != tuple(x - len(u) for x in a if x > len(u))):
                    return f"not a breakpoint cut {u},{v}"
            if kind == "F.comul" and len(terms) != d + 1:
                return "wrong number of cuts"
        elif kind == "F.antipode":
            if sum(c for _, c in terms) != (-1) ** d:
                return "coefficient sum is not (-1)^n"
            if any(len(x) != d or not w.is_parking(x) for x, _ in terms):
                return "term is not a parking function of the right length"
        elif kind == "G.mul":
            a, b = args
            n = len(a)
            for c, k in terms:
                if k != 1 or not w.is_parking(c) or len(c) != d:
                    return f"bad term {c}"
                if w.parkize(c[:n]) != a or w.parkize(c[n:]) != b:
                    return f"term {c} does not parkize back to the factors"
        elif kind == "G.antipode":
            if not terms or any(len(x) != d or not w.is_parking(x) for x, _ in terms):
                return "term is not a parking function of the right length"
        elif kind == "P.comul":
            (pi,) = args
            mult = 1
            for v in set(pi):
                mult *= pi.count(v) + 1
            if sum(c for _, c in terms) != mult:
                return "coefficient sum is not the number of sub-multisets"
            if any(not (w.is_catalan_word(u) and w.is_catalan_word(v))
                   or len(u) + len(v) != d for (u, v), _ in terms):
                return "bad tensor factor"
        elif kind == "M.mul":
            a, b = args
            if ans.coeff(w.shifted_concat(a, b)) < 1:
                return "shifted concatenation missing"
            if any(not w.is_catalan_word(x) or len(x) != d or c < 1 for x, c in terms):
                return "bad term"
        elif kind == "M.comul":
            (pi,) = args
            if any(c != 1 or w.shifted_concat(u, v) != pi for (u, v), c in terms):
                return "term does not deconcatenate the label"
        elif kind == "R.mul":
            if not terms or any(not w.is_catalan_word(x) or len(x) != d
                                or c.denominator != 1 for x, c in terms):
                return "bad term"
        elif kind == "Pq.mul":
            k1, k2 = args
            size = lambda k: len(sch.class_members(k))  # noqa: E731
            want = size(k1) * size(k2) * comb(d, sch.key_degree(k1))
            if sum(c * size(k) for k, c in terms) != want:
                return "F-term count of the class product is wrong"
        elif kind == "Pq.comul":
            (key,) = args
            size = lambda k: len(sch.class_members(k))  # noqa: E731
            if sum(c * size(u) * size(v) for (u, v), c in terms) != size(key) * (d + 1):
                return "F-term count of the class coproduct is wrong"
        elif kind == "Q.mul":
            if not terms or any(sch.key_degree(k) != d or c < 1 for k, c in terms):
                return "bad term"
        elif kind == "MP.mul":
            p, q = args
            rp, rq = len(p), len(q)
            want = sum(comb(r, rp) * comb(rp, r - rq) for r in range(max(rp, rq), rp + rq + 1))
            if len(terms) != want or any(c != 1 for _, c in terms):
                return "wrong number of augmented-shuffle terms"
            if any(mat.ones(m) != mat.ones(p) + mat.ones(q) for m, _ in terms):
                return "ones not conserved"
        elif kind == "MP.comul":
            (m,) = args
            if sum(c for _, c in terms) != len(m) + 1:
                return "wrong number of row cuts"
            if any(mat.ones(u) + mat.ones(v) != mat.ones(m) for (u, v), _ in terms):
                return "ones not conserved"
        elif kind == "cumulants":
            (moments,) = args
            if self.p["symfun"].cumulants_to_moments(ans) != [Fraction(x) for x in moments]:
                return "cumulants do not round-trip to the moments"
        return None

    def oracle(self, done):
        """Second routes on a seeded sample; run after timing."""
        rng = random.Random(f"api-stream-oracle/{self.seed}")
        by_kind: dict[str, list[int]] = {}
        for idx, (label, _) in enumerate(done):
            kind, d, _ = label
            if d <= KINDS[kind][3]:
                by_kind.setdefault(kind, []).append(idx)
        errors = []
        for kind, idxs in sorted(by_kind.items()):
            for idx in rng.sample(idxs, min(ORACLE_SAMPLES, len(idxs))):
                (kind, d, args), ans = done[idx]
                err = self._second_route(kind, d, args, ans)
                if err:
                    errors.append((idx, f"{kind}{args}: {err}"))
        return errors

    def _second_route(self, kind, d, args, ans):
        p = self.p
        w, fb, gb, cat, sch, sf = (p["words"], p["fbasis"], p["gbasis"],
                                   p["catalan"], p["schroder"], p["symfun"])
        Lin, tensor = p["linear"].Lin, p["linear"].tensor
        if kind == "F.mul":
            bad = [c for c, _ in ans.items() if gb.g_coproduct(c).coeff(args) != 1]
            return "not adjoint to the G coproduct" if bad else None
        if kind == "F.comul":
            bad = [t for t, c in ans.items() if gb.g_product(*t).coeff(args[0]) != c]
            return "not adjoint to the G product" if bad else None
        if kind == "F.antipode":
            ok = fb.f_antipode_by_recursion(args[0]) == ans
            return None if ok else "differs from the convolution recursion"
        if kind == "G.mul":
            return None if gb.g_product_by_duality(*args) == ans else "differs from duality"
        if kind == "G.comul":
            ok = gb.g_coproduct_by_unshuffle(args[0]) == ans
            return None if ok else "differs from the unshuffle coproduct"
        if kind == "G.antipode":
            for b in w.parking_list(d):
                if ans.coeff(b) != fb.f_antipode_by_recursion(b).coeff(args[0]):
                    return f"not the transpose of the F antipode at {b}"
            return None
        if kind == "P.comul":
            want = fb.f_comul(cat.p_expand(args[0]))
            got = Lin()
            for (u, v), c in ans.items():
                got += tensor(cat.p_expand(u), cat.p_expand(v)).scale(c)
            return None if got == want else "differs from the F coproduct of the class sum"
        if kind == "M.mul":
            for rho in w.nondecreasing_parking_functions(d):
                if ans.coeff(rho) != cat.p_coproduct(rho).coeff(args):
                    return f"not adjoint to the P coproduct at {rho}"
            return None
        if kind == "M.comul":
            (pi,) = args
            want = {(pi[:k], tuple(x - k for x in pi[k:])) for k in range(d + 1)
                    if all(x > k for x in pi[k:])}
            got = {t for t, _ in ans.items()}
            return None if got == want else "not the dual of the P product"
        if kind == "R.mul":
            def in_f(x):
                out = Lin()
                for pi, c in x.items():
                    for rho, e in cat.r_to_p(pi).items():
                        out += cat.p_expand(rho).scale(c * e)
                return out
            want = fb.f_mul(in_f(Lin.basis(args[0])), in_f(Lin.basis(args[1])))
            return None if in_f(ans) == want else "differs from the F-basis product"
        if kind == "Pq.mul":
            got = Lin()
            for k, c in ans.items():
                got += sch.pq_expand(k).scale(c)
            want = fb.f_mul(sch.pq_expand(args[0]), sch.pq_expand(args[1]))
            return None if got == want else "class sums do not multiply back"
        if kind == "Pq.comul":
            got = Lin()
            for (u, v), c in ans.items():
                got += tensor(sch.pq_expand(u), sch.pq_expand(v)).scale(c)
            want = fb.f_comul(sch.pq_expand(args[0]))
            return None if got == want else "class sums do not split back"
        if kind == "Q.mul":
            k1, k2 = args
            other = sch.qq_product(k1, k2, sch.class_members(k1)[-1],
                                   sch.class_members(k2)[-1])
            return None if other == ans else "depends on the class representative"
        if kind == "cumulants":
            for n in range(1, len(args[0]) + 1):
                if sf.nc_moment(ans, n) != Fraction(args[0][n - 1]):
                    return f"noncrossing-partition moment differs at {n}"
            return None
        return None  # MP kinds: the invariant is a full count check


# ---------------------------------------------------------------------------
# degree-tables

ANTIPODE_WORDS = 2


class DegreeTables:
    name = "degree-tables"
    cold = True
    in_child = False
    # a unit is 11-14 s, so --seconds 20 would time one unit or two by
    # chance, and with nine operations a unit's median and maximum move
    # with whichever operation met a burst of host noise
    min_units = 2

    def __init__(self, pkg: dict, seed: int):
        self.p = pkg
        self.seed = seed
        self.words7: list[tuple] = []

    def prepare(self):
        # permutations: every one sums the same closed-form terms, so the
        # seed changes the words but hardly the work
        rng = random.Random(f"degree-tables/{self.seed}")
        self.words7 = [tuple(rng.sample(range(1, 8), 7)) for _ in range(ANTIPODE_WORDS)]

    def warm(self):
        pass

    def _ops(self):
        w, fb, gb, cat, sch = (self.p[k] for k in
                               ("words", "fbasis", "gbasis", "catalan", "schroder"))

        def stream(kind):
            count, first, last = 0, None, None
            for a in w.enumerate_class(kind, 7):
                if first is None:
                    first = a
                count += 1
                last = a
            return count, first, last

        ops = [("enum.pf.7", lambda: stream("pf")),
               ("enum.connected.7", lambda: stream("connected")),
               ("parking_list.7", lambda: w.parking_list(7)),
               ("schroder.classes.7", lambda: sch.classes(7)),
               ("catalan.r_in_p.7", lambda: cat._r_in_p(7)),
               ("fbasis.f_in_mult_basis.5", lambda: fb._f_in_mult_basis(5)),
               ("gbasis.st_dual_bases.4", lambda: gb.st_dual_bases(4))]
        for a in self.words7:
            ops.append((("fbasis.f_antipode", a), lambda a=a: fb.f_antipode(a)))
        return ops

    def run_unit(self, i, record, traced=None):
        for label, thunk in self._ops():
            t0 = perf_counter()
            ans = thunk() if traced is None else traced.span(str(label), thunk)
            record(label, t0, perf_counter(), ans)

    def check(self, label, ans):
        w = self.p["words"]
        if isinstance(label, tuple):  # antipode of a length-7 word
            if sum(c for _, c in ans.items()) != -1:
                return "coefficient sum is not (-1)^7"
            return None
        if label == "enum.pf.7":
            ok = ans == (w.pf_count(7), (1,) * 7, (7, 6, 5, 4, 3, 2, 1))
            return None if ok else f"got {ans}"
        if label == "enum.connected.7":
            count, first, last = ans
            ok = (count == w.connected_counts(7)[-1]
                  and w.is_connected(first) and w.is_connected(last))
            return None if ok else f"got {ans}"
        if label == "parking_list.7":
            if len(ans) != w.pf_count(7):
                return "wrong count"
            if any(not x < y for x, y in zip(ans, ans[1:])):
                return "not strictly increasing"
            if not all(w.is_parking(x) for x in ans):
                return "non-parking word listed"
            return None
        if label == "schroder.classes.7":
            ok = (len(ans) == w.schroder_count(7)
                  and sum(len(v) for v in ans.values()) == w.pf_count(7))
            return None if ok else "class table does not match the Schroder count"
        if label == "catalan.r_in_p.7":
            ok = len(ans) == w.catalan(7) and all(v.coeff(k) == 1 for k, v in ans.items())
            return None if ok else "not a unitriangular table of Catalan size"
        if label == "fbasis.f_in_mult_basis.5":
            ok = len(ans) == w.pf_count(5) and all(v.coeff(k) == 1 for k, v in ans.items())
            return None if ok else "not a unitriangular table of parking size"
        if label == "gbasis.st_dual_bases.4":
            s, t = ans
            ok = len(s) == len(t) == w.pf_count(4)
            return None if ok else "dual bases of the wrong size"
        return f"unknown operation {label}"

    def oracle(self, done):
        fb, gb, lin = self.p["fbasis"], self.p["gbasis"], self.p["linear"]
        rng = random.Random(f"degree-tables-oracle/{self.seed}")
        errors = []
        for idx, (label, ans) in enumerate(done):
            if isinstance(label, tuple):
                if fb.f_antipode_by_recursion(label[1]) != ans:
                    errors.append((idx, f"antipode of {label[1]} differs from the recursion"))
            elif label == "gbasis.st_dual_bases.4":
                s, t = ans
                labels = sorted(s)
                for b in rng.sample(labels, 4):
                    for x in rng.sample(labels, 4):
                        want = int(b == x)
                        if (lin.dual_pairing(s[b], fb.f_mult_basis(x)) != want
                                or lin.dual_pairing(t[b], gb.g_mult_basis(x)) != want):
                            errors.append((idx, f"dual bases fail at {b},{x}"))
        return errors


# ---------------------------------------------------------------------------
# verify-all

EXPECTED_VERDICTS = BENCH_DIR / "verify_expected.json"


class VerifyAll:
    name = "verify-all"
    cold = True
    in_child = False

    def __init__(self, pkg: dict, seed: int):
        self.p = pkg
        self.seed = seed  # the CLI default run has no inputs to draw
        with open(EXPECTED_VERDICTS, encoding="utf-8") as fh:
            self.expected = {r["check"]: (r["kind"], r["ok"]) for r in json.load(fh)}

    def prepare(self):
        pass

    def warm(self):
        pass

    def run_unit(self, i, record, traced=None):
        """`verify.run("all", 4)` with every check timed where it is called."""
        verify = self.p["verify"]
        original = list(verify.CHECKS)

        def timed(label, kind, fn):
            def call(d):
                t0 = perf_counter()
                out = fn(d) if traced is None else traced.span(label, fn, d)
                record(label, t0, perf_counter(), (kind, out[0]))
                return out
            return call

        verify.CHECKS[:] = [(s, n, k, timed(f"{s}/{n}", k, fn)) for s, n, k, fn in original]
        try:
            verify.run("all", 4)
        finally:
            verify.CHECKS[:] = original

    def check(self, label, ans):
        if label not in self.expected:
            return "check not in the recorded verdict table"
        if self.expected[label] != ans:
            return f"verdict {ans}, recorded {self.expected[label]}"
        return None

    def oracle(self, done):
        missing = set(self.expected) - {label for label, _ in done}
        return [(-1, f"check {m} did not run") for m in sorted(missing)]


# ---------------------------------------------------------------------------
# cli-oneshot

CORPUS = BENCH_DIR / "cli_corpus.json"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PARKHOPF_MAX_N", None)
    return env


def run_cli(argv: list[str], trace_file=None) -> tuple[int, bytes, int]:
    """One fresh interpreter; returns exit code, stdout and peak RSS in KiB."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "parkhopf.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(trace_file), *argv]
    return spawn(cmd)


def spawn(cmd: list[str]) -> tuple[int, bytes, int]:
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            stdin=subprocess.DEVNULL, env=cli_env(), cwd=ROOT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class CliOneshot:
    name = "cli-oneshot"
    cold = False
    in_child = True

    def __init__(self, pkg: dict, seed: int):
        self.p = pkg
        self.seed = seed
        with open(CORPUS, encoding="utf-8") as fh:
            self.corpus = json.load(fh)
        self.commands: list[list[str]] = []
        self.child_traces: list[dict] = []
        self.child_rss: list[int] = []

    def prepare(self):
        rng = random.Random(f"cli-oneshot/{self.seed}")
        fixed = [c for c in self.corpus["commands"] if c["group"] == "fixed"]
        pool = [c for c in self.corpus["commands"] if c["group"] == "antipode7"]
        chosen = fixed + [rng.choice(pool)]
        rng.shuffle(chosen)
        self.commands = [c["argv"] for c in chosen]
        self.expected = {" ".join(c["argv"]): c for c in self.corpus["commands"]}

    def warm(self):
        pass

    def reference(self) -> float:
        """Wall seconds of one reference child, spawned as the commands are.

        The reference loop in this process tracked the children's start-up
        poorly: on a shared host their ratio moved by up to 30 % between
        units, against under 10 % for a reference child."""
        t0 = perf_counter()
        code, out, _ = spawn([sys.executable, str(BENCH_DIR / "reference_child.py")])
        seconds = perf_counter() - t0
        if (code, out) != (0, b"55\n"):
            raise RuntimeError(f"reference child exited {code} with {out!r}")
        return seconds

    def run_unit(self, i, record, traced=None):
        for n, argv in enumerate(self.commands):
            trace_file = None
            if traced is not None:
                trace_file = OUT_DIR / f"cli-child-{os.getpid()}-{i}-{n}.json"
            t0 = perf_counter()
            code, out, rss = run_cli(argv, trace_file)
            t1 = perf_counter()
            self.child_rss.append(rss)
            if trace_file is not None:
                try:
                    with open(trace_file, encoding="utf-8") as fh:
                        self.child_traces.append(json.load(fh))
                finally:
                    trace_file.unlink(missing_ok=True)
            record(" ".join(argv), t0, t1, (code, hashlib.sha256(out).hexdigest(), len(out)))

    def check(self, label, ans):
        want = self.expected.get(label)
        if want is None:
            return "command not in the recorded corpus"
        code, digest, size = ans
        if (code, digest, size) != (want["exit"], want["sha256"], want["bytes"]):
            return f"exit {code}, {size} bytes, sha256 {digest}; recorded {want['exit']}, " \
                   f"{want['bytes']} bytes, sha256 {want['sha256']}"
        return None

    def oracle(self, done):
        return []


WORKLOADS = {w.name: w for w in (ApiStream, DegreeTables, VerifyAll, CliOneshot)}
