"""parkhopf benchmark: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: api-stream, degree-tables, verify-all, cli-oneshot (see
perfbench/README.md).  Inputs come from the seed and are built before
timing starts.  Every answer is checked after timing.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the run is repeated under the span tracer and the metrics are
the per-layer ones, including the tracer's own overhead.
"""
from __future__ import annotations

import argparse
import json
import resource
import signal
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (OUT_DIR, ROOT, MissingPackage, cache_metrics,  # noqa: E402
                              cache_snapshot, clear_caches, load_package,
                              load_spec, median, package_caches, package_path_ok,
                              quantile, reference_loop, tail_quantile)
from perfbench.trace import Tracer, layer_metrics, merge_summaries  # noqa: E402
from perfbench.workloads import KINDS, WORKLOADS  # noqa: E402

# The five slowest checks of `verify.run("all", 4)` at the seed commit.
SLOW_CHECKS = ("duality/st-dual-bases", "equivalences/class-quotient",
               "equivalences/matrix-parkization", "hopf/f-antipode-axiom",
               "equivalences/cumulant-roundtrip")

KEEP_UNITS = 1          # answers kept for the second routes and the traced comparison
PROBE_INTERVAL_S = 0.1  # reference-loop probes interrupt the run this often
PROBE_WINDOW_S = 0.25   # probes this close to an operation set its speed
PROBES_BESIDE = 3       # between-op probes on each side that set an operation's speed


class Run:
    """Timings of one timed loop, its check failures, and the answers of
    its first unit.

    While the loop runs, a timer signal interrupts it every
    PROBE_INTERVAL_S, also inside long operations, and times the reference
    loop.  An operation's latency is its span minus the probes inside it;
    its cost in `ref` is that latency over the median of the probes from
    PROBE_WINDOW_S before it to PROBE_WINDOW_S after it, which does not
    move when other tenants of the host change the machine's speed.

    Operations that run in a child process are probed between instead,
    with the workload's own `reference` (a reference child process), and
    each is set against the PROBES_BESIDE probes before it and after it.
    """

    def __init__(self, probe_between_ops: bool = False, reference=reference_loop):
        self.probe_between_ops = probe_between_ops
        self.reference = reference
        self.done: list[tuple] = []
        self.spans: list[tuple[float, float]] = []  # (start, end) per operation
        self.latency: list[float] = []
        self.units: list[tuple[int, int]] = []  # (first op, end) per unit
        self.errors: list[str] = []
        self.probes: list[float] = []  # seconds per probe
        self.probe_starts: list[float] = []
        self.caches_before: dict = {}
        self.caches_after: dict = {}
        self.first_unit_rss_kib = 0
        self._probing = False

    def probe(self, *_signal) -> None:
        if self._probing:  # a late timer signal during a probe
            return
        self._probing = True
        start = perf_counter()
        self.probes.append(self.reference())
        self.probe_starts.append(start)
        self._probing = False

    def start_probes(self) -> None:
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop_probes(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def record(self, label, start, end, answer):
        self.done.append((label, answer))
        self.spans.append((start, end))
        first, last = self._probes_within(start, end)
        self.latency.append(end - start - sum(self.probes[first:last]))
        if self.probe_between_ops:
            self.probe()

    def _probes_within(self, start, end) -> tuple[int, int]:
        return bisect_left(self.probe_starts, start), bisect_left(self.probe_starts, end)

    def ref_latency(self) -> list[float]:
        out = []
        for (start, end), s in zip(self.spans, self.latency):
            if self.probe_between_ops:
                before, after = self._probes_within(start, end)
                near = (self.probes[max(before - PROBES_BESIDE, 0):before]
                        + self.probes[after:after + PROBES_BESIDE])
            else:
                first, last = self._probes_within(start - PROBE_WINDOW_S, end + PROBE_WINDOW_S)
                near = self.probes[first:last] or self.probes[max(first - 1, 0):first + 1]
            out.append(s / median(near))
        return out

    def unit_sums(self, values: list[float]) -> list[float]:
        return [sum(values[a:b]) for a, b in self.units]

    def check_unit(self, wl, start: int) -> None:
        """Check the answers recorded since `start`; keep them only for the
        first KEEP_UNITS units so memory does not grow with run length."""
        keep = len(self.units) <= KEEP_UNITS
        for idx in range(start, len(self.done)):
            label, answer = self.done[idx]
            try:
                err = wl.check(label, answer)
            except Exception as exc:  # a checker crash on a wrong answer is a failure
                err = f"checker raised {exc!r}"
            if err:
                self.errors.append(f"{label}: {err}")
            if not keep:
                self.done[idx] = (label, None)

    def kept(self) -> list[tuple]:
        return [(label, a) for label, a in self.done if a is not None]


def timed_loop(wl, caches, seconds: float, tracer=None) -> Run:
    """Run whole units, about `seconds` of operation time and at least
    `wl.min_units`, checking each unit's answers after it."""
    run = Run(probe_between_ops=wl.in_child,
              reference=getattr(wl, "reference", reference_loop))
    # no probes in traced spans, where they would count as layer time
    timer = tracer is None and not wl.in_child
    if not wl.cold:
        run.caches_before = cache_snapshot(caches)
    spent = 0.0
    min_units = getattr(wl, "min_units", 1)
    while len(run.units) < min_units or spent + (spent / len(run.units)) / 2 < seconds:
        if wl.cold:
            clear_caches(caches)
            run.caches_before = cache_snapshot(caches)
        start = len(run.done)
        if timer:
            run.start_probes()
        else:
            run.probe()
        try:
            wl.run_unit(len(run.units), run.record, tracer)
        finally:
            if timer:
                run.stop_probes()
            else:
                run.probe()
        run.units.append((start, len(run.done)))
        if len(run.units) == 1:
            run.first_unit_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        spent += sum(run.latency[start:])
        if tracer is None:
            run.caches_after = cache_snapshot(caches)
            run.check_unit(wl, start)
    return run


def oracle_errors(wl, run: Run) -> list[str]:
    """Second routes, run after all timing so their caches cannot warm the
    production route."""
    return [err for _, err in wl.oracle(run.kept())]


def setup_once(workload: str, seed: int) -> float:
    """Wall time of a fresh process that only imports the package and sets
    the workload up (input generation and warm-up)."""
    t0 = perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(seed), "--setup-only"],
                   check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return perf_counter() - t0


def end_to_end(wl, run: Run) -> dict:
    ref = run.ref_latency()
    # the tail is taken per unit and its median reported, so it does not
    # change with the number of units the machine's speed allowed
    first, end = run.units[0]
    q = tail_quantile(end - first)
    tails = [quantile(sorted(ref[a:b]), q) for a, b in run.units]
    tail = "max" if q == 1.0 else f"p{q * 100:g}"
    if end - first <= 16:  # few, distinct operations: show each one
        print("first unit, raw seconds: " + ", ".join(
            f"{label} {s:.4f}" for (label, _), s in zip(run.done[first:end],
                                                         run.latency[first:end])))
    lat = sorted(run.latency)
    print(f"p99_ref is the median over {len(run.units)} unit(s) of each unit's {tail} "
          f"of {end - first} operation latencies; as measured: "
          f"wall_s {sum(run.unit_sums(run.latency)) / len(run.units):.4f}, "
          f"ops_per_s {len(lat) / sum(lat):.4f}, p50_ms {quantile(lat, 0.5) * 1000:.4f}, "
          f"{tail}_ms {quantile(lat, q) * 1000:.4f}, reference {'child' if wl.in_child else 'loop'} "
          f"{median(run.probes) * 1000:.3f} ms over {len(run.probes)} probes")
    if wl.in_child:
        rss_kib = max(wl.child_rss)
    else:  # through set-up and the first unit, whatever the unit count
        rss_kib = run.first_unit_rss_kib
    return {
        "wall_ref": sum(run.unit_sums(ref)) / len(run.units),
        "ops_per_ref": len(ref) / sum(ref),
        "p50_ref": median(ref),
        "p99_ref": median(tails),
        "peak_rss_mb": rss_kib / 1024,
    }


def per_op_metrics(workload: str, run: Run) -> dict:
    m = {}
    for kind in KINDS:
        lat = [s for (label, _), s in zip(run.done, run.latency)
               if workload == "api-stream" and label[0] == kind]
        m[f"op.{kind}.p50_ms"] = median(lat) * 1000 if lat else 0.0
    suites: dict[str, float] = {}
    checks: dict[str, float] = {}
    if workload == "verify-all":
        a, b = run.units[-1]
        for (label, _), s in zip(run.done[a:b], run.latency[a:b]):
            suite = label.split("/")[0]
            suites[suite] = suites.get(suite, 0.0) + s
            checks[label] = s
    for suite in ("paper-examples", "hopf", "duality", "counts", "equivalences"):
        m[f"verify.{suite}_s"] = suites.get(suite, 0.0)
    for name in SLOW_CHECKS:
        m[f"verify.check.{name.split('/')[1]}_s"] = checks.get(name, 0.0)
    return m


def traced_metrics(wl, mods, caches, run: Run, args, import_ms: float) -> tuple[dict, list]:
    """Repeat the run under the tracer; return per-layer metrics and mismatches."""
    clear_caches(caches)
    wl.warm()
    tracer = Tracer(mods)
    if not wl.in_child:  # the children trace themselves
        tracer.install()
    try:
        traced = timed_loop(wl, caches, args.seconds, tracer)
    finally:
        tracer.uninstall()
    mismatches = [f"traced answer differs at {label}"
                  for (label, a), (tlabel, b) in zip(run.kept(), traced.done)
                  if label != tlabel or a != b]
    if wl.in_child:
        children = wl.child_traces
        summary = merge_summaries([c["trace"] for c in children])
        import_ms = median([c["import_ms"] for c in children])
        before = {}
        after: dict = {}
        for c in children:
            for name, vals in c["caches"].items():
                after[name] = tuple(x + y for x, y in zip(after.get(name, (0, 0, 0)), vals))
    else:
        summary = tracer.summary()
        before, after = run.caches_before, run.caches_after
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    m = layer_metrics(summary)
    m.update(per_op_metrics(args.workload, run))
    spec_caches = {n[len("cache."):].rsplit(".", 1)[0]
                   for n in (x["name"] for x in load_spec()["per_layer"])
                   if n.startswith("cache.") and n.count(".") >= 3}
    m.update(cache_metrics(before, after, sorted(set(caches) | spec_caches)))
    m["cli.import_ms"] = import_ms
    traced_s = sum(traced.unit_sums(traced.latency)) / len(traced.units)
    plain_s = sum(run.unit_sums(run.latency)) / len(run.units)
    m["trace.overhead_s"] = traced_s - plain_s
    print(f"wall_s per unit: traced {traced_s:.4f} over {len(traced.units)} unit(s), "
          f"untraced {plain_s:.4f} over {len(run.units)}")
    return m, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and set up, then exit (used to time set-up)")
    args = ap.parse_args(argv)
    if not package_path_ok():
        print("perfbench: the package sources (src/parkhopf) are not in this "
              "checkout", file=sys.stderr)
        return 2
    try:
        t0 = perf_counter()
        mods = load_package()
        import_ms = (perf_counter() - t0) * 1000
    except (MissingPackage, ImportError) as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](mods, args.seed)
    wl.prepare()
    wl.warm()
    if args.setup_only:
        return 0

    spec = load_spec()
    caches = package_caches(mods)
    setup_s = [] if args.trace else [setup_once(args.workload, args.seed)]
    run = timed_loop(wl, caches, args.seconds)
    if not args.trace:
        setup_s.append(setup_once(args.workload, args.seed))
    if args.trace:
        values, errors = traced_metrics(wl, mods, caches, run, args, import_ms)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(wl, run)
        errors = []
        wanted = spec["end_to_end"]
    errors = run.errors + oracle_errors(wl, run) + errors
    attempted = len(run.done)
    failed = min(len(errors), attempted)
    for err in errors[:20]:
        print(f"FAILED {err}", file=sys.stderr)
    if not args.trace:
        values["pass_rate"] = (attempted - failed) / attempted
        # set-up is timed before, between and after the measured parts so the
        # median spans the run's changes in machine speed
        setup_s.append(setup_once(args.workload, args.seed))
        values["setup_s"] = median(setup_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
