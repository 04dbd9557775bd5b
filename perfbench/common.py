"""Shared plumbing: locating the package, its caches, and summary statistics."""
from __future__ import annotations

import gc
import importlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# Module -> layer.  `series` is folded into `symfun`, its only caller.
LAYER_OF_MODULE = {
    "words": "words", "linear": "linear", "fbasis": "fbasis",
    "gbasis": "gbasis", "catalan": "catalan", "schroder": "schroder",
    "matrices": "matrices", "symfun": "symfun", "series": "symfun",
    "jsonio": "jsonio", "verify": "verify", "cli": "cli",
}


class MissingPackage(RuntimeError):
    pass


def package_path_ok() -> bool:
    return (SRC / "parkhopf" / "__init__.py").is_file()


def load_package() -> dict:
    """Import every package module from the checkout's `src` and return them."""
    if not package_path_ok():
        raise MissingPackage(f"no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {}
    for short in LAYER_OF_MODULE:
        mod = importlib.import_module(f"parkhopf.{short}")
        if not str(Path(mod.__file__).resolve()).startswith(str(SRC.resolve())):
            raise MissingPackage(f"parkhopf imported from outside {SRC}")
        mods[short] = mod
    return mods


def package_caches(mods: dict) -> dict:
    """Every `lru_cache` defined in the package, keyed `<module>.<function>`."""
    out = {}
    for short, mod in mods.items():
        for name, obj in vars(mod).items():
            info = getattr(obj, "cache_info", None)
            if callable(info) and getattr(obj, "__module__", "") == mod.__name__:
                out[f"{short}.{name}"] = obj
    return dict(sorted(out.items()))


def clear_caches(caches: dict) -> None:
    for fn in caches.values():
        fn.cache_clear()


def cache_snapshot(caches: dict) -> dict:
    out = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        out[name] = (info.hits, info.misses, info.currsize)
    return out


def cache_metrics(before: dict, after: dict, names) -> dict:
    """Entries at the end and hit ratio over the interval, total and per cache."""
    metrics = {}
    tot_h = tot_m = tot_e = 0
    for name in names:
        h0, m0, _ = before.get(name, (0, 0, 0))
        h1, m1, e1 = after.get(name, (0, 0, 0))
        h, m = h1 - h0, m1 - m0
        tot_h, tot_m, tot_e = tot_h + h, tot_m + m, tot_e + e1
        metrics[f"cache.{name}.entries"] = e1
        metrics[f"cache.{name}.hit_ratio"] = h / (h + m) if h + m else 0.0
    metrics["cache.entries"] = tot_e
    metrics["cache.hit_ratio"] = tot_h / (tot_h + tot_m) if tot_h + tot_m else 0.0
    return metrics


def quantile(sorted_vals: list, q: float) -> float:
    """Linear interpolation between closest ranks; q in [0, 1]."""
    if not sorted_vals:
        raise ValueError("no samples")
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """p99, or the highest percentile with at least ten of n samples beyond it.

    Below twenty samples no percentile above the median has ten beyond
    it, so the maximum is reported instead.
    """
    q = min(0.99, 1 - 10 / n) if n else 1.0
    return q if q >= 0.5 else 1.0


def median(vals) -> float:
    return quantile(sorted(vals), 0.5)


def reference_loop() -> float:
    """Seconds taken now by a fixed pure-Python loop of the kind the package
    runs: tuple keys, dict accumulation and Fraction sums.  It shares no
    code with the package, so its time tracks only the machine's speed at
    that moment.  It takes a few milliseconds."""
    was_enabled = gc.isenabled()
    gc.disable()  # a collection would time the package's heap, not the machine
    try:
        t0 = perf_counter()
        acc: dict = {}
        one = Fraction(1)
        for i in range(1500):
            key = tuple(sorted((i % 7 + 1, i % 5 + 1, i % 3 + 1)))
            acc[key] = acc.get(key, Fraction(0)) + one
            if i % 100 == 0:
                acc = dict(acc)
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)
