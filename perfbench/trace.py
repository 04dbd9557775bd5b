"""In-memory span tracer installed from outside the package.

`Tracer.install` replaces every package function that another layer can
reach -- public module functions, private ones that another module
re-imports or that are memo tables, closures bound at module level such
as `f_mul`, the hot `Lin` methods, and references held in module-level
tables such as the CLI's `MUL` dict or `verify.CHECKS` -- with a wrapper
that counts the call.  A call whose caller sits in another layer also
opens a span (request id, span id, parent span id, name, start, end).
Layer self time is a span's duration minus the time its child spans
cover.  `uninstall` puts every original back.
"""
from __future__ import annotations

import inspect
import json
import types
from math import comb
from time import perf_counter

from .common import LAYER_OF_MODULE

LIN_METHODS = ("__add__", "__sub__", "__neg__", "scale", "__mul__",
               "__rmul__", "map_labels", "coeff", "basis", "zero")


def _fubini(n: int) -> int:
    """Terms summed by the closed-form antipode of a length-n word: the
    ordered Bell number, one multinomial per block factorization."""
    f = [1] + [0] * n
    for m in range(1, n + 1):
        f[m] = sum(comb(m, k) * f[m - k] for k in range(1, m + 1))
    return f[n]


class Tracer:
    ROOT_LAYER = "bench"

    def __init__(self, mods: dict, max_spans: int = 50_000):
        self.mods = mods
        self.max_spans = max_spans
        self.stack = [[self.ROOT_LAYER, 0.0, 0]]  # layer, child time, span id
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request = -1
        self._next_id = 1
        self._patches: list[tuple] = []
        # layer counters measured where the work happens
        self.enum_items = 0
        self.enum_s = 0.0
        self.add_calls = 0
        self.terms_in = 0
        self.antipode_out = 0
        self.antipode_summed = 0
        self.fiber_found = 0
        self.fiber_tried = 0

    # -- wrappers ----------------------------------------------------------

    def _enter(self, layer: str):
        frame = [layer, 0.0, self._next_id]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _leave(self, frame, name: str, t0: float, t1: float) -> float:
        stack = self.stack
        stack.pop()
        dur = t1 - t0
        layer = frame[0]
        self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - frame[1]
        parent = stack[-1]
        parent[1] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((self.request, frame[2], parent[2], name, t0, t1))
        else:
            self.dropped += 1
        return dur

    def wrap(self, fn, layer: str, name: str, hook=None):
        stack, calls = self.stack, self.calls
        calls.setdefault(layer, 0)
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                calls[layer] += 1
                return self._iterate(fn(*args, **kwargs), layer, name)
            return gen_wrapper

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = self._enter(layer)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._leave(frame, name, t0, perf_counter())
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def _iterate(self, gen, layer: str, name: str):
        stack = self.stack
        while True:
            if stack[-1][0] == layer:
                try:
                    item = next(gen)
                except StopIteration:
                    return
                yield item
                continue
            frame = self._enter(layer)
            t0 = perf_counter()
            try:
                item = next(gen)
                done = False
            except StopIteration:
                done = True
            finally:
                dur = self._leave(frame, name, t0, perf_counter())
            self.enum_s += dur
            if done:
                return
            self.enum_items += 1
            yield item

    def span(self, name: str, fn, *args):
        """Run fn(*args) as one request: a span of the benchmark's own layer
        whose id every span under it carries as its request id."""
        self.request = self._next_id
        frame = self._enter(self.ROOT_LAYER)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._leave(frame, name, t0, perf_counter())

    # -- hooks for the layer ratios ---------------------------------------

    def _add_hook(self, args, result):
        self.add_calls += 1
        self.terms_in += len(args[1])

    def _antipode_hook(self, args, result):
        self.antipode_out += len(result)
        self.antipode_summed += _fubini(len(args[0]))

    def _fiber_hook(self, args, result):
        a, m = args
        self.fiber_found += len(result)
        self.fiber_tried += comb(m, len(set(a))) if a else 1

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        mods = self.mods
        hooks = {"fbasis.f_antipode": self._antipode_hook,
                 "gbasis.parkization_fiber": self._fiber_hook}
        replaced: dict[int, object] = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            layer = LAYER_OF_MODULE[short]
            for name, obj in list(vars(mod).items()):
                if not self._traceable(obj, short, name):
                    continue
                if id(obj) not in replaced:
                    key = f"{short}.{name}"
                    replaced[id(obj)] = self.wrap(obj, layer, key, hooks.get(key))
        # rebind every module-level reference, including re-imports and
        # functions held in module-level tables
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and callable(obj):
                    self._patch_attr(mod, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    self._patch_dict(obj, replaced)
                elif isinstance(obj, list):
                    self._patch_list(obj, replaced)
        lin = mods["linear"].Lin
        for name in LIN_METHODS:
            raw = lin.__dict__[name]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            hook = self._add_hook if name == "__add__" else None
            w = self.wrap(fn, "linear", f"linear.Lin.{name}", hook)
            self._patch_attr(lin, name, staticmethod(w) if static else w)

    def _traceable(self, obj, short: str, name: str) -> bool:
        if name.startswith("__"):
            return False
        if isinstance(obj, types.FunctionType):
            owner = obj.__module__
            if owner.startswith("parkhopf.") and "<locals>" in obj.__qualname__:
                return True  # closures bound at module level (f_mul, ...)
            if owner != f"parkhopf.{short}":
                return False
        elif callable(getattr(obj, "cache_info", None)):
            if obj.__module__ != f"parkhopf.{short}":
                return False
            return True  # memo tables, public or private
        else:
            return False
        if not name.startswith("_"):
            return True
        return any(vars(m).get(name) is obj
                   for s, m in self.mods.items() if s != short)

    def _patch_attr(self, owner, name, new):
        self._patches.append(("attr", owner, name, owner.__dict__[name]
                              if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, new)

    def _patch_dict(self, d: dict, replaced):
        for k, v in list(d.items()):
            nv = self._swap(v, replaced)
            if nv is not v:
                self._patches.append(("item", d, k, v))
                d[k] = nv

    def _patch_list(self, lst: list, replaced):
        for i, v in enumerate(lst):
            nv = self._swap(v, replaced)
            if nv is not v:
                self._patches.append(("item", lst, i, v))
                lst[i] = nv

    @staticmethod
    def _swap(v, replaced):
        if id(v) in replaced and callable(v):
            return replaced[id(v)]
        if isinstance(v, tuple) and any(id(x) in replaced for x in v):
            return tuple(replaced.get(id(x), x) if callable(x) else x for x in v)
        return v

    def uninstall(self) -> None:
        for kind, owner, key, old in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, old)
            else:
                owner[key] = old
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"dropped": self.dropped}) + "\n")
            for req, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([req, sid, parent, name,
                                     round(t0, 7), round(t1, 7)]) + "\n")

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "enum_items": self.enum_items, "enum_s": self.enum_s,
            "add_calls": self.add_calls, "terms_in": self.terms_in,
            "antipode_out": self.antipode_out,
            "antipode_summed": self.antipode_summed,
            "fiber_found": self.fiber_found, "fiber_tried": self.fiber_tried,
        }


def merge_summaries(parts: list[dict]) -> dict:
    """Sum tracer summaries (one per CLI child process)."""
    out: dict = {"self_s": {}, "calls": {}}
    for p in parts:
        for key in ("self_s", "calls"):
            for layer, v in p[key].items():
                out[key][layer] = out[key].get(layer, 0) + v
        for key, v in p.items():
            if key not in ("self_s", "calls"):
                out[key] = out.get(key, 0) + v
    return out


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics named in BENCHMARK.json, from a tracer summary."""
    self_s, calls = summary["self_s"], summary["calls"]
    m = {f"{layer}.self_s": self_s.get(layer, 0.0)
         for layer in ("words", "linear", "fbasis", "gbasis", "catalan",
                       "schroder", "matrices", "symfun", "jsonio")}
    m["words.calls"] = calls.get("words", 0)
    m["words.enum_per_s"] = (summary["enum_items"] / summary["enum_s"]
                             if summary["enum_s"] else 0.0)
    m["linear.add_calls"] = summary["add_calls"]
    m["linear.terms_in"] = summary["terms_in"]
    m["fbasis.antipode_yield"] = (summary["antipode_out"] / summary["antipode_summed"]
                                  if summary["antipode_summed"] else 0.0)
    m["gbasis.fiber_yield"] = (summary["fiber_found"] / summary["fiber_tried"]
                               if summary["fiber_tried"] else 0.0)
    return m
