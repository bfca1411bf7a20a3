"""Outside-in tracing of the wittcap package.

`Tracer.install()` replaces every public function of the seven modules with
a wrapper, in every module namespace that binds it (several modules import
names directly, e.g. `cap.classify_conic_plane`), and `uninstall()` puts the
originals back.  The library itself is never edited.

Two kinds of wrapper:

* counters, for the hot leaves that run tens of thousands of times per item
  (all of `gf3`, plus `pg.canonical_point` and `pg.incident`): one dict
  increment per call, no span;
* spans, for everything else: name, start, end, parent span and item id,
  appended to an in-memory list and aggregated when the run ends.

Self time of a span is its duration minus the durations of its direct
children; on one thread children never overlap, so that is exactly the
part of the interval no child covers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

PACKAGE = "wittcap"
MODULES = ("gf3", "pg", "veronese", "cap", "golay", "cosets", "cli")
COUNTED = {"pg.canonical_point", "pg.incident"}


def public_functions() -> dict[str, object]:
    """`module.name` -> original function, for every public function defined
    in one of the seven modules (including the lru_cache'd ones)."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                out[f"{short}.{name}"] = obj
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, item]
        self.counts: dict[str, int] = {}
        self.item = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        originals = public_functions()
        wrappers = {}
        for qual, fn in originals.items():
            leaf = qual.startswith("gf3.") or qual in COUNTED
            w = (self._counter if leaf else self._span)(qual, fn)
            if hasattr(fn, "cache_info"):           # keep lru_cache's interface
                w.cache_info = fn.cache_info
                w.cache_clear = fn.cache_clear
            wrappers[id(fn)] = w
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
        ]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, w)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def bindings(self) -> set[str]:
        """`namespace.name` of every binding currently wrapped."""
        return {f"{mod.__name__.split('.')[-1]}.{name}" for mod, name, _ in self._patched}


def aggregate(spans, items) -> dict[str, dict]:
    """Per function: calls, total and self time (ms) and per-call durations,
    over the spans whose item id is in `items`."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    out: dict[str, dict] = {}
    for i, (name, start, end, _, item) in enumerate(spans):
        if item not in items:
            continue
        s = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "durations": []})
        dur = (end - start) * 1000.0
        s["calls"] += 1
        s["ms"] += dur
        s["self_ms"] += dur - child_time[i] * 1000.0
        s["durations"].append(dur)
    return out
