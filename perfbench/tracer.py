"""Spans around the public calls into each qacodes layer, taken from outside.

The tracer rebinds public functions and methods of the imported `qacodes`
modules to thin wrappers.  Each wrapped call records a span (name, start,
end, parent span) in memory; every call also adds to per-name totals of
calls, wall seconds and self seconds (wall minus the time covered by wrapped
calls made inside it).  Spans are written out once, at the end of a traced
child process.

`LinearCode.__hash__` runs about a million times in one search, so it is
counted and timed like the rest but keeps no per-call span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.items: dict[str, int] = {}
        self.search_stats: list[dict] = []
        self.search_specs: list = []
        self.enabled = True
        # frames: [name, start, time covered by children, span index]
        self._stack: list[list] = []

    # -- recording -------------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> list:
        idx = -1
        if keep:
            idx = len(self.spans)
            self.spans.append(None)  # filled on exit; keeps parents before children
        frame = [name, _clock(), 0.0, idx]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = _clock()
        self._stack.pop()
        name, start, covered, idx = frame
        wall = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + wall
        self.self_s[name] = self.self_s.get(name, 0.0) + wall - covered
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += wall
        if idx >= 0:
            nid = self.names.setdefault(name, len(self.names))
            pidx = -1
            for f in reversed(self._stack):
                if f[3] >= 0:
                    pidx = f[3]
                    break
            self.spans[idx] = (nid, start, end, pidx)

    def wrap(self, name: str, fn, keep: bool = True, items=None):
        """`items(*args)`, if given, is the work one call does, summed per name."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if items is not None:
                self.items[name] = self.items.get(name, 0) + items(*args)
            frame = self._enter(name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return traced

    def wrap_generator(self, name: str, fn):
        """Time only the work done inside the generator: each resumption is
        one interval of the same layer, and the count is the items yielded."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if not self.enabled:
                    item = next(it, _DONE)
                else:
                    frame = self._enter(name, keep=False)
                    try:
                        item = next(it, _DONE)
                    finally:
                        self._exit(frame)
                if item is _DONE:
                    return
                if self.enabled:
                    self.items[name] = self.items.get(name, 0) + 1
                yield item
        return traced

    # -- output ------------------------------------------------------------------

    def summary(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                "items": self.items, "search_stats": self.search_stats}

    def write_spans(self, path) -> None:
        names = sorted(self.names, key=self.names.get)
        doc = {"clock": "time.perf_counter", "names": names,
               "fields": ["name", "start", "end", "parent"],
               "spans": [list(s) for s in self.spans if s is not None]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


_DONE = object()


def _rebind(old, new) -> None:
    """Point every name bound to `old` in the loaded qacodes modules at `new`
    (modules import functions by name, so one module attribute is not enough)."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "qacodes" or modname.startswith("qacodes.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every layer."""
    from qacodes import algebra, cli, concatenation, diagnostics, families
    from qacodes import idempotents, linear_codes, reference
    search = importlib.import_module("qacodes.search")  # `qacodes.search` is the function

    functions = [
        ("decompose_algebra", idempotents.decompose_algebra),
        ("rref", linear_codes.rref),
        ("distance_bound", concatenation.distance_bound),
        ("constituents_of", concatenation.constituents_of),
        ("gcc_build", concatenation.gcc_build),
        ("family_report", families.family_report),
        ("run_identity_suite", diagnostics.run_identity_suite),
        ("run_reference_suite", reference.run_reference_suite),
        ("stage1_filter", search.stage1_filter),
        ("cli.main", cli.main),
    ]
    for name, fn in functions:
        _rebind(fn, tracer.wrap(name, fn))
    _rebind(linear_codes.enumerate_codes,
            tracer.wrap_generator("enumerate_codes", linear_codes.enumerate_codes))

    plain_search = search.search

    def search_with_stats(spec):
        result = plain_search(spec)
        if tracer.enabled:
            tracer.search_stats.append(result.stats)
            tracer.search_specs.append(spec)
        return result
    _rebind(plain_search, tracer.wrap("search", functools.wraps(plain_search)(search_with_stats)))

    def codewords(code, *args, **kwargs):
        return code.codeword_count

    methods = [
        (algebra.FieldSpec, "__init__", "FieldSpec", True, None),
        (idempotents.SemisimpleDecomposition, "lift_vector", "lift_vector", True, None),
        (linear_codes.LinearCode, "min_distance", "min_distance", True, codewords),
        (linear_codes.LinearCode, "weight_distribution", "weight_distribution", True,
         codewords),
        (linear_codes.LinearCode, "__hash__", "LinearCode.__hash__", False, None),
    ]
    for cls, attr, name, keep, items in methods:
        fn = inspect.getattr_static(cls, attr)
        setattr(cls, attr, tracer.wrap(name, fn, keep, items))

    flat = inspect.getattr_static(concatenation.QACode, "flattened")
    prop = functools.cached_property(tracer.wrap("QACode.flattened", flat.func))
    prop.__set_name__(concatenation.QACode, "flattened")
    concatenation.QACode.flattened = prop
