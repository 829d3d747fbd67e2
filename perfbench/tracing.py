"""Spans around the calls into each layer of the package, recorded from
outside it.

:meth:`Tracer.install` rebinds the public functions of every layer module
(and the ``HornPropagator`` class the routes bind as a module global) to
wrappers that record ``[name, start, end, parent]``; :meth:`Tracer.remove`
puts the originals back.  A span's name is ``<layer>.<function>``, its
layer is the module it belongs to, and its self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = ("core", "engine", "interior", "exterior", "envelope", "oracle", "cli")

#: module -> public functions wrapped in it; every module that imports one
#: of these names gets the same wrapper, so calls between layers nest.
TRACED = {
    "core": ("parse_horn_cnf", "parse_model_set", "serialize_model_set"),
    "engine": ("minimal_model", "entails", "charset_entails", "min_model_above",
               "is_intersection_closed", "characteristic_set", "intersection_closure"),
    "interior": ("deduce_interior_formula", "deduce_interior_charset"),
    "exterior": ("deduce_exterior_formula", "deduce_exterior_charset"),
    "envelope": ("deduce_envelope_formula", "deduce_envelope_charset"),
    "oracle": ("all_models",),
    "cli": ("main",),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the benchmark's own (an operation)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, package) -> None:
        modules = {name: getattr(package, name) for name in LAYERS}
        wrapped = {}
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrapped[id(original)] = (original, self.wrap(f"{layer}.{fname}", original))
        engine = modules["engine"]
        base = engine.HornPropagator
        traced_cls = type("HornPropagator", (base,), {
            "__init__": self.wrap("engine.HornPropagator.build", base.__init__),
            "minimal_model": self.wrap("engine.HornPropagator.minimal_model", base.minimal_model),
        })
        wrapped[id(base)] = (base, traced_cls)
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def remove(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def summary(self) -> dict:
        """Per span name: every duration and self time, and the self time
        summed over the spans that ran inside an operation (seconds)."""
        child = [0.0] * len(self.spans)
        in_op = [False] * len(self.spans)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                in_op[idx] = in_op[parent] or self.spans[parent][0] == "op"
        out: dict[str, dict] = defaultdict(lambda: {"dur": [], "self": [], "self_in_op": 0.0})
        for idx, (name, start, end, _) in enumerate(self.spans):
            own = end - start - child[idx]
            out[name]["dur"].append(end - start)
            out[name]["self"].append(own)
            if in_op[idx] or name == "op":
                out[name]["self_in_op"] += own
        return dict(out)
