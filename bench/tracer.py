"""Span tracing of oscnet's public functions, installed from outside.

``Tracer.install`` replaces every public function of the traced layers (and
the ``__init__`` of every public class that validates its fields, plus that
class's public methods) with a wrapper that records a span, in every oscnet
module namespace that binds it.  Spans stay in memory until ``dump``.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "model", "criteria", "linalg", "simulate")


def public_names(module):
    """(traced name, owner, attribute) for each public callable of a layer."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{layer}.{name}", module, name))
        elif inspect.isclass(obj):
            if "__post_init__" in vars(obj):
                out.append((f"{layer}.{name}", obj, "__init__"))
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    out.append((f"{layer}.{name}.{attr}", obj, attr))
    return out


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op, child seconds]
        self.stack = []
        self.counters = {}
        self.op = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            span = [name, time.perf_counter(), None, parent, self.op, 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                self._count(name, args, kwargs, result)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][5] += span[2] - span[1]
        return traced

    def _count(self, name, args, kwargs, result):
        if name == "simulate.integrate":
            self.add("simulate.integrate.steps", result.times.size - 1)
        elif name == "simulate.SimulationTrace.to_csv":
            path = kwargs.get("path", args[1] if len(args) > 1 else None)
            self.add("simulate.csv_bytes", os.path.getsize(path))

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def install(self):
        """Wrap the public callables of every layer in every namespace."""
        modules = [m for key, m in sys.modules.items()
                   if key == "oscnet" or key.startswith("oscnet.")]
        for layer in LAYERS:
            for name, owner, attr in public_names(sys.modules[f"oscnet.{layer}"]):
                original = vars(owner)[attr]
                wrapped = self._wrap(name, original)
                setattr(owner, attr, wrapped)
                if inspect.ismodule(owner):
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapped)

    def totals(self):
        """{name: [calls, self seconds, total seconds]} over all spans; a
        recursive call adds to the total only at its outermost span."""
        out = {}
        for name, start, end, parent, _, child in self.spans:
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child
            if parent is None or self.spans[parent][0] != name:
                entry[2] += end - start
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "child_s"],
                       "spans": self.spans, "counters": self.counters}, fh)
