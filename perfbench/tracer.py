"""Spans around every public name of berezinlab's seven layers.

``Tracer.install`` replaces each public function and method of a layer
module with a wrapper that records a span (layer, name, start, end,
parent) and work counts, and also replaces the copies of those names
that other modules imported (``from .operators import unitary_uz``) or
stored in module-level tables (the battery registry).  ``uninstall``
puts every original back, so untraced rounds run the unmodified program.

Self time of a layer is the duration of its spans minus the part
covered by their child spans.  Work counts are derived from arguments
and results at the outermost call into a layer, so a layer calling
itself is not counted twice: ``berezin.values`` counts the values
handed out of the layer, not the transforms it takes internally (such
as the ``berezin_operator`` inside ``berezin_of_product``).
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import numbers
import time

import numpy as np

LAYERS = ("diskgeom", "symbols", "quadrature", "operators", "berezin",
          "suites", "cli")
COUNTS = ("diskgeom.points", "symbols.points", "quadrature.rules_built",
          "operators.entries_built", "berezin.values", "cli.bytes_out")

# Operator methods are public API even though their names are dunders;
# matrix products in particular are where operator work happens.
_DUNDERS = {"__init__", "__call__", "__add__", "__sub__", "__mul__",
            "__rmul__", "__matmul__", "__neg__"}
_TRANSFORM_PREFIXES = ("berezin_symbol_", "berezin_operator", "berezin_of_product",
                       "mean_value_transform")


def _size(x) -> int:
    if isinstance(x, np.ndarray):
        return int(x.size)
    return 1


def _points(args) -> int:
    sizes = [_size(a) for a in args
             if isinstance(a, (np.ndarray, numbers.Number)) or hasattr(a, "value")]
    return max(sizes, default=0)


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"berezinlab.{layer}")
                        for layer in LAYERS}
        self._wrappers = {}     # id(original) -> (original, wrapper)
        self._class_patches = []  # (cls, attr, original descriptor, wrapped descriptor)
        self._patches = []      # (namespace, key, original) applied by install
        self._build()
        self.stack = [["", 0.0, -1]]   # [layer, child time, span index]
        self.spans = []
        self.keep_spans = False   # the worker keeps the first traced round's spans
        self.reset()

    # -- wrapping -------------------------------------------------------

    def reset(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        perf = time.perf_counter
        short = name.rsplit(".", 1)[-1]
        # Rule builds are counted at any depth.
        always = name == "DiskQuadrature.__init__"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            outermost = parent[0] != layer
            index = -1
            if tracer.keep_spans:
                index = len(tracer.spans)
                tracer.spans.append([layer, name, 0.0, 0.0, parent[2]])
            frame = [layer, 0.0, index]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                duration = t1 - t0
                parent[1] += duration
                tracer.self_s[layer] += duration - frame[1]
                tracer.calls[layer] += 1
                if index >= 0:
                    tracer.spans[index][2:4] = (t0, t1)
            if outermost or always:
                tracer._count(layer, short, args, result)
            return result

        return wrapper

    def _count(self, layer, short, args, result):
        counts = self.counts
        if layer == "berezin":
            if not short.startswith(_TRANSFORM_PREFIXES):
                return
            if isinstance(result, numbers.Number):
                counts["berezin.values"] += 1
            elif isinstance(result, np.ndarray):
                counts["berezin.values"] += int(result.size)
            elif isinstance(getattr(result, "value", None), numbers.Number):
                counts["berezin.values"] += 1
        elif layer == "diskgeom":
            counts["diskgeom.points"] += _points(args)
        elif layer == "symbols":
            if short.startswith(("evaluate", "derivative")):
                counts["symbols.points"] += _size(result)
        elif layer == "quadrature":
            if short == "__init__":
                counts["quadrature.rules_built"] += 1
        elif layer == "operators":
            matrix = getattr(result, "matrix", result)
            if isinstance(matrix, np.ndarray):
                counts["operators.entries_built"] += int(matrix.size)

    def _build(self):
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, (BaseException, enum.Enum)):
                        continue
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    self._wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            label = f"{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(layer, label, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(layer, label, raw)
            else:
                continue
            self._class_patches.append((cls, attr, raw, wrapped))

    # -- install / uninstall ----------------------------------------------

    def _namespaces(self):
        package = importlib.import_module("berezinlab")
        spaces = [vars(package)]
        for module in self.modules.values():
            spaces.append(vars(module))
            spaces.extend(v for v in vars(module).values() if isinstance(v, dict))
        return spaces

    def install(self):
        if self._patches:
            return
        for cls, attr, _, wrapped in self._class_patches:
            setattr(cls, attr, wrapped)
        for space in self._namespaces():
            for key, value in list(space.items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    space[key] = hit[1]
                    self._patches.append((space, key, value))

    def uninstall(self):
        for cls, attr, raw, _ in self._class_patches:
            setattr(cls, attr, raw)
        for space, key, value in reversed(self._patches):
            space[key] = value
        self._patches = []

    def snapshot(self) -> dict:
        """Current totals: calls and self seconds per layer, and work counts."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}
