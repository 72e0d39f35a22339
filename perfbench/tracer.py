"""Span tracing at the module boundaries of `coupled_gue`, from outside the package.

install() wraps every function that a layer module defines (module-level
functions, and the methods, properties and cached properties of its classes)
and puts the wrapper wherever any `coupled_gue` module looks the function up,
for example `coupled_gue.fredholm.kernel_block`. A span's layer is the module
that defines the function, so renaming or deleting functions inside a module
changes which spans exist but not the layer totals; functions reached only
through tables built at import time run without a span of their own, and their
time counts to the calling span of the same layer. The calls `fredholm` makes
through its scipy.linalg module get spans of their own, in the layer LINALG.

Each span is [name, layer, start, end, parent index, op id, value]. Spans stay
in memory; summary() turns them into per-layer self times and counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import types
from time import perf_counter

import numpy as np

__all__ = ["LAYERS", "LINALG", "Tracer"]

PACKAGE = "coupled_gue"
# The package modules on the op paths, outermost first. `onematrix` (the test
# oracle) and `montecarlo` (verify --mc only) are left out on purpose.
LAYERS = ("cli", "residuals", "observables", "fredholm", "kernel", "hermite", "quadrature")
LINALG = "fredholm.linalg"
BENCH = "bench"

NAME, LAYER, START, END, PARENT, OP, VALUE = range(7)


def _result_size(args, kwargs, result, parent_layer, layer):
    """Values handed across the layer boundary (0 for calls within the layer)."""
    if parent_layer == layer:
        return 0
    if isinstance(result, np.ndarray):
        return result.size
    return 1 if isinstance(result, float) else 0


def _rhs_count(args, kwargs, result, parent_layer, layer):
    b = args[1] if len(args) > 1 else kwargs["b"]
    return b.shape[1] if np.ndim(b) == 2 else 1


class _LinalgProxy:
    """Stands in for scipy.linalg (or a submodule) and wraps what it hands out."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer
        self._cache = {}

    def __getattr__(self, attr):
        obj = self._cache.get(attr)
        if obj is None:
            obj = getattr(self._module, attr)
            if isinstance(obj, types.ModuleType):
                obj = _LinalgProxy(obj, self._tracer)
            elif callable(obj):
                obj = self._tracer._wrap(obj, LINALG, attr)
            self._cache[attr] = obj
        return obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._seen_points: set[int] = set()
        # per-span values, looked up by function name first, then by layer
        self._measures = {
            "hermite": _result_size,
            "kernel": _result_size,
            "PointCache.point": self._point_hit,
            "ray_grid": self._call_key,
            "lu_solve": _rhs_count,
        }

    # ---- spans -------------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str):
        spans, stack = self.spans, self._stack
        measure = self._measures.get(name) or self._measures.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, layer, perf_counter(), 0.0, parent, tracer.op_id, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if measure is not None:
                parent_layer = spans[parent][LAYER] if parent >= 0 else None
                span[VALUE] = measure(args, kwargs, result, parent_layer, layer)
            return result

        return traced

    @contextlib.contextmanager
    def op(self):
        """One op, recorded as a root span of layer BENCH."""
        self.op_id += 1
        self._seen_points.clear()
        span = [f"op{self.op_id}", BENCH, perf_counter(), 0.0, -1, self.op_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def _point_hit(self, args, kwargs, result, parent_layer, layer):
        key = id(result)
        hit = key in self._seen_points
        self._seen_points.add(key)
        return int(hit)

    @staticmethod
    def _call_key(args, kwargs, result, parent_layer, layer):
        return args + tuple(sorted(kwargs.items()))

    # ---- install / uninstall ----------------------------------------------
    def _patch(self, obj, attr, value):
        # vars(), not getattr(): a class must get back its staticmethod or
        # classmethod object, not the function a lookup unwraps it to
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def _wrap_class(self, cls, layer):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("__"):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(val, types.FunctionType):
                self._patch(cls, attr, self._wrap(val, layer, name))
            elif isinstance(val, (staticmethod, classmethod)):
                self._patch(cls, attr, type(val)(self._wrap(val.__func__, layer, name)))
            elif isinstance(val, property) and val.fget is not None:
                self._patch(cls, attr, val.getter(self._wrap(val.fget, layer, name)))
            elif isinstance(val, functools.cached_property):
                self._patch(val, "func", self._wrap(val.func, layer, name))

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, val in list(vars(mod).items()):
                if getattr(val, "__module__", None) != mod.__name__:
                    continue
                if isinstance(val, types.FunctionType):
                    wrappers[val] = self._wrap(val, layer, attr)
                elif isinstance(val, type):
                    self._wrap_class(val, layer)
        package = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod in package:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        fredholm = sys.modules[f"{PACKAGE}.fredholm"]
        for attr, val in list(vars(fredholm).items()):
            if isinstance(val, types.ModuleType) and val.__name__ == "scipy.linalg":
                self._patch(fredholm, attr, _LinalgProxy(val, self))
        return self

    def uninstall(self):
        while self._patches:
            obj, attr, old = self._patches.pop()
            setattr(obj, attr, old)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ---- aggregation -------------------------------------------------------
    def summary(self) -> dict:
        """Per-op layer metrics over every recorded op."""
        spans = self.spans
        ops = self.op_id + 1
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self_ms = dict.fromkeys(LAYERS + (LINALG, BENCH), 0.0)
        calls = dict.fromkeys(LAYERS + (LINALG, BENCH), 0)
        counts = {"gauss_legendre": 0, "solve": 0, "endpoint_data": 0, "ray_grid": 0,
                  "PointCache.point": 0}
        values = {"hermite": 0, "kernel": 0, "lu_solve": 0, "PointCache.point": 0}
        ray_keys = set()
        op_ms = 0.0
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            layer = s[LAYER]
            self_ms[layer] += 1e3 * (dur - child[i])
            calls[layer] += 1
            if layer == BENCH:
                op_ms += 1e3 * dur
            name = s[NAME]
            if name in counts and layer != LINALG:
                counts[name] += 1
            if name == "ray_grid":
                ray_keys.add(s[VALUE])
            key = layer if layer in values else name
            if key in values:
                values[key] += s[VALUE]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self_ms[layer] / ops
            out[f"{layer}.self_share"] = self_ms[layer] / op_ms
            out[f"{layer}.calls"] = calls[layer] / ops
        lookups = counts["PointCache.point"]
        out.update({
            "quadrature.rule_builds": counts["gauss_legendre"] / ops,
            "quadrature.distinct_ray_ratio": len(ray_keys) / max(counts["ray_grid"], 1),
            "hermite.values": values["hermite"] / ops,
            "kernel.entries": values["kernel"] / ops,
            "fredholm.solves": counts["solve"] / ops,
            "fredholm.endpoint_calls": counts["endpoint_data"] / ops,
            "fredholm.resolvent_use_ratio": counts["endpoint_data"] / max(counts["solve"], 1),
            "fredholm.linalg_ms": self_ms[LINALG] / ops,
            "fredholm.rhs_solved": values["lu_solve"] / ops,
            "residuals.point_lookups": lookups / ops,
            "residuals.cache_hit_ratio": values["PointCache.point"] / max(lookups, 1),
        })
        return out

