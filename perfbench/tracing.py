"""Span tracing for the benchmark's traced runs, installed from outside the program.

The benchmark wraps gamma-lab's public functions and a few hot methods in
spans without touching the package source: every binding of a traced
function is replaced -- the attribute of each ``gamma_lab`` module that
imported it by name, aliases such as ``cli._poincare_check``, values of
module-level dicts such as ``tv_bound.SEQUENCES``, and, for methods, every
name on the class (``__mul__`` and ``__rmul__`` are one function).

A span's self time is its duration minus the time its child spans cover.
Spans nest per thread; a span opened in a worker thread is a root there.
Only per-name aggregates are kept: calls, self seconds and exact counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
from collections import defaultdict

MODULES = (
    "anticoncentration", "cli", "config", "distances", "experiments",
    "measures", "operators", "poly", "sampling", "tv_bound",
)


def _draw_counts(args, kwargs, result):
    shape = args[2] if len(args) > 2 else kwargs["shape"]
    rows, width = (shape, 1) if isinstance(shape, int) else (shape[0], shape[1])
    return {"rows": rows, "bytes": rows * width * 8}


def _evaluate_counts(args, kwargs, result):
    rows = len(args[1])
    return {"rows": rows, "term_rows": rows * len(args[0].terms)}


def _mul_counts(args, kwargs, result):
    left, right = args[0], args[1]
    right_terms = len(right.terms) if hasattr(right, "terms") else 1
    return {"term_pairs": len(left.terms) * right_terms}


def _csv_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, class, method, span name, counter)
METHODS = (
    ("measures", "MeasureFamily", "draw", "measures.draw", _draw_counts),
    ("poly", "Polynomial", "evaluate_batch", "poly.evaluate_batch", _evaluate_counts),
    ("poly", "Polynomial", "__mul__", "poly.mul", _mul_counts),
    ("poly", "Polynomial", "__add__", "poly.add", None),
    ("operators", "SpectralDecomposition", "reconstruct", "operators.reconstruct", None),
)

FUNCTION_COUNTERS = {"experiments.write_csv": _csv_counts}

# lru_cache functions are left unwrapped; their cache_info() gives hit ratios.
CACHED = ("measures.raw_moment", "measures.monomial_in_basis")


def cache_counts() -> dict:
    """(hits, misses) so far of each moment-engine cache."""
    out = {}
    for name in CACHED:
        module, fn = name.split(".")
        info = getattr(importlib.import_module(f"gamma_lab.{module}"), fn).cache_info()
        out[name] = (info.hits, info.misses)
    return out


class Stat:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = defaultdict(int)


class Tracer:
    """Per-name span aggregates with self-time accounting."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        # [name, start, seconds covered by child spans]
        self._stack().append([name, self.clock(), 0.0])

    def exit(self, counts: dict | None = None) -> None:
        stack = self._stack()
        name, start, child_s = stack.pop()
        duration = self.clock() - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            stat = self.stats[name]
            stat.calls += 1
            stat.self_s += duration - child_s
            for key, value in (counts or {}).items():
                stat.counts[key] += value

    def reset(self) -> None:
        with self._lock:
            self.stats = defaultdict(Stat)

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                counts = counter(args, kwargs, result) if counter else None
                return result
            finally:
                self.exit(counts)

        return traced


def _traceable(mod, obj) -> bool:
    """A public plain function defined in mod (generators and caches excluded).

    A generator function returns before its body runs, so a span around it
    would time nothing; ``lru_cache`` functions keep their ``cache_info``.
    """
    return (
        inspect.isfunction(obj)
        and obj.__module__ == mod.__name__
        and not obj.__name__.startswith("_")
        and not inspect.isgeneratorfunction(obj)
    )


def install(tracer: Tracer) -> "callable":
    """Wrap every binding of the traced callables; returns the undo function."""
    modules = [importlib.import_module("gamma_lab")]
    modules += [importlib.import_module(f"gamma_lab.{m}") for m in MODULES]
    # Keyed by id: module dicts hold unhashable values.  Each wrapper keeps
    # its original alive, so no id is reused while the table exists.
    wrappers: dict[int, object] = {}
    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if _traceable(mod, obj):
                name = f"{short}.{attr}"
                wrappers[id(obj)] = tracer.wrap(name, obj, FUNCTION_COUNTERS.get(name))
    for short, cls_name, meth, name, counter in METHODS:
        cls = getattr(importlib.import_module(f"gamma_lab.{short}"), cls_name)
        obj = cls.__dict__[meth]
        wrappers[id(obj)] = tracer.wrap(name, obj, counter)

    undo: list = []

    def rebind(owner_set, key, value):
        wrapper = wrappers.get(id(value))
        if wrapper is not None:
            owner_set(key, wrapper)
            undo.append((owner_set, key, value))

    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            rebind(functools.partial(setattr, mod), attr, obj)
            if isinstance(obj, dict) and not attr.startswith("__"):
                for key, value in list(obj.items()):
                    rebind(obj.__setitem__, key, value)
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for cattr, cobj in list(vars(obj).items()):
                    rebind(functools.partial(setattr, obj), cattr, cobj)

    def uninstall():
        for owner_set, key, value in reversed(undo):
            owner_set(key, value)

    return uninstall
