"""Spans and counters recorded from outside the package.

The tracer replaces every public ``mfdr`` function, in every ``mfdr`` module
namespace where callers look it up, with a wrapper that records a span:
name, start, end, parent span and pass id.  Because ``principal`` calls
``f0`` and ``minimize_on_grid`` through its own module globals, wrapping
those globals puts a span at each call from one layer into another
without editing the package.  Spans stay in memory until the run writes
them out.  A name the package no longer has is simply not wrapped, so its
spans and counts read 0.
"""

from __future__ import annotations

import hashlib
import inspect
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("model", "agent", "numerics", "principal", "mfsim", "cli")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    pass_id: int | None


def _mfdr_modules():
    import importlib

    modules = []
    for layer in LAYERS:
        try:
            modules.append(importlib.import_module(f"mfdr.{layer}"))
        except ImportError:
            continue
    return modules


@dataclass
class Tracer:
    """Span recorder; use as a context manager around the traced passes."""

    spans: list[Span] = field(default_factory=list)
    pass_id: int | None = None
    _local: threading.local = field(default_factory=threading.local)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            index = len(spans)
            spans.append(Span(name, layer, clock(), 0.0, stack[-1] if stack else None, self.pass_id))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for module in _mfdr_modules():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.split(".")
                if home[0] != "mfdr" or len(home) < 2 or home[1] not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, home[1])
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def self_seconds(self) -> dict[int | None, dict[str, float]]:
        """Per pass, each layer's span time minus the time of its child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        totals: dict[int | None, dict[str, float]] = {}
        for span, inner in zip(self.spans, child):
            per_layer = totals.setdefault(span.pass_id, dict.fromkeys(LAYERS, 0.0))
            per_layer[span.layer] += (span.end - span.start) - inner
        return totals

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.pass_id] for s in self.spans]


class SolveCounter:
    """Counts rate solves by wrapping ``mfdr.principal.minimize_on_grid``.

    A solve is identified by its brackets and its result, so two solves of
    the same (kind, principal, params, grid) share a key.  If ``principal``
    no longer looks the name up, every count reads 0.
    """

    def __init__(self) -> None:
        self.solves = 0
        self.evaluations = 0
        self.keys: set[str] = set()
        self._module = None
        self._original = None

    def __enter__(self) -> "SolveCounter":
        import mfdr.principal as principal

        original = getattr(principal, "minimize_on_grid", None)
        if original is None:
            return self
        self._module, self._original = principal, original

        def counted(f, lo, hi, *args, **kwargs):
            result = original(f, lo, hi, *args, **kwargs)
            argmin, minima, evaluations = result
            digest = hashlib.sha256()
            for part in (lo, hi, argmin, minima):
                digest.update(memoryview(_contiguous(part)))
            self.keys.add(digest.hexdigest())
            self.solves += 1
            self.evaluations += int(evaluations)
            return result

        principal.minimize_on_grid = counted
        return self

    def __exit__(self, *exc) -> None:
        if self._module is not None:
            self._module.minimize_on_grid = self._original

    def evals_per_solve(self) -> float:
        return self.evaluations / self.solves if self.solves else 0.0

    def unique_ratio(self) -> float:
        return len(self.keys) / self.solves if self.solves else 0.0


def _contiguous(values):
    import numpy as np

    return np.ascontiguousarray(np.asarray(values, dtype=float))
