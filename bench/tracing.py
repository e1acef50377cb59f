"""Spans around the public functions of each tailcens layer, from outside the library.

``Tracer.install`` replaces every public function of the layer modules, in
every tailcens module namespace that refers to it, with a wrapper that
records one span per call: name, parent span, start, end, an optional tag
taken from the arguments or result, and the exception type if the call
raised.  Calls between modules and within a module go through module
globals, so nested calls are seen too.  Private helpers (names starting
with ``_``) and class constructors are not wrapped: their time shows as
self time of the public function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

PACKAGE = "tailcens"
LAYERS = ("simulation", "sample_model", "empirical", "estimators", "asymptotics", "cli")
# calls a layer makes into another library, wrapped so solver work is counted
EXTERNAL = (("estimators", "brentq"),)
# spans whose growth of peak RSS is recorded
TRACK_RSS = frozenset({"asymptotics.sigma_squared_mc"})


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# span tags, from (args, kwargs, result): what each call was asked to do, and how it went
TAGS: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "estimators.mdpd_estimate": lambda a, kw, r: (
        _arg(a, kw, 1, "config").k, _arg(a, kw, 1, "config").alpha,
        len(r.all_roots) if r is not None else 0),
    "estimators.brentq": lambda a, kw, r: r[1].iterations if isinstance(r, tuple) else None,
    "empirical.mdpd_weights": lambda a, kw, r: _arg(a, kw, 1, "k"),
    "sample_model.ordered_from_arrays": lambda a, kw, r: len(_arg(a, kw, 0, "z")),
    "simulation.sample_contaminated_censored": lambda a, kw, r: _arg(a, kw, 0, "n"),
}


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index of the parent span, -1 for a root
    start: float
    end: float = 0.0
    tag: Any = None
    error: str | None = None
    rss_growth_mb: float = 0.0  # growth of peak RSS during the call, if tracked

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def peak_rss_mb() -> float:
    """Peak RSS of this process so far (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans while installed; ``with tracer:`` installs and removes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        tag_fn = TAGS.get(name)
        track_rss = name in TRACK_RSS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, 0.0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            rss_before = peak_rss_mb() if track_rss else 0.0
            result = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if track_rss:
                    span.rss_growth_mb = peak_rss_mb() - rss_before
                if tag_fn is not None:
                    span.tag = tag_fn(args, kwargs, result)

        return traced

    def _targets(self) -> dict[int, tuple[str, Callable]]:
        """id(original function) -> (span name, original) for every wrapped callable."""
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        for layer, attr in EXTERNAL:
            obj = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), attr)
            targets[id(obj)] = (f"{layer}.{attr}", obj)
        return targets

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in targets.items()}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and targets[id(obj)][1] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals; empty and inverted ones count 0."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    ``spans`` may be a slice of a tracer's list; ``offset`` is the index of
    its first element, so parent indices can be mapped into the slice.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= offset:
            children[span.parent - offset].append(span)
    out = []
    for i, span in enumerate(spans):
        clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children[i]]
        out.append(span.duration - covered_length(clipped))
    return out


def self_time_by(spans: list[Span], offset: int = 0,
                 key: Callable[[Span], str] = lambda s: s.layer) -> dict[str, float]:
    """Self time summed by layer (or by another key of the span)."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans, offset)):
        totals[key(span)] += own
    return dict(totals)
