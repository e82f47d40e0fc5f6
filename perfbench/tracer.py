"""Spans and call counts around the engine's public functions.

A :class:`Tracer` replaces, for the duration of a ``with`` block, every
module attribute in the ``rigidcomm`` package that binds a public
function of the traced modules, so a call is seen whichever module
imported the name.  Each call records a span (name, parent, start, end)
in memory; functions named in ``COUNTED`` only bump a counter, because
they run millions of times and a span per call would swamp the run.
Classes named in ``CLASS_SPANS`` are traced through their ``__init__``,
which keeps ``isinstance`` checks and classmethods of the class working.
Every replaced attribute is put back on exit.

:func:`span_stats` and :func:`layer_metric` turn the spans into
per-layer numbers.  A name
that no longer exists, or is never called, reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

PACKAGE = "rigidcomm"
TRACED_MODULES = ("rigid", "saturated", "chain", "partitions", "permutations")
COUNTED = frozenset({"rigid.commutator_mask"})
CLASS_SPANS = frozenset({"saturated.SaturatedSet"})


@dataclass
class Span:
    """One call: ``parent`` is the index of the enclosing span, or -1."""

    name: str
    parent: int
    start: float
    end: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that wraps the traced functions while it is open.

    ``observers`` maps a span name to ``f(args, kwargs, result) -> dict``,
    called after the span has closed; its dict is stored as the span's
    ``meta``.
    """

    def __init__(self, observers: dict | None = None) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # filled on exit
        self._tickers: dict[str, itertools.count] = {}
        self._observers = observers or {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ── patching ──────────────────────────────────────────────────────

    def _targets(self) -> tuple[dict, list]:
        functions = {}
        classes = []
        for short in TRACED_MODULES:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                continue  # a module removed by a later change reports zeros
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                name = f"{short}.{attr}"
                if inspect.isclass(obj):
                    if name in CLASS_SPANS and "__init__" in vars(obj):
                        classes.append((obj, name))
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    if name in COUNTED:
                        functions[obj] = self._counter(name, obj)
                    else:
                        functions[obj] = self._spanner(name, obj)
        return functions, classes

    def __enter__(self) -> "Tracer":
        functions, classes = self._targets()
        try:
            for modname, mod in list(sys.modules.items()):
                if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                    continue
                for attr, val in list(vars(mod).items()):
                    try:
                        wrapper = functions.get(val)
                    except TypeError:  # unhashable module attribute
                        continue
                    if wrapper is not None:
                        self._patch(mod, attr, wrapper)
            for cls, name in classes:
                init = vars(cls)["__init__"]
                self._patch(cls, "__init__", self._spanner(name, init))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()
        for name, ticker in self._tickers.items():
            self.counts[name] = next(ticker)  # the number of calls so far

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ── wrappers ──────────────────────────────────────────────────────

    def _spanner(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.meta = observe(args, kwargs, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        # itertools.count costs about half of a dict increment per call,
        # which matters at tens of millions of calls
        tick = self._tickers.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return counted

    def to_json(self) -> dict:
        return {
            "counts": dict(self.counts),
            "spans": [
                {"name": s.name, "parent": s.parent, "start": s.start,
                 "end": s.end, **({"meta": s.meta} if s.meta else {})}
                for s in self.spans
            ],
        }


# ── span arithmetic ──────────────────────────────────────────────────────────

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are the spans whose ``parent`` is the span's index; their
    intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(s.duration - covered)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, 0 <= q <= 1; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def span_stats(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, summed self time, durations in ms."""
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "ms": [], "meta": []})
    for s, own in zip(spans, self_times(spans)):
        row = stats[s.name]
        row["calls"] += 1
        row["self_s"] += own
        row["ms"].append(s.duration * 1e3)
        if s.meta:
            row["meta"].append(s.meta)
    return stats


def layer_metric(stats: dict, counts: Counter, metric: str) -> float:
    """Value of a per-layer metric such as ``saturated.factorize.p50_ms``.

    ``metric`` is a span or counter name followed by one of ``calls``,
    ``self_s``, ``p50_ms`` or ``p90_ms``.  Unknown or uncalled names give 0.
    """
    name, _, kind = metric.rpartition(".")
    if name in COUNTED:
        if kind != "calls":
            raise ValueError(f"{name} is counted only; it has no {kind}")
        return float(counts.get(name, 0))
    row = stats.get(name)
    if row is None:
        return 0.0
    if kind == "calls":
        return float(row["calls"])
    if kind == "self_s":
        return row["self_s"]
    if kind == "p50_ms":
        return percentile(row["ms"], 0.5)
    if kind == "p90_ms":
        return percentile(row["ms"], 0.9)
    raise ValueError(f"unknown per-layer metric kind {kind!r} in {metric!r}")
