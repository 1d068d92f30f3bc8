"""Span recorder that times calls into the newtonosc modules from outside.

The program is not edited: each traced name is replaced, for the length
of a traced pass, by a wrapper in the namespace of the module that calls
it (``scaling.discretize`` is the name ``scaling`` looks up when it
builds a kernel).  A span records name, layer (the module that owns the
callee), start, end, parent span and op id; hooks attach counts read
from arguments and results.  Spans stay in memory and are written as
JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "polycore", "newton", "puiseux", "opnorm", "scaling", "blocks", "dyadpol")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans plus plain counters, for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.op: int | None = None
        self._stack: list[int] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, layer: str, hook=None):
        """fn timed as a span; hook(span, args, kwargs, result) adds attrs."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, layer, time.perf_counter(),
                        parent=stack[-1] if stack else None, op=self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, fh, **extra) -> None:
        for i, s in enumerate(self.spans):
            fh.write(json.dumps({
                **extra, "id": i, "name": s.name, "layer": s.layer, "start": s.start,
                "end": s.end, "parent": s.parent, "op": s.op, "attrs": s.attrs,
            }, default=str) + "\n")


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children are not counted
    twice.
    """
    kids = children_of(spans)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in kids.get(i, ())
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    totals = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, self_times(spans)):
        totals[s.layer] = totals.get(s.layer, 0.0) + t
    return totals


class Proxy:
    """Stand-in for a module object: overrides some attributes, forwards the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Patches:
    """setattr with undo; restores every original on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)
        return False
