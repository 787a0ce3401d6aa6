"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is ``(name, start_ns, end_ns, span_id, parent_id, trace_id)``.
A span opened while another span of the same thread is open becomes
its child and shares its trace id; a span with no open parent starts a
new trace (so each request of a client thread is its own trace).  Spans
stay in memory and are written out only when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

Span = Tuple[str, int, int, int, int, int]


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is a shared no-op context manager."""

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


class _OpenSpan:
    __slots__ = ("tracer", "name", "start", "span_id", "parent_id", "trace_id")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_OpenSpan":
        stack = self.tracer._stack()
        self.span_id = next(self.tracer._ids)
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            self.trace_id = parent.trace_id
        else:
            self.parent_id = 0
            self.trace_id = self.span_id
        stack.append(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter_ns()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.name, self.start, end, self.span_id,
                                  self.parent_id, self.trace_id))


class Tracer:
    """Tracing on: records every span; safe to share between threads."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _OpenSpan:
        return _OpenSpan(self, name)

    def write(self, path) -> None:
        fields = ("name", "start_ns", "end_ns", "span_id", "parent_id",
                  "trace_id")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)


def _covered(parent_start: int, parent_end: int,
             intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to the parent."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, parent_start), min(end, parent_end)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, Tuple[float, int]]:
    """Per span name: ``(total self seconds, span count)``.

    A span's self time is its duration minus the part of it that its
    child spans cover.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _name, start, end, _sid, parent, _tid in spans:
        if parent:
            children[parent].append((start, end))
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for name, start, end, sid, _parent, _tid in spans:
        own = end - start - _covered(start, end, children.get(sid, ()))
        acc = out[name]
        acc[0] += own / 1e9
        acc[1] += 1
    return {name: (acc[0], acc[1]) for name, acc in out.items()}
