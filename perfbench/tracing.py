"""Spans, counters and the summary statistics the benchmark reports.

A span is recorded around each call the benchmark makes into a layer of
`puiseux`; spans are kept in memory as (name, start, end, parent, instance)
rows and written out when the run ends.  Self time is a span's duration
minus the part of its interval covered by its child spans.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

# The tail is the sample with TAIL_MIN_BEYOND samples above it.
TAIL_MIN_BEYOND = 10


class Tracer:
    """Records nested spans and named counts for one run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int | None, str | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = {}
        self.instance: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, self.clock(), math.nan, parent, self.instance))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, inst = self.spans[index]
            self.spans[index] = (name, start, self.clock(), parent, inst)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "instance": i}
            for n, s, e, p, i in self.spans
        ]


class NullTracer:
    """Tracing off: spans and counts cost one call each and record nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: float = 1) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    end = -math.inf
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans) -> dict[str, float]:
    """Sum of self time per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(i, ())]
        out[name] += (end - start) - _covered([c for c in clipped if c[1] > c[0]])
    return dict(out)


def durations(spans, name: str) -> float:
    return sum(end - start for n, start, end, _, _ in spans if n == name)


def child_durations(spans, parent_name: str) -> float:
    """Total duration of the direct children of spans called parent_name."""
    parents = {i for i, s in enumerate(spans) if s[0] == parent_name}
    return sum(end - start for _, start, end, p, _ in spans if p in parents)


def tail(samples: list[float], group: int | None = None) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile
    that leaves TAIL_MIN_BEYOND of `group` samples above it: the
    (g-10)-th smallest of g samples, at percentile 100*(g-10)/g.  Below 20
    there is no such percentile above the median, and the median is used.

    `group` defaults to len(samples).  Pooled samples from several passes
    over g instances pass group=g, so the percentile, and with it which
    instances the tail falls on, does not depend on the number of passes."""
    values = sorted(samples)
    n = len(values)
    g = group or n
    rank = max(g - TAIL_MIN_BEYOND, (g + 1) // 2)
    index = max(1, math.ceil(rank * n / g))
    return 100 * rank / g, values[index - 1], n - index
