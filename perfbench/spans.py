"""In-memory spans and counters recorded by the benchmark around each call
into a confhom layer, and the per-layer table derived from them.

A span is (name, start, end, parent index, label).  A layer's self time is
the summed duration of its spans minus the part of each span that its child
spans cover.  Spans are kept in memory and handed out only when the pass
ends, so writing them costs nothing inside the timed region.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter


class NullTracer:
    """Tracing off: spans and counters cost one no-op call each."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name, label=""):
        return self._null

    def count(self, name, amount=1):
        pass


class Tracer:
    """Tracing on: records every span and counter of one worker process."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, label=""):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, label]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, amount=1):
        self.counts[name] += amount


def self_times(spans):
    """{span name: (summed self seconds, number of spans)}."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        secs, calls = out.get(name, (0.0, 0))
        out[name] = (secs + (end - start) - child_time[i], calls + 1)
    return out
