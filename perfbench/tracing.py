"""Spans recorded around the benchmark's calls into dfsphere.

A span is a name, a start, an end and the index of its parent span. Spans
are kept in memory and written once, when the run ends. A disabled tracer
calls straight through and records nothing, so untraced runs pay one extra
Python call per library call.
"""

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counters = {}
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span named ``name`` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name, value):
        """Record one sample of a counter, such as a size or a fault count."""
        if self.enabled:
            self.counters.setdefault(name, []).append(value)

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]
