"""Spans around the benchmark's calls into each layer, for the traced run.

The recorder lives in the benchmark, not in ``repro.obs``: a later change
to the program's own tracer must not change the ruler, and activating the
program's tracer would make it record spans of its own, so the traced run
would do different work from the untraced one.

Spans are kept in memory and written out once, as Chrome trace JSON
(``chrome://tracing`` / Perfetto), when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "index")

    def __init__(self, name: str, start: float, parent: Optional[int], request: str, index: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.index = index


class SpanRecorder:
    """Records (name, start, end, parent, request id) for every span."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), parent, request, index)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> Dict[int, float]:
        """Each span's duration minus the part its child spans cover."""
        own = {s.index: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write_chrome_trace(self, path: str) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": round((s.start - origin) * 1e6, 3),
                "dur": round((s.end - s.start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"request": s.request, "parent": s.parent, "span": s.index},
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class NullRecorder:
    """The untraced run's recorder: spans cost one call and record nothing."""

    @contextmanager
    def span(self, name: str, request: str) -> Iterator[None]:
        yield
