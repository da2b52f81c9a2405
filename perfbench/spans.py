"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files, around its calls
into each ``repro`` layer; nothing inside the program is instrumented.
Each span holds a name, a start and end (host ``perf_counter``
seconds), the index of its parent span and the id of the job it
belongs to.  A child inherits its parent's job id unless it names one.

A layer's self time is its span's duration minus the time its child
spans cover.  Because every span is opened and closed on one stack,
the self times of a root span and its descendants tile the root's
duration exactly.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional

#: field order of one recorded span
FIELDS = ("name", "start", "end", "parent", "job")


class SpanRecorder:
    """Collects nested spans in memory until :meth:`write` is called."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, job: Optional[str] = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        if job is None and parent >= 0:
            job = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, job])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name, summed over every span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child_time[index]
        return dict(totals)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def root_seconds(self) -> float:
        """Total duration of the spans that have no parent."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def write(self, path: str) -> None:
        """Write every span as JSON (one object per span)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(FIELDS, span)) for span in self.spans],
                      handle)
            handle.write("\n")


class NullRecorder:
    """The untraced stand-in: spans cost one shared no-op context."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str, job: Optional[str] = None):
        return self._NULL


NULL = NullRecorder()
