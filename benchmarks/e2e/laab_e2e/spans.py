"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls into
each layer; spans inside ``src/`` are a later change.  They stay in memory
while the run measures and are written out as JSON lines when it ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class SpanRecorder:
    """Flat list of ``(id, name, start, end, parent, op)`` tuples.

    ``parent`` is the id of the span that caused this one (0 for a root);
    ``op`` is shared by the spans of one operation.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self._ops = 0

    def new_op(self) -> int:
        self._ops += 1
        return self._ops

    def add(self, name: str, start: float, end: float,
            parent: int = 0, op: int = 0) -> int:
        span_id = len(self.spans) + 1
        self.spans.append((span_id, name, start, end, parent, op))
        return span_id

    @contextlib.contextmanager
    def span(self, name: str, parent: int = 0, op: int = 0):
        """Time the block as one span; yields the id children point at."""
        span_id = len(self.spans) + 1
        self.spans.append((span_id, name, 0.0, 0.0, parent, op))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self.spans[span_id - 1] = (span_id, name, start, end, parent, op)

    def self_seconds(self) -> dict[str, float]:
        """Per span name, total self time: each span's duration minus the
        part of it its child spans cover."""
        child_total: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                child_total[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            out[name] += max(0.0, (end - start) - child_total[span_id])
        return dict(out)

    def write_jsonl(self, path: str, max_spans: int) -> int:
        """Write the first ``max_spans`` spans; returns how many."""
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans[:max_spans]:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")
                written += 1
        return written
