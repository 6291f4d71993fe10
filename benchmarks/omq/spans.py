"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around calls into each
layer's public functions — never from inside ``repro``.  A span has a
name, start and end (``perf_counter`` seconds), the id of the span that
caused it and the id of the operation it belongs to.  They are kept in
memory and written to ``spans.jsonl`` when the benchmark ends.

The program's own nesting cannot be observed from outside, so a layer
call that runs *inside* another public call (the bare rewriter inside
``compile_omq``, ``Engine.evaluate`` inside ``Plan.execute``, the
server's handler inside an HTTP round trip) is re-executed on the same
inputs right after the enclosing call and linked to it with
``parent=``.  A span's self time is its duration minus the durations of
the spans naming it as parent, which is exactly "duration minus the
part its children cover" when the children are such re-executions.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end")

    def __init__(self, id: int, name: str, op: Optional[str],
                 parent: Optional[int]):
        self.id = id
        self.name = name
        self.op = op
        self.parent = parent
        self.start = 0.0
        self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; ``enabled=False`` makes :meth:`span` a no-op so
    the same code path serves the untraced pass."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str, op: Optional[str] = None,
             parent: Optional[Span] = None) -> Iterator[Optional[Span]]:
        """Time the block.  ``parent`` defaults to the innermost open
        span; pass one explicitly for a re-executed child (see the
        module docstring).  ``op`` defaults to the parent's."""
        if not self.enabled:
            yield None
            return
        if parent is None and self._open:
            parent = self._open[-1]
        if op is None and parent is not None:
            op = parent.op
        record = Span(len(self.spans), name, op,
                      None if parent is None else parent.id)
        self.spans.append(record)
        self._open.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.seconds
        table: Dict[str, Dict[str, float]] = {}
        for record in self.spans:
            row = table.setdefault(
                record.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += record.seconds
            row["self_s"] += max(0.0, record.seconds - covered[record.id])
        return table

    def seconds_by_name(self) -> Dict[str, List[float]]:
        """Every span's duration, grouped by span name."""
        grouped: Dict[str, List[float]] = {}
        for record in self.spans:
            grouped.setdefault(record.name, []).append(record.seconds)
        return grouped

    def format_self_times(self) -> str:
        lines = [f"{'span':34} {'count':>7} {'total ms':>12} "
                 f"{'self ms':>12}"]
        for name, row in sorted(self.self_times().items()):
            lines.append(f"{name:34} {row['count']:7d} "
                         f"{row['total_s'] * 1000:12.3f} "
                         f"{row['self_s'] * 1000:12.3f}")
        return "\n".join(lines)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps({
                    "id": record.id, "name": record.name,
                    "op": record.op, "parent": record.parent,
                    "start": record.start, "end": record.end}) + "\n")
