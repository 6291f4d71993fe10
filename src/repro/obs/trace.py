"""Per-request tracing: trace IDs and named timing spans.

A :class:`Trace` is created once per request (honoring an inbound
``X-Repro-Trace-Id`` header, minting an ID otherwise) and installed in
a :mod:`contextvars` context variable.  Instrumented code then calls
the module-level :func:`span` —

    with span("cache-lookup"):
        ...

— which times the block *if* a trace is active and is a shared no-op
otherwise.  The no-op path is a single contextvar read, so library
code (``Plan.execute``, the SQL engine, the cache) can be instrumented
unconditionally without taxing embedded users who never start a trace.

Spans nest: a span opened while another is running becomes its child,
so the trace payload is a tree (``update`` holding ``patch``, ``epoch``,
``store`` and ``standing``...).  A region timed elsewhere is attached
with :func:`record`.
"""

from __future__ import annotations

import contextvars
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Trace", "Span", "current_trace", "start_trace", "tracing",
           "span", "record", "annotate", "current_trace_id",
           "mint_trace_id", "valid_trace_id"]

_MAX_TRACE_ID = 128  # header abuse guard


def mint_trace_id() -> str:
    """A fresh 32-hex-char trace identifier."""
    return uuid.uuid4().hex


def valid_trace_id(value: str) -> bool:
    """Whether an inbound header value is usable as a trace ID:
    non-empty, printable ASCII, bounded length."""
    if not value or len(value) > _MAX_TRACE_ID:
        return False
    return all(33 <= ord(char) <= 126 for char in value)


class Span:
    """One timed, named region; children are spans opened inside it."""

    __slots__ = ("name", "seconds", "children", "attrs")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.children: List["Span"] = []
        self.attrs: Dict[str, Any] = {}

    def payload(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name,
                               "seconds": round(self.seconds, 6)}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.payload()
                               for child in self.children]
        return out


class Trace:
    """The per-request span accumulator.

    ``wanted`` records whether the client asked for the trace in the
    response body (``"trace": true``); the ID header is echoed either
    way.  Traces are confined to one thread of execution at a time —
    the span stack is not locked — which the service honors by only
    activating a trace on the thread currently driving the request.
    """

    __slots__ = ("trace_id", "wanted", "_roots", "_stack", "_started",
                 "annotations")

    def __init__(self, trace_id: Optional[str] = None,
                 wanted: bool = False):
        self.trace_id = trace_id or mint_trace_id()
        self.wanted = wanted
        self._roots: List[Span] = []
        self._stack: List[Span] = []
        self._started = time.perf_counter()
        self.annotations: Dict[str, Any] = {}

    # -- span recording -------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        entry = Span(name)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self._roots).append(entry)
        self._stack.append(entry)
        start = time.perf_counter()
        try:
            yield entry
        finally:
            entry.seconds += time.perf_counter() - start
            if self._stack and self._stack[-1] is entry:
                self._stack.pop()

    def record(self, name: str, seconds: float) -> Span:
        """Attach an externally-timed span."""
        entry = Span(name)
        entry.seconds = float(seconds)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self._roots).append(entry)
        return entry

    def annotate(self, key: str, value: Any) -> None:
        """Attach request-level metadata (plan fingerprint, dataset...)
        surfaced in the trace payload and the slow-query log."""
        self.annotations[key] = value

    # -- output ----------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        return list(self._roots)

    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    def payload(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "spans": [entry.payload() for entry in self._roots]}
        if self.annotations:
            out["annotations"] = dict(self.annotations)
        return out

    def flat_spans(self) -> List[Dict[str, Any]]:
        """``[{"name": ..., "seconds": ...}]`` depth-first with dotted
        paths — the slow-query log's compact rendering."""
        flat: List[Dict[str, Any]] = []

        def walk(entry: Span, prefix: str) -> None:
            path = f"{prefix}.{entry.name}" if prefix else entry.name
            flat.append({"name": path,
                         "seconds": round(entry.seconds, 6)})
            for child in entry.children:
                walk(child, path)

        for root in self._roots:
            walk(root, "")
        return flat


# -- ambient trace plumbing ----------------------------------------------

_current: "contextvars.ContextVar[Optional[Trace]]" = \
    contextvars.ContextVar("repro_trace", default=None)


class _NullSpan:
    """Shared do-nothing context manager — the inactive fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    @property
    def attrs(self) -> Dict[str, Any]:  # pragma: no cover - rarely hit
        return {}


_NULL_SPAN = _NullSpan()


def current_trace() -> Optional[Trace]:
    return _current.get()


def current_trace_id() -> Optional[str]:
    trace = _current.get()
    return trace.trace_id if trace is not None else None


def start_trace(trace_id: Optional[str] = None,
                wanted: bool = False) -> Trace:
    """Create a trace and install it in the current context."""
    trace = Trace(trace_id, wanted)
    _current.set(trace)
    return trace


@contextmanager
def tracing(trace: Optional[Trace]) -> Iterator[Optional[Trace]]:
    """Install ``trace`` for the duration of the block (pass ``None``
    to run untraced, e.g. inside worker pools handling a different
    request)."""
    token = _current.set(trace)
    try:
        yield trace
    finally:
        _current.reset(token)


def span(name: str):
    """Time a named region of the active trace; no-op when inactive."""
    trace = _current.get()
    if trace is None:
        return _NULL_SPAN
    return trace.span(name)


def record(name: str, seconds: float) -> None:
    """``Trace.record`` against the active trace; no-op when inactive."""
    trace = _current.get()
    if trace is not None:
        trace.record(name, seconds)


def annotate(key: str, value: Any) -> None:
    """``Trace.annotate`` against the active trace; no-op when
    inactive."""
    trace = _current.get()
    if trace is not None:
        trace.annotate(key, value)
