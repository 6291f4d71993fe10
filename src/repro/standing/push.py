"""Push delivery of standing-query deltas.

Two transports, both fed by the same registry listeners:

* **SSE**: ``GET /subscribe`` streams
  ``text/event-stream`` — one ``snapshot`` event up front (taken
  atomically with listener registration, so no delta can fall in the
  gap), then a ``delta`` event per maintenance commit.  The bridge
  from the service's update threads into the asyncio loop is a
  :class:`SubscriberStream`: a bounded queue that *drops* and degrades
  to a single ``resync`` event (full snapshot) on overflow instead of
  ever blocking the update path.
* **long-poll**: ``POST /poll`` with ``since_epoch``
  blocks until a newer delta exists and returns the retained deltas —
  or a resync snapshot when the asked-for epoch predates the bounded
  history.

Wire helpers for both live here so the servers and the clients parse
and format one way.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

#: Queued payloads per SSE subscriber before degrading to a resync.
MAX_QUEUE = 64

#: Sentinel queued in place of dropped deltas on overflow.
RESYNC = object()

#: Sentinel for "subscription closed" (queue-jumps nothing; listeners
#: deliver ``None`` and the stream forwards it).
CLOSED = None


def sse_event(event: str, data) -> bytes:
    """One Server-Sent-Events frame; ``data`` is JSON-encoded unless
    already a string."""
    if not isinstance(data, str):
        data = json.dumps(data, sort_keys=True)
    lines = data.splitlines() or [""]
    body = "".join(f"data: {line}\n" for line in lines)
    return f"event: {event}\n{body}\n".encode()


def decode_sse(block: str) -> Tuple[str, str]:
    """Parse one SSE frame (the text between blank lines) into
    ``(event, data)``; multi-line data is re-joined with newlines."""
    event = "message"
    data_lines = []
    for line in block.splitlines():
        if line.startswith("event:"):
            event = line[len("event:"):].strip()
        elif line.startswith("data:"):
            chunk = line[len("data:"):]
            data_lines.append(chunk[1:] if chunk.startswith(" ")
                              else chunk)
    return event, "\n".join(data_lines)


class SubscriberStream:
    """Bridge registry listener callbacks (fired from service update
    threads) into one SSE handler's asyncio queue.

    :meth:`listener` is the thread-safe entry point handed to
    :meth:`~repro.standing.registry.StandingRegistry.attach`; it never
    blocks.  All queue manipulation happens on the loop thread (via
    ``call_soon_threadsafe``), so producer and consumer cannot race.
    When the consumer is slower than the update stream and the queue
    reaches ``max_queue``, queued deltas are discarded and replaced by
    one :data:`RESYNC` marker; the handler then re-snapshots the
    subscription (which covers everything dropped — listeners fire
    after the commit mutates the materialization) and clears the
    overflow flag *before* snapshotting, so no later delta is lost.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 max_queue: int = MAX_QUEUE):
        self._loop = loop
        self._max = max(1, max_queue)
        self._queue: asyncio.Queue = asyncio.Queue()
        self._overflowed = False
        #: Overflow events (reported into the registry's resync count
        #: by the serving layer).
        self.overflows = 0

    def listener(self, payload: Optional[dict]) -> None:
        """The registry listener: enqueue from any thread."""
        self._loop.call_soon_threadsafe(self._push, payload)

    def _push(self, payload: Optional[dict]) -> None:
        if payload is CLOSED:
            self._queue.put_nowait(CLOSED)
            return
        if self._overflowed:
            # subsumed by the pending resync's snapshot
            return
        if self._queue.qsize() >= self._max:
            self._overflowed = True
            self.overflows += 1
            while not self._queue.empty():
                self._queue.get_nowait()
            self._queue.put_nowait(RESYNC)
            return
        self._queue.put_nowait(payload)

    def begin_resync(self) -> None:
        """Consumer-side (loop thread): re-admit deltas before taking
        the resync snapshot."""
        self._overflowed = False

    async def next_event(self):
        """The next queued payload: a delta dict, :data:`RESYNC`, or
        ``None`` once the subscription closed."""
        return await self._queue.get()
