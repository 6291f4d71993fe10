"""The serving layer: answer many OMQs, cheaply, across requests.

PR 1's :class:`~repro.rewriting.api.AnswerSession` amortises *data*
loading within one session; this subsystem amortises the remaining
per-request costs *across* requests and sessions:

* :mod:`repro.service.cache` — an LRU cache of compiled
  :class:`~repro.rewriting.plan.Plan` objects keyed by a canonical
  fingerprint of (TBox, CQ up to variable renaming, compile options),
  so a repeated query never pays compilation again;
* :mod:`repro.service.service` — :class:`OMQService`, a thread-safe
  front door over named datasets with pooled ``AnswerSession``s,
  batch answering with in-batch deduplication and a shared cache; an
  answer is the plan's own :class:`~repro.rewriting.plan.Answers`;
* :mod:`repro.service.dataset` — :class:`~repro.service.dataset
  .Dataset`, one registered data instance: its session pools, lock,
  epoch and store rows, and the update sequence (patch -> epoch ->
  store -> standing) with what each stage's failure costs;
* :mod:`repro.service.updates` — the ``patch`` stage's math:
  incremental ABox insert/delete that patches the interned database,
  the memoised indexes, the SQLite tables and the cached completions
  in place instead of reloading;
* :mod:`repro.service.protocol` — the JSON protocol itself: the
  request types, the endpoint table every route is declared in once,
  and structured errors;
* :mod:`repro.service.aserve` — the HTTP server, on asyncio streams:
  request coalescing of identical in-flight queries, micro-batching
  into ``answer_batch`` calls while the workers are busy, and 429
  queue-depth backpressure;
* :mod:`repro.service.serve` — ``python -m repro serve``: the command's
  options, the service they build, and the signal-driven run loop.

Standing queries (:mod:`repro.standing`) plug into the service here:
``OMQService.subscribe`` registers a compiled plan for incremental
answer maintenance inside the update path (the ``standing`` stage of
``Dataset.apply``), and the server delivers
the deltas by long-poll (``POST /poll``).
"""

from .aserve import AsyncServiceServer, BackgroundAsyncServer, serve_in_background
from .cache import CacheStats, RewritingCache, cq_fingerprint, tbox_fingerprint
from .protocol import BatchRequest, ProtocolError, Router
from .service import OMQService
from .updates import UpdateResult, apply_update

__all__ = [
    "AsyncServiceServer",
    "BackgroundAsyncServer",
    "BatchRequest",
    "CacheStats",
    "OMQService",
    "ProtocolError",
    "RewritingCache",
    "Router",
    "UpdateResult",
    "apply_update",
    "cq_fingerprint",
    "serve_in_background",
    "tbox_fingerprint",
]
