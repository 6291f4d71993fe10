"""An LRU cache of compiled plans keyed by canonical OMQ fingerprints.

Compilation (the rewriting) dominates the cost of a repeat
query (the data side is already amortised by
:class:`~repro.rewriting.api.AnswerSession`), and a serving workload
repeats queries constantly — often under different variable names,
since clients generate them.  The cache therefore keys entries by the
*canonical* fingerprints of :mod:`repro.fingerprint`: two OMQs that
differ only by a bijective renaming of query variables (answer tuple
order preserved) hash to the same ``(tbox, cq, options)`` key, and the
cached :class:`~repro.rewriting.plan.Plan` answers both — NDL
evaluation returns constant tuples positioned by the answer tuple,
which renaming does not move.

Keys take an :class:`~repro.rewriting.plan.AnswerOptions` and use only
its compile-relevant subset (method, over) — the
execution knobs (engine, timeout) never partition the cache, so the
hit-rate is independent of how clients evaluate.  Cached plans are
data-independent (each execute specialises the plan to the data it
runs over, memoised on the plan), so data updates never invalidate
the cache; only ``method="adaptive"`` bypasses it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..obs import Observability
from ..obs.trace import span

# Re-exported for backwards compatibility: the canonical fingerprint
# implementation moved to :mod:`repro.fingerprint` (one code path for
# the cache, ``OMQ.fingerprint()`` and ``Plan.fingerprint``).
from ..fingerprint import (  # noqa: F401  (re-exports)
    PERMUTATION_LIMIT,
    cq_fingerprint,
    omq_fingerprint,
    tbox_fingerprint,
)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of a :class:`RewritingCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "size": self.size,
                "maxsize": self.maxsize,
                "hit_rate": round(self.hit_rate, 4)}


class RewritingCache:
    """A thread-safe LRU cache from OMQ fingerprints to compiled plans."""

    def __init__(self, maxsize: int = 256,
                 obs: Optional[Observability] = None):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._obs = obs or Observability()
        self._hits = self._obs.cache_hits
        self._misses = self._obs.cache_misses
        self._evictions = self._obs.cache_evictions
        self._size_gauge = self._obs.cache_entries

    def key(self, omq, options) -> Tuple:
        """The ``(tbox-fp, cq-fp, options-fp)`` cache key of ``omq``
        under an :class:`~repro.rewriting.plan.AnswerOptions`; only the
        compile-relevant options partition keys."""
        return (tbox_fingerprint(omq.tbox), cq_fingerprint(omq.query),
                options.rewrite_fingerprint())

    def get(self, key: Tuple):
        """The cached plan for ``key`` (``None`` on a miss)."""
        with span("cache-lookup") as entry_span:
            with self._lock:
                entry = self._entries.get(key)
                if entry is None:
                    self._misses.inc()
                    entry_span.attrs["hit"] = False
                    return None
                self._entries.move_to_end(key)
                self._hits.inc()
            entry_span.attrs["hit"] = True
            return entry

    def put(self, key: Tuple, value) -> None:
        with self._lock:
            self._store(key, value)

    def _store(self, key: Tuple, value) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self._evictions.inc()
        self._size_gauge.set(len(self._entries))

    def get_or_compute(self, key: Tuple, compute: Callable[[], object]):
        """The cached value for ``key``, filling it via ``compute``.

        ``compute`` runs outside the lock (rewriting can be slow);
        concurrent fillers of one key may both compute, last write
        wins — acceptable because rewriting is deterministic.
        """
        cached = self.get(key)
        if cached is not None:
            return cached
        value = compute()
        self.put(key, value)
        return value

    def contains(self, key: Tuple) -> bool:
        """Membership probe that does not touch the LRU order/stats."""
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._size_gauge.set(0)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=int(self._hits.value),
                              misses=int(self._misses.value),
                              evictions=int(self._evictions.value),
                              size=len(self._entries),
                              maxsize=self.maxsize)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        stats = self.stats()
        return (f"RewritingCache({stats.size}/{stats.maxsize} entries, "
                f"{stats.hits} hits, {stats.misses} misses)")
