"""``repro.obs`` — metrics, tracing, and logging for the serving stack.

Three pieces:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters, gauges, and log-bucketed latency histograms, rendered on
  demand in the Prometheus text exposition format;
* :mod:`repro.obs.trace` — per-request trace IDs and nested timing
  spans carried through :mod:`contextvars`;
* :mod:`repro.obs.logs` — the ``repro.*`` logger hierarchy behind one
  ``configure_logging(level, json)`` entry point.

:class:`Observability` bundles a registry with the *complete* family
set used anywhere in the stack plus the slow-query log.  Families are
created eagerly here — not lazily at first increment — so ``GET
/metrics`` exposes the same metric families from its first scrape,
whether or not a given subsystem has fired yet.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from typing import Any, Dict, List, Optional

from .logs import JSONFormatter, configure_logging, get_logger
from .metrics import (LATENCY_BUCKETS, PROMETHEUS_CONTENT_TYPE, Counter,
                      Gauge, Histogram, MetricsRegistry,
                      parse_prometheus_families)
from .trace import (Trace, annotate, current_trace, current_trace_id,
                    mint_trace_id, record, span, start_trace, tracing,
                    valid_trace_id)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "LATENCY_BUCKETS", "PROMETHEUS_CONTENT_TYPE",
    "parse_prometheus_families",
    "Trace", "span", "record", "annotate", "tracing", "start_trace",
    "current_trace", "current_trace_id", "mint_trace_id",
    "valid_trace_id",
    "configure_logging", "JSONFormatter", "get_logger",
    "Observability",
]

_slow_log = logging.getLogger("repro.obs.slow")


class Observability:
    """One registry + the full metric-family set + the slow-query log.

    Owned by :class:`~repro.service.service.OMQService` and shared by
    everything serving it; standalone subsystem instances fall back to
    a private bundle so library use stays zero-config.
    """

    SLOW_LOG_KEEP = 64

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 slow_query_ms: Optional[float] = None):
        reg = self.registry = registry or MetricsRegistry()
        self.slow_query_ms = slow_query_ms
        self._slow_lock = threading.Lock()
        self._slow: "deque[Dict[str, Any]]" = deque(
            maxlen=self.SLOW_LOG_KEEP)

        # -- HTTP requests ------------------------------------------------
        self.http_requests = reg.counter(
            "repro_http_requests_total",
            "HTTP requests handled, by route/method/status.",
            ("route", "method", "status"))
        self.http_seconds = reg.histogram(
            "repro_http_request_seconds",
            "Wall-clock seconds per HTTP request, by route.",
            ("route",))
        self.slow_queries = reg.counter(
            "repro_slow_queries_total",
            "Requests exceeding the --slow-query-ms threshold.")

        # -- service core -------------------------------------------------
        self.service_requests = reg.counter(
            "repro_service_requests_total",
            "Answer requests processed by the service core.")
        self.service_batches = reg.counter(
            "repro_service_batches_total",
            "Batch answer calls processed.")
        self.service_batch_requests = reg.counter(
            "repro_service_batch_requests_total",
            "Individual requests arriving inside batches.")
        self.service_batch_deduped = reg.counter(
            "repro_service_batch_deduped_total",
            "Batch entries answered by another entry's execution.")
        self.service_updates = reg.counter(
            "repro_service_updates_total",
            "Data update calls applied.")
        self.answer_seconds = reg.histogram(
            "repro_answer_seconds",
            "End-to-end answer latency inside the service, by engine.",
            ("engine",))

        # -- rewriting cache ----------------------------------------------
        self.cache_hits = reg.counter(
            "repro_cache_hits_total", "Rewriting-cache hits.")
        self.cache_misses = reg.counter(
            "repro_cache_misses_total", "Rewriting-cache misses.")
        self.cache_evictions = reg.counter(
            "repro_cache_evictions_total",
            "Rewriting-cache LRU evictions.")
        self.cache_entries = reg.gauge(
            "repro_cache_entries", "Rewriting-cache current size.")

        # -- standing queries ---------------------------------------------
        self.standing_subscribed = reg.counter(
            "repro_standing_subscribed_total",
            "Standing-query subscriptions ever created.")
        self.standing_deltas = reg.counter(
            "repro_standing_deltas_pushed_total",
            "Non-empty deltas pushed to standing subscribers.")
        self.standing_tuples = reg.counter(
            "repro_standing_tuples_pushed_total",
            "Answer tuples pushed across all deltas.")
        self.standing_resyncs = reg.counter(
            "repro_standing_resyncs_total",
            "Full standing-query resynchronisations.")
        self.standing_polls = reg.counter(
            "repro_standing_polls_total", "Standing-query polls.")
        self.standing_maintenance_seconds = reg.counter(
            "repro_standing_maintenance_seconds_total",
            "Cumulative seconds spent in standing maintenance.")

        # -- tenants ------------------------------------------------------
        self.tenant_requests = reg.counter(
            "repro_tenant_requests_total",
            "Requests admitted, by tenant.", ("tenant",))
        self.tenant_rate_limited = reg.counter(
            "repro_tenant_rate_limited_total",
            "Requests rejected by the per-tenant rate limit.",
            ("tenant",))
        self.tenant_quota_rejections = reg.counter(
            "repro_tenant_quota_rejections_total",
            "Operations rejected by per-tenant quotas.", ("tenant",))

        # -- durable storage ----------------------------------------------
        self.storage_write_errors = reg.counter(
            "repro_storage_write_errors_total",
            "Durable-store write failures (served from memory).")

        # -- admission, coalescing, micro-batching ------------------------
        self.async_requests = reg.counter(
            "repro_async_requests_total",
            "Requests handled by the asyncio front-end.")
        self.async_coalesced = reg.counter(
            "repro_async_coalesced_total",
            "Requests served by joining an identical in-flight one.")
        self.async_batches = reg.counter(
            "repro_async_batches_total", "Micro-batches flushed.")
        self.async_batched_requests = reg.counter(
            "repro_async_batched_requests_total",
            "Requests executed inside micro-batches.")
        self.async_rejected = reg.counter(
            "repro_async_rejected_total",
            "Requests rejected with 503 under backpressure.")
        self.async_pending = reg.gauge(
            "repro_async_pending",
            "Requests currently admitted in the asyncio front-end.")
        self.async_peak_pending = reg.gauge(
            "repro_async_peak_pending",
            "High-water mark of admitted requests.")
        self.async_parked_polls = reg.gauge(
            "repro_async_parked_polls",
            "Long-polls currently parked.")
        self.async_peak_polls = reg.gauge(
            "repro_async_peak_polls",
            "High-water mark of parked long-polls.")

    # -- request accounting ----------------------------------------------

    def observe_http(self, route: str, method: str, status: int,
                     seconds: float,
                     trace: Optional[Trace] = None,
                     parked: bool = False) -> None:
        """Record one finished HTTP request; feed the slow-query log
        when it crossed the threshold.

        A ``parked`` request (a long-poll) never counts as slow: its
        wall time is the timeout its client asked for, not work.
        """
        self.http_requests.labels(route=route, method=method,
                                  status=str(status)).inc()
        self.http_seconds.labels(route=route).observe(seconds)
        threshold = self.slow_query_ms
        if threshold is None or parked or seconds * 1000.0 < threshold:
            return
        self.slow_queries.inc()
        entry: Dict[str, Any] = {
            "route": route, "method": method, "status": status,
            "ms": round(seconds * 1000.0, 3)}
        extra: Dict[str, Any] = {"route": route, "status": status,
                                 "ms": entry["ms"]}
        if trace is not None:
            entry["trace_id"] = trace.trace_id
            extra["trace_id"] = trace.trace_id
            for key in ("plan_fingerprint", "answer_route"):
                value = trace.annotations.get(key)
                if value:
                    entry[key] = extra[key] = value
            entry["spans"] = trace.flat_spans()
            extra["spans"] = entry["spans"]
        with self._slow_lock:
            self._slow.append(entry)
        _slow_log.warning("slow query on %s: %.1fms", route,
                          seconds * 1000.0, extra=extra)

    def slow_query_log(self) -> List[Dict[str, Any]]:
        with self._slow_lock:
            return list(self._slow)

    def latency_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-route p50/p95/p99 from the HTTP histogram — the
        ``/stats`` latency block."""
        out: Dict[str, Dict[str, float]] = {}
        for labels, child in self.http_seconds.children():
            route = dict(labels).get("route", "?")
            out[route] = child.summary()
        return out

    def stats(self) -> Dict[str, Any]:
        """The ``observability`` block of ``/stats``."""
        return {
            "slow_query_ms": self.slow_query_ms,
            "slow_queries": int(self.slow_queries.value),
            "latency": self.latency_summary(),
            "slow_query_log": self.slow_query_log(),
        }

    def render_prometheus(self) -> str:
        return self.registry.render_prometheus()
