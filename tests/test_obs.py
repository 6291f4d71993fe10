"""The observability layer: metrics, tracing, logging, export surfaces.

Four contracts:

* the metrics registry's histogram percentile math and Prometheus
  text rendering are correct;
* ``GET /metrics`` serves the registry in Prometheus text format, with
  the family set pinned at the wire level;
* every response echoes ``X-Repro-Trace-Id`` (honoring a sane inbound
  ID), error bodies carry ``trace_id``, and a traced ``/answer``
  returns a span breakdown that reaches through the micro-batch pool
  and covers the bulk of the request's wall time;
* the no-trace fast path is a shared no-op, so instrumentation stays
  out of the way when nobody asked for a trace.
"""

import io
import json
import logging
import time
import urllib.error
import urllib.request

import pytest

from repro import OMQ, Client, ServiceError
from repro.obs import (configure_logging, get_logger,
                       parse_prometheus_families)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import _NULL_SPAN, Trace, span, tracing
from repro.queries import CQ, chain_cq
from repro.service import OMQService, serve_in_background
from repro.service.dataset import Dataset

from .helpers import example11_tbox, random_data

TBOX = example11_tbox()

QUERY_PAYLOAD = {
    "dataset": "demo",
    "tbox_text": "roles: P, R, S\nP <= S\nP <= R-",
    "query": "R(x, y), S(y, z)",
    "answers": ["x", "z"],
}


def _http(base, path, payload=None, headers=None):
    """One raw HTTP round trip: ``(status, headers, decoded body)``."""
    all_headers = {"Content-Type": "application/json"}
    all_headers.update(headers or {})
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(base + path, data, all_headers)
    try:
        with urllib.request.urlopen(request) as response:
            raw = response.read()
            status, reply_headers = response.status, dict(response.headers)
    except urllib.error.HTTPError as error:
        raw, status, reply_headers = error.read(), error.code, \
            dict(error.headers)
    content_type = reply_headers.get("Content-Type", "")
    if content_type.startswith("application/json"):
        return status, reply_headers, json.loads(raw)
    return status, reply_headers, raw.decode()


@pytest.fixture
def server_url():
    service = OMQService(max_workers=2)
    service.register_dataset("demo", random_data(1))
    with serve_in_background(service) as handle:
        yield handle.url, service
    service.close()


# -- histogram math ---------------------------------------------------------


class TestHistogramPercentiles:
    def test_single_observation_is_exact(self):
        hist = MetricsRegistry().histogram("h_seconds", "test")
        hist.observe(0.0421)
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["p50"] == pytest.approx(0.0421)
        assert summary["p95"] == pytest.approx(0.0421)
        assert summary["p99"] == pytest.approx(0.0421)

    def test_percentiles_ordered_and_bounded(self):
        hist = MetricsRegistry().histogram("h_seconds", "test")
        values = [0.001 * i for i in range(1, 101)]
        for value in values:
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(sum(values) / 100,
                                                rel=1e-6)
        assert min(values) <= summary["p50"] <= summary["p95"] \
            <= summary["p99"] <= max(values)
        # the median of 1..100 ms is ~50ms; the log buckets put it in
        # [25ms, 50ms], so interpolation must land in that vicinity
        assert 0.02 <= summary["p50"] <= 0.06

    def test_percentiles_clamped_to_observed_range(self):
        hist = MetricsRegistry().histogram("h_seconds", "test")
        for _ in range(50):
            hist.observe(0.003)
        summary = hist.summary()
        assert summary["p99"] == pytest.approx(0.003)

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c_total", "test")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_registry_rejects_type_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "test")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "test")


class TestPrometheusRendering:
    def test_text_format(self):
        registry = MetricsRegistry()
        counter = registry.counter("demo_total", "A demo counter.",
                                   ("kind",))
        counter.labels(kind="a").inc(3)
        hist = registry.histogram("demo_seconds", "A demo histogram.")
        hist.observe(0.004)
        hist.observe(0.2)
        text = registry.render_prometheus()
        assert "# HELP demo_total A demo counter." in text
        assert "# TYPE demo_total counter" in text
        assert 'demo_total{kind="a"} 3' in text
        assert "# TYPE demo_seconds histogram" in text
        assert 'demo_seconds_bucket{le="+Inf"} 2' in text
        assert "demo_seconds_count 2" in text
        assert "demo_seconds_sum" in text
        # buckets are cumulative: the 0.25s bucket holds both samples
        assert 'demo_seconds_bucket{le="0.25"} 2' in text

    def test_parse_families_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "test")
        registry.gauge("b", "test")
        registry.histogram("c_seconds", "test")
        families = parse_prometheus_families(
            registry.render_prometheus())
        assert families == {"a_total": "counter", "b": "gauge",
                            "c_seconds": "histogram"}


# -- GET /metrics -----------------------------------------------------------

#: Every family ``GET /metrics`` exposes, with its Prometheus type.
METRIC_FAMILIES = {
    "repro_answer_seconds": "histogram",
    "repro_async_batched_requests_total": "counter",
    "repro_async_batches_total": "counter",
    "repro_async_coalesced_total": "counter",
    "repro_async_parked_polls": "gauge",
    "repro_async_peak_pending": "gauge",
    "repro_async_peak_polls": "gauge",
    "repro_async_pending": "gauge",
    "repro_async_rejected_total": "counter",
    "repro_async_requests_total": "counter",
    "repro_cache_entries": "gauge",
    "repro_cache_evictions_total": "counter",
    "repro_cache_hits_total": "counter",
    "repro_cache_misses_total": "counter",
    "repro_http_request_seconds": "histogram",
    "repro_http_requests_total": "counter",
    "repro_service_batch_deduped_total": "counter",
    "repro_service_batch_requests_total": "counter",
    "repro_service_batches_total": "counter",
    "repro_service_requests_total": "counter",
    "repro_service_updates_total": "counter",
    "repro_slow_queries_total": "counter",
    "repro_standing_deltas_pushed_total": "counter",
    "repro_standing_maintenance_seconds_total": "counter",
    "repro_standing_polls_total": "counter",
    "repro_standing_resyncs_total": "counter",
    "repro_standing_subscribed_total": "counter",
    "repro_standing_tuples_pushed_total": "counter",
    "repro_storage_write_errors_total": "counter",
    "repro_tenant_quota_rejections_total": "counter",
    "repro_tenant_rate_limited_total": "counter",
    "repro_tenant_requests_total": "counter",
}


class TestMetricsEndpoint:
    def test_metrics_are_prometheus_text(self, server_url):
        url, _ = server_url
        status, headers, text = _http(url, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        assert "repro_http_requests_total" in text

    def test_family_set_is_pinned(self, server_url):
        url, _ = server_url
        # families are created eagerly: the set is the same before and
        # after traffic, and a dashboard can rely on every name in it
        _, _, idle_text = _http(url, "/metrics")
        _http(url, "/answer", QUERY_PAYLOAD)
        _, _, busy_text = _http(url, "/metrics")
        families = parse_prometheus_families(busy_text)
        assert families == parse_prometheus_families(idle_text)
        assert families == METRIC_FAMILIES

    def test_http_counters_move(self, server_url):
        url, service = server_url
        before = int(service.obs.http_requests.labels(
            route="/answer", method="POST", status="200").value)
        status, _, _ = _http(url, "/answer", QUERY_PAYLOAD)
        assert status == 200
        # accounting runs in the handler's finally, after the response
        # bytes go out — poll briefly instead of racing it
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            after = int(service.obs.http_requests.labels(
                route="/answer", method="POST", status="200").value)
            if after == before + 1:
                break
            time.sleep(0.01)
        assert after == before + 1
        assert service.obs.http_seconds.labels(
            route="/answer").summary()["count"] >= 1


# -- trace IDs on the wire --------------------------------------------------


class TestAsyncTraceWire:
    """Header echo + error attribution."""

    def test_response_echoes_minted_trace_id(self, server_url):
        url, _ = server_url
        status, headers, _ = _http(url, "/health")
        assert status == 200
        assert headers.get("X-Repro-Trace-Id")

    def test_inbound_trace_id_is_honored(self, server_url):
        url, _ = server_url
        status, headers, _ = _http(
            url, "/answer", QUERY_PAYLOAD,
            headers={"X-Repro-Trace-Id": "req-12345"})
        assert status == 200
        assert headers["X-Repro-Trace-Id"] == "req-12345"

    def test_error_body_carries_trace_id(self, server_url):
        url, _ = server_url
        payload = dict(QUERY_PAYLOAD, dataset="missing")
        status, headers, body = _http(
            url, "/answer", payload,
            headers={"X-Repro-Trace-Id": "err-42"})
        assert status >= 400
        assert body["trace_id"] == "err-42"
        assert headers["X-Repro-Trace-Id"] == "err-42"

    def test_client_surfaces_trace_id(self, server_url):
        url, _ = server_url
        client = Client.connect(url)
        omq = OMQ(TBOX, chain_cq("RS"))
        client.answer("demo", omq)
        assert client.last_trace_id
        with pytest.raises(ServiceError) as info:
            client.answer("missing", omq)
        assert info.value.trace_id == client.last_trace_id
        client.close()

    def test_traced_answer_returns_spans(self, server_url):
        url, _ = server_url
        client = Client.connect(url)
        omq = OMQ(TBOX, chain_cq("RS"))
        client.answer("demo", omq)  # warm the rewriting cache
        result = client.answer("demo", omq, trace=True)
        assert result.trace is not None
        assert result.trace["trace_id"] == client.last_trace_id
        names = {entry["name"] for entry in result.trace["spans"]}
        assert {"decode", "cache-lookup", "execute",
                "encode"} <= names
        untraced = client.answer("demo", omq)
        assert untraced.trace is None
        client.close()


# -- /answer explains itself -------------------------------------------------


class TestAnswerTrace:
    @pytest.fixture
    def wide_service(self):
        service = OMQService(max_workers=2)
        # large enough that execution, not the span bookkeeping and
        # socket hops around it, is what an answer spends its time on
        service.register_dataset(
            "demo", random_data(3, individuals=150, atoms=1500))
        yield service
        service.close()

    def test_http_trace_covers_wall_time(self, wide_service):
        with serve_in_background(wide_service) as handle:
            url = handle.url
            _http(url, "/answer", QUERY_PAYLOAD)  # warm plan + engine
            started = time.perf_counter()
            status, headers, body = _http(
                url, "/answer", dict(QUERY_PAYLOAD, trace=True))
            wall = time.perf_counter() - started
            assert status == 200
            trace = body["trace"]
            assert trace["trace_id"] == headers["X-Repro-Trace-Id"]
            names = [entry["name"] for entry in trace["spans"]]
            assert len(set(names)) >= 4, names
            total = sum(entry["seconds"] for entry in trace["spans"])
            # the spans must cover the bulk of the request; the
            # uncovered remainder is connection setup + header
            # parsing, which stays small next to execution
            assert total <= wall * 1.2
            assert total >= wall * 0.5 - 0.005, (total, wall, names)
            assert body["cached_rewriting"] is True


# -- /update explains itself -------------------------------------------------


class TestUpdateTrace:
    """``POST /update {"trace": true}`` returns the update sequence as
    a tree: one ``update`` span whose children are the stages of
    ``Dataset.STAGES``, in order, tiling it."""

    @staticmethod
    def _traced_update(url, dataset, serial):
        atoms = [f"R(t{serial}, u{serial})", f"S(u{serial}, v{serial})"]
        status, _, body = _http(url, "/update", {
            "dataset": dataset, "insert": atoms, "trace": True})
        assert status == 200 and body["inserted"] == 2
        (update,) = [entry for entry in body["trace"]["spans"]
                     if entry["name"] == "update"]
        assert [stage["name"] for stage in update["children"]] \
            == list(Dataset.STAGES)
        return update

    def _fastest(self, url, dataset, serials):
        """Per stage, the fastest of a few traced updates: one noisy
        neighbour must not read as a stall."""
        runs = [self._traced_update(url, dataset, serial)
                for serial in serials]
        return {name: min(run["children"][index]["seconds"]
                          for run in runs)
                for index, name in enumerate(Dataset.STAGES)}

    def test_stages_tile_the_update_and_localise_a_stall(
            self, tmp_path, monkeypatch):
        service = OMQService(max_workers=2, data_dir=str(tmp_path))
        # "wide": large enough that the stages, not the span
        # bookkeeping between them, are what an update spends its time
        # on; "small": stages far below the stall, so a slow spell of
        # the host cannot pass for one
        service.register_dataset(
            "wide", random_data(3, individuals=150, atoms=1500))
        service.register_dataset("small", random_data(1))
        for name in ("wide", "small"):
            service.subscribe(name, OMQ(TBOX, chain_cq("RS")))
        # a renaming of that query and one other shape: three watchers,
        # two plans
        service.subscribe("wide", OMQ(TBOX, CQ.parse(
            "R(u, v), S(v, w)", answer_vars=["u", "w"])))
        service.subscribe("wide", OMQ(TBOX, chain_cq("SR")))
        try:
            with serve_in_background(service) as handle:
                url = handle.url
                self._traced_update(url, "wide", 0)  # load the engines
                covered = 0.0
                for serial in (1, 2, 3):
                    update = self._traced_update(url, "wide", serial)
                    covered = max(covered, sum(
                        stage["seconds"] for stage in update["children"])
                        / update["seconds"])
                assert covered >= 0.9
                # each plan group the update moved is one span under
                # ``standing``, named for its route: past the first
                # update both views follow the journal by delta clauses
                standing = update["children"][-1]
                assert [child["name"] for child in standing["children"]] \
                    == ["delta"] * 2

                self._traced_update(url, "small", 0)
                quiet = self._fastest(url, "small", (1, 2, 3))
                dataset = service._dataset("small")
                store = dataset._store

                def stalled(update):
                    time.sleep(0.005)
                    store(update)

                monkeypatch.setattr(dataset, "_store", stalled)
                seconds = self._fastest(url, "small", (4, 5, 6))
                assert seconds["store"] >= 0.005
                assert seconds["store"] >= quiet["store"] + 0.004
                # ...and in no other span: the rest is as fast as it was
                for name in set(Dataset.STAGES) - {"store"}:
                    assert seconds[name] < quiet[name] + 0.0025, (
                        name, seconds, quiet)
        finally:
            service.close()


# -- slow-query log ---------------------------------------------------------


class TestSlowQueryLog:
    def test_slow_requests_are_logged_with_trace(self, server_url):
        url, service = server_url
        service.obs.slow_query_ms = 0.0  # everything is "slow"
        status, headers, _ = _http(
            url, "/answer", QUERY_PAYLOAD,
            headers={"X-Repro-Trace-Id": "slow-1"})
        assert status == 200
        # the request is accounted *after* the response bytes go out,
        # so the log entry can trail the client's read by a beat
        deadline = time.perf_counter() + 5.0
        entries = []
        while not entries and time.perf_counter() < deadline:
            entries = [entry for entry in service.obs.slow_query_log()
                       if entry.get("trace_id") == "slow-1"]
            if not entries:
                time.sleep(0.01)
        service.obs.slow_query_ms = None
        assert entries, service.obs.slow_query_log()
        entry = entries[0]
        assert entry["route"] == "/answer"
        assert entry["plan_fingerprint"]
        assert any(span_entry["name"] == "execute"
                   for span_entry in entry["spans"])
        _, _, stats = _http(url, "/stats")
        obs_stats = stats["observability"]
        assert obs_stats["slow_queries"] >= 1
        assert any(item.get("trace_id") == "slow-1"
                   for item in obs_stats["slow_query_log"])
        assert "/answer" in obs_stats["latency"]

    def test_parked_poll_is_not_a_slow_query(self, server_url):
        """A ``/poll``'s wall time is the timeout its client asked for:
        it is timed in the route histogram, never logged as slow."""
        url, service = server_url
        service.obs.slow_query_ms = 100.0
        try:
            with Client.connect(url) as client:
                sub = client.subscribe("demo", OMQ(TBOX, chain_cq("RS")))
                assert sub.poll(timeout=0.5) == []
                latency = {}
                deadline = time.perf_counter() + 5.0
                while ("/poll" not in latency
                       and time.perf_counter() < deadline):
                    time.sleep(0.01)
                    latency = service.obs.latency_summary()
                sub.unsubscribe()
        finally:
            service.obs.slow_query_ms = None
        assert latency["/poll"]["count"] == 1
        assert latency["/poll"]["mean"] >= 0.4
        # only a slow /subscribe compile on a loaded host may be logged
        slow = service.obs.slow_query_log()
        assert all(entry["route"] == "/subscribe" for entry in slow)
        assert service.obs.stats()["slow_queries"] == len(slow)


# -- overhead guard ---------------------------------------------------------


class TestOverheadGuard:
    def test_inactive_span_is_shared_noop(self):
        assert span("anything") is _NULL_SPAN
        with span("anything") as entry:
            assert entry is _NULL_SPAN

    def test_inactive_span_is_cheap(self):
        started = time.perf_counter()
        for _ in range(20000):
            with span("x"):
                pass
        # 20k no-op spans in well under a second: the instrumented
        # hot path costs microseconds when no trace is active
        assert time.perf_counter() - started < 1.0

    def test_tracing_overhead_within_noise(self):
        with Client.local(max_workers=1) as client:
            client.register_dataset("demo", random_data(2))
            omq = OMQ(TBOX, chain_cq("RS"))
            client.answer("demo", omq)  # warm cache + session

            def loop(traced: bool) -> float:
                started = time.perf_counter()
                for _ in range(20):
                    client.answer("demo", omq, trace=traced)
                return time.perf_counter() - started

            loop(False)  # fully warm both paths before timing
            loop(True)
            bare = min(loop(False), loop(False))
            traced = min(loop(True), loop(True))
            # tracing records a handful of spans per request — the
            # cost must stay within scheduler noise of the bare loop
            assert traced <= bare * 3 + 0.05, (bare, traced)


# -- logging ----------------------------------------------------------------


class TestLogging:
    def teardown_method(self):
        # remove the handler configure_logging installed and restore
        # propagation, so later tests log as if it never ran
        logger = logging.getLogger("repro")
        for existing in list(logger.handlers):
            if existing.get_name() == "repro-obs":
                logger.removeHandler(existing)
        logger.propagate = True
        logger.setLevel(logging.NOTSET)

    def test_json_lines_with_trace_id(self):
        stream = io.StringIO()
        configure_logging("info", json_output=True, stream=stream)
        logger = get_logger("test")
        active = Trace()
        with tracing(active):
            logger.info("hello %s", "world", extra={"route": "/answer"})
        record = json.loads(stream.getvalue().strip())
        assert record["message"] == "hello world"
        assert record["logger"] == "repro.test"
        assert record["level"] == "INFO"
        assert record["trace_id"] == active.trace_id
        assert record["route"] == "/answer"

    def test_plain_format_appends_trace_id(self):
        stream = io.StringIO()
        configure_logging("info", json_output=False, stream=stream)
        active = Trace()
        with tracing(active):
            get_logger("test").warning("careful")
        line = stream.getvalue()
        assert "careful" in line
        assert active.trace_id in line

    def test_level_filtering_and_idempotent_reconfigure(self):
        stream = io.StringIO()
        configure_logging("warning", json_output=True, stream=stream)
        configure_logging("warning", json_output=True, stream=stream)
        logger = get_logger("test")
        logger.info("dropped")
        logger.warning("kept")
        lines = [line for line in stream.getvalue().splitlines() if line]
        assert len(lines) == 1  # one handler, info filtered out
        assert json.loads(lines[0])["message"] == "kept"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("loud")

    def test_repro_loggers_share_hierarchy(self):
        assert get_logger("service").name == "repro.service"
        assert isinstance(get_logger("obs"), logging.Logger)
