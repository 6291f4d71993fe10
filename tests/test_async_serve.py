"""The HTTP server, tested differentially.

The contract: ``repro serve`` must be *invisible* to a correct client —
same answers as the embedded service, structured errors for every
malformed request — while coalescing identical in-flight requests,
micro-batching, and pushing back with 429 when saturated.

The load test drives ~100 concurrent mixed requests (hot repeats,
renamed-variable repeats, engine variations, cold shapes) through the
async server in phases with incremental updates interleaved, and
compares every single response against an embedded
:class:`~repro.client.Client` answering the same workload over the
same evolving data.
"""

import asyncio
import http.client
import importlib
import json
import logging
import socket
import threading
import time

import pytest

from repro import OMQ, AsyncClient, Client, ServiceError
from repro.client import cq_to_text, tbox_to_text
from repro.queries import CQ, chain_cq
from repro.obs.trace import Trace, tracing
from repro.service import OMQService, serve_in_background
from repro.service.aserve import MAX_HEADERS, AsyncServiceServer
from repro.service.cache import RewritingCache
from repro.service.protocol import ProtocolError

from .helpers import example11_tbox, random_data

TBOX = example11_tbox()


def _fresh_data():
    return random_data(1, individuals=8, atoms=30)


@pytest.fixture
def async_stack():
    """A served async stack plus an embedded reference client over
    identical data."""
    service = OMQService(max_workers=4)
    service.register_dataset("demo", _fresh_data())
    reference = Client.local(max_workers=2)
    reference.register_dataset("demo", _fresh_data())
    with serve_in_background(service, max_pending=512) as handle:
        yield handle, reference
    reference.close()
    service.close()


def _phase_requests(phase: int):
    """~34 mixed requests: repeats, renamed repeats, engines, cold."""
    requests = []
    for index in range(12):  # hot, renamed per request -> coalescable
        omq = OMQ(TBOX, chain_cq("RS", prefix=f"p{phase}h{index}_"))
        requests.append((omq, {}))
    for index in range(8):  # second hot shape, on the SQL engine
        omq = OMQ(TBOX, chain_cq("RSR", prefix=f"p{phase}s{index}_"))
        requests.append((omq, {"engine": "sql"}))
    for index in range(6):  # identical objects (not even renamed)
        requests.append((OMQ(TBOX, chain_cq("SR")), {}))
    requests.append((OMQ(TBOX, CQ.parse("A_P(x)", answer_vars=["x"])), {}))
    requests.append((OMQ(TBOX, CQ.parse("R(x, y)", answer_vars=[])), {}))
    requests.append((OMQ(TBOX, chain_cq("RS")), {"method": "tw"}))
    requests.append((OMQ(TBOX, chain_cq("RS")), {"method": "ucq"}))
    for index, labels in enumerate(("RR", "SS", "RSS", "SRR", "RSRS",
                                    "SRSR")):  # cold tail
        omq = OMQ(TBOX, chain_cq(labels, prefix=f"p{phase}c{index}_"))
        requests.append((omq, {}))
    return requests


_UPDATES = (
    {"inserts": [("R", ("u1", "u2")), ("S", ("u2", "u3"))]},
    {"inserts": [("P", ("u3", "u1"))], "deletes": [("R", ("u1", "u2"))]},
)


class TestDifferentialLoad:
    def test_concurrent_mixed_workload_matches_embedded(self, async_stack):
        handle, reference = async_stack
        total = 0

        async def run_phase(client, requests):
            return await asyncio.gather(
                *[client.answer("demo", omq, **overrides)
                  for omq, overrides in requests])

        async def main():
            nonlocal total
            async with AsyncClient.connect(handle.url) as client:
                for phase, update in enumerate(_UPDATES + ({},)):
                    requests = _phase_requests(phase)
                    total += len(requests)
                    got = await run_phase(client, requests)
                    # the reference answers the same workload serially
                    # over its own copy of the (identically updated)
                    # data; every response must match exactly
                    for (omq, overrides), result in zip(requests, got):
                        expected = reference.answer("demo", omq,
                                                    **overrides)
                        assert result.sorted() == expected.sorted(), \
                            (phase, str(omq.query))
                    if update:
                        await client.update("demo", **update)
                        reference.update(
                            "demo", inserts=update.get("inserts", ()),
                            deletes=update.get("deletes", ()))
                return await client.stats()

        stats = asyncio.run(main())
        assert total >= 100
        serving = stats["async_serving"]
        # the repeat-heavy workload must actually coalesce
        assert serving["coalesced"] > 1
        assert serving["requests"] >= total
        assert serving["batches"] >= 1
        assert serving["batched_requests"] >= 1
        assert serving["rejected"] == 0
        assert serving["pending"] == 0

    def test_coalesced_requests_share_one_execution(self, async_stack):
        handle, _ = async_stack
        omqs = [OMQ(TBOX, chain_cq("RS", prefix=f"v{index}_"))
                for index in range(24)]

        async def main():
            async with AsyncClient.connect(handle.url) as client:
                results = await asyncio.gather(
                    *[client.answer("demo", omq) for omq in omqs])
                return results, await client.stats()

        results, stats = asyncio.run(main())
        assert len({result.answers for result in results}) == 1
        serving = stats["async_serving"]
        # 24 in-flight twins; at least one execution was shared (the
        # scheduler decides how many made it in before the first flush)
        assert serving["coalesced"] > 1
        assert serving["batched_requests"] + serving["coalesced"] \
            >= len(omqs)

    def test_bad_request_does_not_poison_batchmates(self, async_stack):
        # a request for an unknown dataset aborts the whole
        # answer_batch call; its batchmates must still be answered
        handle, reference = async_stack
        good = [OMQ(TBOX, chain_cq(labels))
                for labels in ("RS", "RSR", "SR")]
        bad = OMQ(TBOX, chain_cq("RS", prefix="bad_"))

        async def main():
            async with AsyncClient.connect(handle.url) as client:
                return await asyncio.gather(
                    *([client.answer("demo", omq) for omq in good]
                      + [client.answer("typo", bad)]),
                    return_exceptions=True)

        outcomes = asyncio.run(main())
        assert isinstance(outcomes[-1], ServiceError)
        assert "unknown dataset" in str(outcomes[-1])
        for (omq, result) in zip(good, outcomes):
            assert not isinstance(result, Exception)
            expected = reference.answer("demo", omq)
            assert result.answers == expected.answers

    def test_update_invalidates_coalescing(self, async_stack):
        handle, _ = async_stack
        omq = OMQ(TBOX, chain_cq("RS"))

        async def main():
            async with AsyncClient.connect(handle.url) as client:
                before = await client.answer("demo", omq)
                await client.update(
                    "demo", inserts=[("R", ("zz1", "zz2")),
                                     ("S", ("zz2", "zz3"))])
                after = await client.answer("demo", omq)
                return before, after

        before, after = asyncio.run(main())
        assert ("zz1", "zz3") not in before.answers
        assert ("zz1", "zz3") in after.answers


class _Gate:
    """Holds the service's ``answer_batch`` on its worker thread until
    the test opens it: "every worker is busy", by count instead of by
    clock."""

    def __init__(self, service):
        self.open = threading.Event()
        self._answer_batch = service.answer_batch
        service.answer_batch = self  # shadows the bound method

    def __call__(self, requests):
        assert self.open.wait(timeout=30), "the gate was never opened"
        return self._answer_batch(requests)


@pytest.fixture
def gated():
    service = OMQService(max_workers=1)
    service.register_dataset("demo", _fresh_data())
    gate = _Gate(service)
    yield service, gate
    gate.open.set()
    service.close()


async def _outcome(awaitable):
    try:
        return await awaitable
    except ServiceError as error:
        return error


class TestBackpressure:
    def test_429_with_retry_after_when_saturated(self, gated):
        service, gate = gated
        omqs = [OMQ(TBOX, chain_cq(labels))
                for labels in ("RS", "RSR", "SR", "RR", "SS", "RSS")]
        with serve_in_background(service, max_pending=1,
                                 workers=1) as handle:
            async def main():
                async with AsyncClient.connect(handle.url) as client:
                    finished = asyncio.as_completed(
                        [_outcome(client.answer("demo", omq))
                         for omq in omqs], timeout=30)
                    # one request holds the only slot behind the gate,
                    # so every other arrival sees depth 1 and bounces
                    rejected = [await next(finished)
                                for _ in omqs[1:]]
                    gate.open.set()
                    served = await next(finished)
                    return rejected, served, await client.stats()

            rejected, served, stats = asyncio.run(main())
        assert not isinstance(served, Exception) and len(rejected) == 5
        assert all(error.status == 429 for error in rejected)
        assert all(error.error_type == "overloaded" for error in rejected)
        assert all(error.retry_after is not None for error in rejected)
        assert stats["async_serving"]["rejected"] == len(rejected)

    def test_coalesced_join_admitted_when_saturated(self, gated):
        service, gate = gated
        joins = service.obs.async_coalesced
        count_join = joins.inc

        def inc(amount=1.0):
            count_join(amount)
            gate.open.set()  # the twin has joined: let the work finish

        joins.inc = inc
        with serve_in_background(service, max_pending=1,
                                 workers=1) as handle:
            async def main():
                async with AsyncClient.connect(handle.url) as client:
                    # identical twins: the second joins the first
                    # in-flight execution instead of being rejected
                    omq = OMQ(TBOX, chain_cq("RS"))
                    twin = OMQ(TBOX, chain_cq("RS", prefix="w_"))
                    return await asyncio.wait_for(asyncio.gather(
                        client.answer("demo", omq),
                        client.answer("demo", twin)), timeout=30)

            first, second = asyncio.run(main())
        assert first.answers == second.answers
        assert joins.value == 1


class TestAdaptiveBatching:
    """The occupancy rule, driven on the server's own loop and held to
    its counters: no sleeps, no wall-clock thresholds."""

    @staticmethod
    def _run(gated, scenario, **server_kwargs):
        service, gate = gated

        async def main():
            server = AsyncServiceServer(service, port=0, workers=1,
                                        **server_kwargs)
            await server.start()
            try:
                return await scenario(server, gate)
            finally:
                gate.open.set()
                await server.stop()

        return asyncio.run(main())

    @staticmethod
    def _answer(server, labels):
        query = chain_cq(labels)
        body = json.dumps({"dataset": "demo",
                           "tbox_text": tbox_to_text(TBOX),
                           "query": cq_to_text(query),
                           "answers": list(query.answer_vars)}).encode()
        return asyncio.ensure_future(
            server._dispatch("POST", "/answer", body))

    @staticmethod
    def _counters(server):
        return server._counters_payload()["async_serving"]

    def test_lone_request_is_flushed_at_once_without_a_timer(self, gated):
        async def scenario(server, gate):
            gate.open.set()
            loop = asyncio.get_running_loop()
            timers = []
            call_at = loop.call_at  # call_later goes through it too
            loop.call_at = lambda *args, **kwargs: (
                timers.append(args), call_at(*args, **kwargs))[1]
            request = self._answer(server, "RS")
            await asyncio.sleep(0)  # one turn of the loop, no more
            admitted = self._counters(server)
            status, body = await request
            return admitted, list(server._pending), timers, status, body

        admitted, pending, timers, status, body = self._run(gated, scenario)
        assert (admitted["batches"], admitted["batched_requests"]) == (1, 1)
        assert pending == [] and timers == []
        assert status == 200 and body["coalesced"] is False

    def _hold_then_release(self, gated, **server_kwargs):
        """One request holds the only worker behind the gate, five
        distinct ones arrive, the gate opens: the counters while held,
        the requests left gathering, the replies, the counters after."""
        async def scenario(server, gate):
            first = self._answer(server, "RS")
            await asyncio.sleep(0)  # flushed: it holds the one worker
            others = [self._answer(server, labels)
                      for labels in ("RSR", "SR", "RR", "SS", "RSS")]
            await asyncio.sleep(0)
            held = self._counters(server)
            gathered = len(server._pending)
            gate.open.set()
            replies = await asyncio.gather(first, *others)
            return held, gathered, replies, self._counters(server)

        return self._run(gated, scenario, **server_kwargs)

    def test_arrivals_gather_while_the_worker_is_busy(self, gated):
        held, gathered, replies, after = self._hold_then_release(gated)
        assert (held["batches"], held["pending"], gathered) == (1, 6, 5)
        assert all(status == 200 for status, _ in replies)
        # released together, by the completion of the running batch
        assert (after["batches"], after["batched_requests"]) == (2, 6)
        assert after["pending"] == 0

    def test_max_batch_still_splits(self, gated):
        held, gathered, _, after = self._hold_then_release(gated,
                                                           max_batch=2)
        # 1 flushed at once, then 2 + 2 cut at max_batch, 1 left waiting
        assert (held["batches"], gathered) == (3, 1)
        assert (after["batches"], after["batched_requests"]) == (4, 6)

    def test_stop_fails_queued_work_with_503(self, gated):
        async def scenario(server, gate):
            running = self._answer(server, "RS")
            await asyncio.sleep(0)
            queued = self._answer(server, "SR")
            await asyncio.sleep(0)
            assert len(server._pending) == 1
            # stop() joins the worker pool after failing queued work;
            # the held batch must be let go for that join to return
            shutdown = server._executor.shutdown

            def release_then_shutdown(wait=True):
                gate.open.set()
                shutdown(wait=wait)

            server._executor.shutdown = release_then_shutdown
            await server.stop()
            return await asyncio.gather(running, queued,
                                        return_exceptions=True)

        running, queued = self._run(gated, scenario)
        assert running[0] == 200  # in-flight work still completes
        assert isinstance(queued, ProtocolError)
        assert (queued.status, queued.error_type) == (503, "overloaded")


def _exchange(address, request: bytes) -> bytes:
    """Send ``request`` on a fresh connection; everything the server
    wrote before it closed."""
    with socket.create_connection(address, timeout=10) as conn:
        conn.sendall(request)
        chunks = []
        try:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # closed with our unread bytes still in its buffer
    return b"".join(chunks)


class TestProtocolParity:
    """Malformed requests get structured errors, never a dropped
    connection or a traceback."""

    @pytest.fixture
    def address(self):
        service = OMQService(max_workers=2)
        service.register_dataset("demo", _fresh_data())
        with serve_in_background(service) as handle:
            yield handle.address
        service.close()

    @staticmethod
    def _raw(address, payload: bytes,
             content_length: str = None) -> tuple:
        """POST /answer over a raw socket (to control the headers)."""
        length = (str(len(payload)) if content_length is None
                  else content_length)
        head = (f"POST /answer HTTP/1.1\r\nHost: repro\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {length}\r\nConnection: close\r\n\r\n")
        raw = _exchange(address, head.encode() + payload)
        status_line, _, rest = raw.partition(b"\r\n")
        status = int(status_line.split()[1])
        _, _, body = rest.partition(b"\r\n\r\n")
        return status, json.loads(body)

    def test_malformed_json_is_structured_400(self, address):
        status, body = self._raw(address, b"{not json!")
        assert status == 400
        assert body["error_type"] == "bad_request"
        assert "malformed JSON body" in body["error"]

    def test_non_object_body_is_structured_400(self, address):
        status, body = self._raw(address, b"[1, 2, 3]")
        assert status == 400
        assert body["error_type"] == "bad_request"
        assert "JSON object" in body["error"]

    def test_invalid_utf8_body_is_structured_400(self, address):
        status, body = self._raw(address, b'{"name": "caf\xe9"}')
        assert status == 400
        assert body["error_type"] == "bad_request"
        assert "UTF-8" in body["error"]

    def test_non_integer_content_length_is_structured_400(self, address):
        status, body = self._raw(address, b"", content_length="abc")
        assert status == 400
        assert body["error_type"] == "bad_request"
        assert "Content-Length" in body["error"]

    def test_framing_error_closes_the_connection(self, address):
        # an unreadable body length leaves unknowable bytes on the
        # wire; keeping the connection would parse them as the next
        # request line, so the server must close after the 400
        first = (b"POST /answer HTTP/1.1\r\nHost: repro\r\n"
                 b"Content-Type: application/json\r\n"
                 b"Content-Length: 12abc\r\n\r\n"
                 b'{"dataset": 1}')
        second = b"GET /health HTTP/1.1\r\nHost: repro\r\n\r\n"
        raw = _exchange(address, first + second)
        assert raw.split()[1] == b"400"
        # exactly one response: the pipelined GET must NOT have been
        # served from the desynchronized stream
        assert raw.count(b"HTTP/1.1") == 1
        assert b'"status": "ok"' not in raw

    def test_unknown_path_is_structured_404(self, address):
        host, port = address
        with Client.connect(f"http://{host}:{port}") as client:
            with pytest.raises(ServiceError) as excinfo:
                client._transport._call("/nope", {"x": 1})
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "not_found"

    def test_missing_fields_error_identically(self, address):
        host, port = address
        with Client.connect(f"http://{host}:{port}") as client:
            with pytest.raises(ServiceError, match="missing 'dataset'"):
                client._transport._call(
                    "/answer", {"tbox_text": "P <= S", "query": "S(x,y)",
                                "answers": "x"})


    @pytest.mark.parametrize("request_bytes, status, message", [
        (b"GET /" + b"a" * 100_000 + b" HTTP/1.1\r\nHost: repro\r\n\r\n",
         414, "request line too long"),
        (b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 100_000
         + b"\r\n\r\n", 431, "header line too long"),
        (b"GET /health HTTP/1.1\r\n"
         + b"".join(b"X-H%d: v\r\n" % index for index in range(5000))
         + b"\r\n", 431, f"more than {MAX_HEADERS} header lines"),
    ], ids=["request-line", "header-line", "header-count"])
    def test_oversized_head_is_structured_4xx(self, address, caplog,
                                              request_bytes, status,
                                              message):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            # a pipelined request behind the refused head must not be
            # served: where it starts is unknowable, so the server
            # answers once and closes (recv saw EOF or a reset)
            raw = _exchange(address, request_bytes + b"GET /health "
                            b"HTTP/1.1\r\nHost: repro\r\n\r\n")
            fresh = _exchange(address, b"GET /metrics HTTP/1.1\r\n"
                              b"Connection: close\r\n\r\n")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split()[1] == str(status).encode()
        assert b"connection: close" in head.lower()
        assert raw.count(b"HTTP/1.1") == 1
        assert json.loads(body)["error"] == message
        assert json.loads(body)["error_type"] == "bad_request"
        # the server is unharmed — a fresh connection answers — and
        # it counted the refusal
        assert fresh.split()[1] == b"200"
        assert b'status="%d"} 1\n' % status in fresh
        assert caplog.records == []


class TestAsyncClientSurface:
    def test_full_surface_round_trip(self):
        service = OMQService(max_workers=2)
        try:
            with serve_in_background(service) as handle:
                async def main():
                    async with AsyncClient.connect(handle.url) as client:
                        await client.register_dataset(
                            "demo", _fresh_data())
                        await client.register_tbox("uni", TBOX)
                        assert await client.datasets() == ("demo",)
                        omq = OMQ(TBOX, chain_cq("RS"))
                        result = await client.answer("demo", omq,
                                                     method="tw")
                        report = await client.explain(omq, method="tw")
                        stats = await client.stats()
                        return result, report, stats

                result, report, stats = asyncio.run(main())
        finally:
            service.close()
        assert result.method == "tw"
        assert report["method"] == "tw"
        assert report["fingerprint"] == result.plan_fingerprint
        assert stats["datasets"]["demo"]["requests"] >= 1

    def test_client_async_bridge_matches_sync(self, async_stack):
        # a blocking Client inside a coroutine belongs on a thread
        handle, _ = async_stack
        omq = OMQ(TBOX, chain_cq("RS"))
        with Client.connect(handle.url) as client:
            sync_result = client.answer("demo", omq)

            async def main():
                return (await asyncio.to_thread(client.answer, "demo", omq),
                        await asyncio.to_thread(client.stats))

            async_result, stats = asyncio.run(main())
        assert async_result.answers == sync_result.answers
        assert stats["requests"] >= 2

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError, match="plain http"):
            AsyncClient.connect("https://example.com")


class TestLifecycle:
    def test_stop_with_open_keepalive_connection(self, capsys):
        # an idle keep-alive connection parks its handler task in a
        # readline; stop() must cancel it instead of tearing the loop
        # down under it
        service = OMQService(max_workers=1)
        service.register_dataset("demo", _fresh_data())
        handle = serve_in_background(service)
        conn = socket.create_connection(handle.address, timeout=10)
        try:
            conn.sendall(b"GET /health HTTP/1.1\r\nHost: repro\r\n\r\n")
            conn.settimeout(10)
            assert b"200" in conn.recv(65536)  # served, still open
            handle.stop()
        finally:
            conn.close()
            service.close()
        captured = capsys.readouterr()
        assert "Task was destroyed" not in captured.err
        assert "Event loop is closed" not in captured.err


# -- the inline route ---------------------------------------------------------

LOOP_THREAD = "repro-aserve-loop"  # BackgroundAsyncServer's loop thread


def _answer_body(query, dataset="demo", **fields) -> bytes:
    return json.dumps({"dataset": dataset, "tbox_text": tbox_to_text(TBOX),
                       "query": cq_to_text(query),
                       "answers": list(query.answer_vars),
                       **fields}).encode()


def _post(conn, body: bytes):
    """One ``POST /answer`` on a kept-alive connection: status, JSON."""
    conn.request("POST", "/answer", body=body,
                 headers={"Content-Type": "application/json"})
    reply = conn.getresponse()
    return reply.status, json.loads(reply.read())


def _route(body) -> str:
    return body["trace"]["annotations"]["answer_route"]


class TestInlineRoute:
    """On an idle server a lone ``/answer`` whose plan is cached, whose
    last run on the same data was measured short, and whose dataset has
    a free session runs on the event loop, with no pool hop; every
    other ``/answer`` keeps the coalescing and micro-batch path.  Each
    reply's trace names the route it took."""

    @pytest.fixture
    def served(self):
        """The server, and the thread every ``answer_batch`` ran on."""
        service = OMQService(max_workers=2)
        service.register_dataset("demo", _fresh_data())
        service.register_dataset("other", _fresh_data())
        threads = []
        answer_batch = service.answer_batch

        def noted(requests):
            threads.append(threading.current_thread().name)
            return answer_batch(requests)

        service.answer_batch = noted
        with serve_in_background(service) as handle:
            conn = http.client.HTTPConnection(*handle.address, timeout=30)
            try:
                yield service, handle, conn, threads
            finally:
                conn.close()
        service.close()

    def test_a_lone_cached_answer_runs_on_the_loop(self, served):
        service, handle, conn, threads = served
        jobs = []
        submit = handle.server._executor.submit

        def counted(*args, **kwargs):
            jobs.append(args)
            return submit(*args, **kwargs)

        service.obs.slow_query_ms = 0.0  # log every request
        # the first run compiles, so only the second is timed alone
        cold = _post(conn, _answer_body(chain_cq("RS"), trace=True))
        timed = _post(conn, _answer_body(chain_cq("RS", prefix="m_"),
                                         trace=True))
        handle.server._executor.submit = counted
        warm = _post(conn, _answer_body(chain_cq("RS", prefix="w_"),
                                        trace=True))
        handle.server._executor.submit = submit
        assert cold[0] == timed[0] == warm[0] == 200
        assert [_route(body) for _, body in (cold, timed, warm)] == [
            "batch", "batch", "inline"]
        assert warm[1]["answers"] == cold[1]["answers"]
        assert not warm[1]["coalesced"] and warm[1]["cached_rewriting"]
        assert LOOP_THREAD not in threads[:2]
        assert threads[2:] == [LOOP_THREAD]
        assert jobs == []
        # the execution's spans land on the inline request's own trace
        assert "execute" in [span["name"]
                             for span in warm[1]["trace"]["spans"]]
        # counted as a batch of one, so batches still cover every answer
        with Client.connect(handle.url) as client:
            serving = client.stats()["async_serving"]
        assert (serving["batches"], serving["batched_requests"],
                serving["coalesced"]) == (3, 3, 0)
        # the route reaches the slow-query log (it is written once the
        # reply is out, so it can trail the client's read by a beat)
        deadline = time.perf_counter() + 10.0
        routes = []
        while len(routes) < 3 and time.perf_counter() < deadline:
            routes = [entry.get("answer_route")
                      for entry in service.obs.slow_query_log()
                      if entry["route"] == "/answer"]
            time.sleep(0.005)
        service.obs.slow_query_ms = None
        assert routes == ["batch", "batch", "inline"]

    def test_another_dataset_builds_its_session_on_the_pool(self, served):
        """The plan cache is not keyed by dataset: a plan warm on one
        dataset must not build another's session, completion and
        backend on the loop; once that first run has been timed, the
        next one may run there."""
        service, _, conn, threads = served
        for prefix in ("a_", "b_", "c_"):
            assert _post(conn, _answer_body(chain_cq("RS", prefix=prefix)))[
                0] == 200
        assert threads[2] == LOOP_THREAD
        assert service.stats()["datasets"]["other"]["sessions"] == {}
        routes = [_route(_post(conn, _answer_body(
            chain_cq("RS", prefix=prefix), dataset="other", trace=True))[1])
            for prefix in ("d_", "e_")]
        assert routes == ["batch", "inline"]
        assert threads[3] != LOOP_THREAD and threads[4] == LOOP_THREAD
        assert service.stats()["datasets"]["other"]["sessions"] == {
            "python": 1}

    def test_a_replaced_dataset_builds_its_session_on_the_pool(self, served):
        """Replaced in process, a dataset keeps its coalescing epoch
        (only HTTP calls bump it) but loses its sessions: the session
        probe, not the timing, keeps the rebuild off the loop."""
        service, _, conn, threads = served
        for prefix in ("a_", "b_", "c_"):
            assert _post(conn, _answer_body(chain_cq("RS", prefix=prefix)))[
                0] == 200
        service.register_dataset("demo", _fresh_data(), replace=True)
        status, body = _post(conn, _answer_body(
            chain_cq("RS", prefix="d_"), trace=True))
        assert status == 200 and _route(body) == "batch"
        assert threads[2] == LOOP_THREAD and threads[3] != LOOP_THREAD

    def test_a_long_answer_stays_on_the_pool(self, served):
        _, handle, conn, threads = served
        handle.server.INLINE_SECONDS = 0.0  # every run measures longer
        routes = [_route(_post(conn, _answer_body(
            chain_cq("RS", prefix=prefix), trace=True))[1])
            for prefix in ("a_", "b_", "c_", "d_")]
        assert routes == ["batch"] * 4
        assert LOOP_THREAD not in threads

    def test_a_cold_plan_compiles_on_the_pool(self, served, monkeypatch):
        _, _, conn, threads = served
        plan = importlib.import_module("repro.rewriting.plan")
        compiled, compile_ = [], plan._compile

        def noted(*args):
            compiled.append(threading.current_thread().name)
            return compile_(*args)

        monkeypatch.setattr(plan, "_compile", noted)
        status, body = _post(conn, _answer_body(chain_cq("RSR"), trace=True))
        assert status == 200 and _route(body) == "batch"
        assert compiled and LOOP_THREAD not in compiled + threads

    def test_an_answer_beside_an_update_waits_on_the_pool(self, served):
        """``/update`` carries no admission cost, so only the pool-call
        count sees it: an answer sent while it runs must not read on
        the loop (it would wait there behind the write lock)."""
        service, handle, conn, threads = served
        omq = OMQ(TBOX, chain_cq("RS"))
        for _ in range(2):  # compile, then time the plan alone
            assert _post(conn, _answer_body(omq.query))[0] == 200
        patching, answering = threading.Event(), threading.Event()
        dataset = service._dataset("demo")
        patch, answer_batch = dataset._patch, service.answer_batch

        def held(update):
            patching.set()
            assert answering.wait(timeout=30), "no answer arrived"
            return patch(update)

        def noted(requests):
            answering.set()
            return answer_batch(requests)

        dataset._patch, service.answer_batch = held, noted
        with Client.connect(handle.url) as client:
            updating = threading.Thread(target=client.update, args=("demo",),
                                        kwargs={"inserts": [
                                            ("R", ("zz1", "zz2")),
                                            ("S", ("zz2", "zz3"))]})
            updating.start()
            try:
                assert patching.wait(timeout=30)
                status, body = _post(conn, _answer_body(omq.query,
                                                        trace=True))
            finally:
                answering.set()
                updating.join(timeout=30)
        assert status == 200 and _route(body) == "batch"
        assert threads[-1] != LOOP_THREAD
        assert ["zz1", "zz3"] in body["answers"]

    def test_the_pool_call_count_alone_sees_an_update(self):
        """Driven through ``_dispatch`` on the server's own loop, no
        HTTP count is kept: the count of calls on the pool must still
        keep the answer off the loop while an update runs there."""
        service = OMQService(max_workers=2)
        service.register_dataset("demo", _fresh_data())
        dataset = service._dataset("demo")
        patching, answering = threading.Event(), threading.Event()
        patch, answer_batch = dataset._patch, service.answer_batch

        def held(update):
            patching.set()
            assert answering.wait(timeout=30), "no answer arrived"
            return patch(update)

        def noted(requests):
            answering.set()
            return answer_batch(requests)

        body = _answer_body(chain_cq("RS"))
        update = json.dumps({"dataset": "demo",
                             "insert": ["R(zz1,zz2)", "S(zz2,zz3)"]})

        async def main():
            server = AsyncServiceServer(service, port=0)
            await server.start()
            try:
                for _ in range(2):  # compile, then time the plan alone
                    await server._dispatch("POST", "/answer", body)
                dataset._patch, service.answer_batch = held, noted
                updating = asyncio.ensure_future(server._dispatch(
                    "POST", "/update", update.encode()))
                await asyncio.to_thread(patching.wait, 30)
                trace = Trace()
                with tracing(trace):
                    _, answered = await server._dispatch(
                        "POST", "/answer", body, {}, trace)
                await updating
                return trace.annotations["answer_route"], answered
            finally:
                answering.set()
                await server.stop()

        try:
            route, answered = asyncio.run(main())
        finally:
            service.close()
        assert route == "batch"
        assert ["zz1", "zz3"] in answered["answers"]

    def test_twins_on_the_wire_coalesce(self, served):
        """Twins whose handlers wake in the same loop turn all register
        before any of them decides: one leader goes to the pool, the
        rest join it, and every one of them is answered."""
        _, handle, _, _ = served
        conns = [http.client.HTTPConnection(*handle.address, timeout=30)
                 for _ in range(6)]
        held, release = threading.Event(), threading.Event()

        def hold():  # keeps the loop from reading while the twins go out
            held.set()
            release.wait(timeout=30)

        try:
            for index, conn in enumerate(conns):  # open them, warm the plan
                body = _answer_body(chain_cq("RS", prefix=f"o{index}_"))
                assert _post(conn, body)[0] == 200
            handle._loop.call_soon_threadsafe(hold)
            assert held.wait(timeout=30)
            for index, conn in enumerate(conns):
                conn.request("POST", "/answer", body=_answer_body(
                    chain_cq("RS", prefix=f"t{index}_"), trace=True),
                    headers={"Content-Type": "application/json"})
            release.set()
            replies = []
            for conn in conns:
                reply = conn.getresponse()
                replies.append((reply.status, json.loads(reply.read())))
        finally:
            release.set()
            for conn in conns:
                conn.close()
        assert [status for status, _ in replies] == [200] * len(conns)
        assert sorted(_route(body) for _, body in replies) == (
            ["batch"] + ["coalesced"] * (len(conns) - 1))
        assert len({json.dumps(body["answers"]) for _, body in replies}) == 1

    def test_an_inline_failure_answers_like_the_pool(self, served):
        service, _, conn, threads = served
        good = _answer_body(chain_cq("RS"))
        for _ in range(2):  # compile, then time the plan alone
            assert _post(conn, good)[0] == 200
        answer_locked = service._answer_locked

        def failing(*args):
            raise ValueError("the engine refused")

        service._answer_locked = failing
        wire = conn.sock
        inline = _post(conn, good)
        service._answer_locked = answer_locked
        after = _post(conn, good)
        assert conn.sock is wire  # the same kept-alive connection
        service.cache.clear()  # a cold plan: the same request, pooled
        service._answer_locked = failing
        pooled = _post(conn, good)
        service._answer_locked = answer_locked
        assert threads[2:4] == [LOOP_THREAD] * 2
        assert threads[4] != LOOP_THREAD
        for _, body in (inline, pooled):
            body.pop("trace_id")
        assert inline == pooled
        assert inline[0] == 400 and "the engine refused" in inline[1]["error"]
        assert after[0] == 200

    def test_an_unknown_dataset_answers_on_the_pool(self, served):
        _, _, conn, threads = served
        assert _post(conn, _answer_body(chain_cq("RS")))[0] == 200
        status, body = _post(conn, _answer_body(chain_cq("RS"),
                                                dataset="typo", trace=True))
        assert status == 400 and "unknown dataset" in body["error"]
        assert LOOP_THREAD not in threads

    def test_one_plan_key_per_cached_answer(self, served, monkeypatch):
        """The server computes a cached ``/answer``'s plan-cache key
        once, to coalesce, and hands it down: the batch, the
        cached-plan probe and the compile reuse it on either route; an
        embedded answer computes it once too."""
        service, _, conn, _ = served
        keys, key = [], RewritingCache.key

        def counted(cache, omq, options):
            keys.append(omq.query)
            return key(cache, omq, options)

        assert _post(conn, _answer_body(chain_cq("RS")))[0] == 200  # compiles
        monkeypatch.setattr(RewritingCache, "key", counted)
        seen = []
        for prefix in ("a_", "b_"):
            status, body = _post(conn, _answer_body(
                chain_cq("RS", prefix=prefix), trace=True))
            assert status == 200 and body["cached_rewriting"]
            seen.append((_route(body), len(keys)))
        assert seen == [("batch", 1), ("inline", 2)]
        assert service.answer("demo", OMQ(TBOX, chain_cq("RS", prefix="c_"))
                              ).cached_rewriting
        assert len(keys) == 3
