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
import json
import logging
import socket
import threading

import pytest

from repro import OMQ, AsyncClient, Client, ServiceError
from repro.client import cq_to_text, tbox_to_text
from repro.queries import CQ, chain_cq
from repro.service import OMQService, serve_in_background
from repro.service.aserve import MAX_HEADERS, AsyncServiceServer
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
