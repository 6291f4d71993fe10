"""Tests for the unified :class:`repro.Client` facade: the embedded
and HTTP transports must expose one surface and agree on answers."""

import asyncio
import gc
import http.client
import json
import socket
import sys
import threading
import warnings

import pytest

from repro import (
    ABox,
    AsyncClient,
    Client,
    OMQ,
    ServiceError,
    answer,
    chain_cq,
)
from repro.client import (
    _POOL_SIZE,
    _omq_payload,
    abox_to_text,
    cq_to_text,
    tbox_to_text,
)
from repro.queries import CQ
from repro.rewriting.plan import ROWS_TYPE, Answers
from repro.service import OMQService, serve_in_background
from repro.service.aserve import BackgroundAsyncServer
from repro.service.cache import tbox_fingerprint
from repro.store import TenantQuota

from .helpers import example11_tbox, random_data


@pytest.fixture
def abox():
    return random_data(9, individuals=8, atoms=30)


@pytest.fixture
def omq():
    return OMQ(example11_tbox(), chain_cq("RSR"))


@pytest.fixture
def http_client():
    service = OMQService(max_workers=2)
    with serve_in_background(service) as handle, \
            Client.connect(handle.url) as client:
        yield client
    service.close()


# -- serialisation helpers --------------------------------------------------


class TestSerialisation:
    def test_tbox_round_trip(self):
        from repro.ontology import TBox

        tbox = example11_tbox()
        reparsed = TBox.parse(tbox_to_text(tbox))
        assert tbox_fingerprint(reparsed) == tbox_fingerprint(tbox)

    def test_cq_round_trip(self):
        from repro.fingerprint import cq_fingerprint

        cq = CQ.parse("R(x,y), S(y,z), A(x)", answer_vars=["x"])
        reparsed = CQ.parse(cq_to_text(cq), answer_vars=["x"])
        assert cq_fingerprint(reparsed) == cq_fingerprint(cq)

    def test_abox_round_trip(self, abox):
        reparsed = ABox.parse(abox_to_text(abox))
        assert set(reparsed.atoms()) == set(abox.atoms())


# -- one surface, two transports --------------------------------------------


class TestLocalClient:
    def test_answer_matches_one_shot(self, abox, omq):
        with Client.local() as client:
            client.register_dataset("demo", ABox(abox.atoms()))
            got = client.answer("demo", omq, method="tw")
        assert got.answers == answer(omq, abox, method="tw").answers
        assert got.method == "tw"

    def test_wrap_borrows_service(self, abox, omq):
        with OMQService() as service:
            service.register_dataset("demo", ABox(abox.atoms()))
            client = Client.wrap(service)
            expected = service.answer("demo", omq).answers
            assert client.answer("demo", omq).answers == expected
            client.close()
            # borrowed service still alive after the client closes
            assert service.answer("demo", omq).answers == expected

    def test_explain_and_update(self, abox, omq):
        with Client.local() as client:
            client.register_dataset("demo", ABox(abox.atoms()))
            report = client.explain(omq, method="lin")
            assert report["method"] == "lin" and report["rules"] > 0
            before = client.answer("demo", omq).answers
            client.insert_facts("demo", [("R", ("zz1", "zz2")),
                                         ("S", ("zz2", "zz3"))])
            after = client.answer("demo", omq).answers
            assert before <= after
            assert "demo" in client.datasets()
            assert client.stats()["requests"] == 2


class TestHTTPClient:
    def test_answer_matches_local(self, http_client, abox, omq):
        http_client.register_dataset("demo", abox)
        got = http_client.answer("demo", omq, method="tw", engine="sql")
        assert got.answers == answer(omq, abox, method="tw").answers
        assert got.engine == "sql"
        assert got.plan_fingerprint  # provenance survives the wire

    def test_explain_over_http(self, http_client, omq):
        report = http_client.explain(omq, method="log")
        assert report["method"] == "log"
        assert report["rules"] > 0

    def test_update_and_stats(self, http_client, abox, omq):
        http_client.register_dataset("demo", abox)
        before = http_client.answer("demo", omq).answers
        http_client.insert_facts("demo", [("R", ("w1", "w2")),
                                          ("S", ("w2", "w3"))])
        after = http_client.answer("demo", omq).answers
        assert before <= after
        assert "demo" in http_client.datasets()
        assert http_client.stats()["requests"] == 2

    def test_error_surfaces_as_value_error(self, http_client, omq):
        with pytest.raises(ValueError, match="unknown dataset"):
            http_client.answer("missing", omq)

    def test_timed_out_survives_the_wire(self, http_client, abox, omq):
        http_client.register_dataset("demo", abox)
        got = http_client.answer("demo", omq, timeout=0.0)
        assert got.timed_out
        assert not http_client.answer("demo", omq).timed_out

    def test_same_surface_same_answers(self, http_client, abox, omq):
        http_client.register_dataset("demo", abox)
        with Client.local() as local:
            local.register_dataset("demo", ABox(abox.atoms()))
            for options in ({"method": "lin"}, {"method": "tw_star"},
                            {"method": "log", "over": "arbitrary"}):
                assert (http_client.answer("demo", omq, options).answers
                        == local.answer("demo", omq, options).answers)


class TestDatasetDrop:
    def test_local_unregister(self):
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        with Client.local() as client:
            client.register_dataset("d", ABox([("R", ("a", "b")),
                                               ("S", ("b", "c"))]))
            assert ("a", "c") in client.answer("d", omq).answers
            client.unregister_dataset("d")
            try:
                client.answer("d", omq)
                raise AssertionError("dropped dataset must be unknown")
            except (KeyError, ValueError) as error:
                assert "d" in str(error)

    def test_http_unregister(self):
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        with OMQService() as service:
            with serve_in_background(service) as server:
                with Client.connect(server.url) as client:
                    client.register_dataset(
                        "d", ABox([("R", ("a", "b")), ("S", ("b", "c"))]))
                    assert ("a", "c") in client.answer("d", omq).answers
                    client.unregister_dataset("d")
                    assert "d" not in service.datasets()
                    try:
                        client.unregister_dataset("d")
                        raise AssertionError("double drop must 404")
                    except Exception as error:
                        assert "unknown dataset" in str(error)


# -- the keep-alive pool (both HTTP clients, both servers) ------------------


class _Stack:
    """The server over a fresh service, counting the connections it
    accepts; ``port`` restarts one on a known port."""

    def __init__(self, port=0, **service_kwargs):
        self.service = OMQService(max_workers=2, **service_kwargs)
        self.accepted = 0
        self.handle = BackgroundAsyncServer(self.service, port=port)
        serve = self.handle.server._handle_connection

        async def counted(reader, writer):
            self.accepted += 1
            await serve(reader, writer)

        self.handle.server._handle_connection = counted
        self.handle.start()
        self.port = self.handle.address[1]
        self.url = f"http://127.0.0.1:{self.port}"

    def parked_polls(self) -> int:
        return self.handle.server._active_polls

    def stop(self) -> None:
        self.handle.stop()
        self.service.close()


class _Blocking:
    """The blocking transport, driven from a coroutine on threads."""

    def __init__(self, url, **kwargs):
        self.client = Client.connect(url, **kwargs)
        self.core = self.client._transport

    async def call(self, verb, *args, **kwargs):
        return await asyncio.to_thread(getattr(self.core, verb),
                                       *args, **kwargs)

    async def close(self):
        self.client.close()


class _Asyncio:
    def __init__(self, url, **kwargs):
        self.core = AsyncClient.connect(url, **kwargs)

    async def call(self, verb, *args, **kwargs):
        return await getattr(self.core, verb)(*args, **kwargs)

    async def close(self):
        await self.core.close()


@pytest.fixture(params=[_Blocking, _Asyncio])
def driver(request):
    """Either HTTP client behind one awaitable ``call(verb, ...)``: the
    verbs (and ``_call``) are the shared wire core's, so one scenario
    holds both clients to the same behaviour."""
    return request.param


async def _until(condition, what: str) -> None:
    for _ in range(2000):
        if condition():
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"timed out waiting for {what}")


class TestConnectionPool:
    def test_update_passes_a_parked_poll(self, driver, abox, omq):
        stack = _Stack()
        stack.service.register_dataset("demo", abox)
        sub = stack.service.subscribe("demo", omq)

        async def scenario():
            client = driver(stack.url)
            try:
                parked = asyncio.ensure_future(client.call(
                    "poll", sub.subscription_id, sub.epoch, 5.0))
                await _until(lambda: stack.parked_polls() == 1,
                             "the poll to park")
                # same client, while its poll holds a connection
                done = await client.call(
                    "update", "demo", [("R", ("n1", "n2")),
                                       ("S", ("n2", "n3")),
                                       ("R", ("n3", "n4"))])
                body = await parked
                return done, body
            finally:
                await client.close()

        try:
            done, body = asyncio.run(scenario())
        finally:
            stack.stop()
        # the poll was released by the update, not by its timeout
        assert done["epoch"] == 1
        assert [delta["epoch"] for delta in body["deltas"]] == [1]
        assert stack.accepted == 2

    def test_restart_gets_a_fresh_connection_nothing_sent_twice(
            self, driver, abox, omq):
        def registered(stack, _result):
            assert stack.service.datasets() == ("demo",)

        def updated(stack, result):
            assert result["epoch"] == 1
            stats = stack.service.stats()["datasets"]["demo"]
            assert (stats["epoch"], stats["updates"]) == (1, 1)

        def subscribed(stack, _result):
            standing = stack.service.stats()["standing"]
            assert standing["subscribed_total"] == 1

        steps = (
            ("register_dataset", ("demo", abox), False, registered),
            ("update", ("demo", [("R", ("n1", "n2"))]), True, updated),
            ("subscribe", ("demo", omq), True, subscribed),
        )

        async def scenario():
            stack = await asyncio.to_thread(_Stack)
            client = driver(stack.url)
            try:
                for verb, args, preload, check in steps:
                    # pool a connection to the server about to go away
                    await client.call("stats")
                    assert len(client.core._idle) == 1
                    await asyncio.to_thread(stack.stop)
                    stack = await asyncio.to_thread(_Stack, stack.port)
                    if preload:
                        stack.service.register_dataset("demo", abox)
                    result = await client.call(verb, *args)
                    assert stack.accepted == 1
                    check(stack, result)
            finally:
                await client.close()
                await asyncio.to_thread(stack.stop)

        asyncio.run(scenario())

    def test_rejections_leave_the_socket_reusable(self, driver):
        stack = _Stack(quota=TenantQuota(rate_limit=0.001, rate_burst=2))

        async def scenario():
            client = driver(stack.url, tenant="t")
            try:
                statuses = []
                for path in ("/nope", "/answer", "/answer"):
                    with pytest.raises(ServiceError) as excinfo:
                        await client.call("_call", path, {"query": 1})
                    statuses.append(excinfo.value.status)
                    assert len(client.core._idle) == 1
                assert excinfo.value.retry_after > 0  # the 429's header
                return statuses, await client.call("stats")
            finally:
                await client.close()

        try:
            statuses, stats = asyncio.run(scenario())
        finally:
            stack.stop()
        assert statuses == [404, 400, 429]  # the bucket held two tokens
        assert "datasets" in stats
        assert stack.accepted == 1

    def test_close_closes_every_socket(self, driver):
        stack = _Stack()

        async def scenario():
            client = driver(stack.url)
            await asyncio.gather(*[client.call("stats")
                                   for _ in range(6)])
            pooled = list(client.core._idle)
            await client.close()
            return pooled, client.core._idle

        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                pooled, idle = asyncio.run(scenario())
                gc.collect()
        finally:
            stack.stop()
        assert 1 <= len(pooled) <= _POOL_SIZE and idle == []
        assert all(sock.fileno() == -1 for sock in pooled)
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_async_client_serves_successive_event_loops(self):
        stack = _Stack()
        client = AsyncClient.connect(stack.url)
        try:
            first = asyncio.run(client.stats())
            second = asyncio.run(client.stats())  # a new loop
            asyncio.run(client.close())
        finally:
            stack.stop()
        assert "datasets" in first and "datasets" in second
        assert client._idle == []

    def test_threads_share_one_client(self, abox, omq):
        stack = _Stack()
        stack.service.register_dataset("demo", abox)
        expected = answer(omq, abox).answers
        outcomes = []

        def caller(client):
            for _ in range(25):
                outcomes.append(
                    client.answer("demo", omq).answers == expected)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Client.connect(stack.url) as client:
                threads = [threading.Thread(target=caller, args=(client,))
                           for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(client._transport._idle) <= _POOL_SIZE
        finally:
            sys.setswitchinterval(interval)
            stack.stop()
        # every call got its own (right) response: none lost, none
        # crossed with another thread's on a shared connection
        assert outcomes == [True] * (6 * 25)
        # ...and connections were reused.  Not ``<= 6``: six threads
        # share a 4-socket idle pool, and ``_checkin`` closes a socket
        # that comes back to a full pool by design, so a thread that
        # next finds the pool empty dials again — how often is up to
        # the scheduler.  What the pool guarantees: a dial needs it
        # empty and a close needs it full, so between the two each of
        # its sockets served a call — at most the two surplus threads
        # dial per four pooled calls, on top of one dial per thread
        surplus = 6 - _POOL_SIZE
        assert stack.accepted <= 6 + surplus * (6 * 25) // _POOL_SIZE


class _OneShotServer:
    """A scripted raw server: reads one request per connection, writes
    ``reply`` (if any) and closes — the server behaviours the real
    ones never show."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.accepted = 0
        self.requests = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # closed
            self.accepted += 1
            with conn:
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(65536)
                self.requests += 1
                conn.sendall(self.reply)

    def close(self) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the accept
        self._listener.close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


class TestNeverReusedNeverResent:
    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
        b"Connection: close\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\n\r\n{}",  # unframed: runs to end of stream
    ], ids=["connection-close", "no-content-length"])
    def test_spent_connections_are_not_pooled(self, driver, reply):
        server = _OneShotServer(reply)

        async def scenario():
            client = driver(server.url)
            try:
                bodies = [await client.call("stats") for _ in range(2)]
                return bodies, list(client.core._idle)
            finally:
                await client.close()

        try:
            bodies, idle = asyncio.run(scenario())
        finally:
            server.close()
        assert bodies == [{}, {}] and idle == []
        assert server.accepted == 2

    def test_a_dropped_request_is_not_sent_again(self, driver):
        # the server takes the update and dies before replying: the
        # client cannot know whether it was applied, so it must raise
        server = _OneShotServer(b"")

        async def scenario():
            client = driver(server.url)
            try:
                with pytest.raises(ConnectionError):
                    await client.call("update", "demo",
                                      [("R", ("a", "b"))])
                return list(client.core._idle)
            finally:
                await client.close()

        try:
            idle = asyncio.run(scenario())
        finally:
            server.close()
        assert idle == []
        assert (server.accepted, server.requests) == (1, 1)


# -- the coded /answer body -------------------------------------------------

_ROWS = frozenset({("a", "b"), ("c", "a"), ("b", "b")})
_GOOD = Answers(_ROWS).wire()
_HEAD = 4 + int.from_bytes(_GOOD[:4], "big")


def _rows_reply(body: bytes) -> bytes:
    """A framed keep-alive 200 carrying ``body`` as the coded type."""
    return (b"HTTP/1.1 200 OK\r\nContent-Type: " + ROWS_TYPE.encode()
            + b"\r\nContent-Length: %d\r\n\r\n" % len(body) + body)


def _reheaded(**fields) -> bytes:
    """``_GOOD`` with some header fields replaced and the same cells."""
    head = json.dumps({**json.loads(_GOOD[4:_HEAD]), **fields}).encode()
    return len(head).to_bytes(4, "big") + head + _GOOD[_HEAD:]


class TestCodedAnswerBody:
    @pytest.mark.parametrize("body", [
        _GOOD[:-6],
        _GOOD[:_HEAD - 3],
        (len(_GOOD)).to_bytes(4, "big") + _GOOD[4:],
        _GOOD[:-4] + (3).to_bytes(4, "little"),  # 3 constants: ids 0-2
        _GOOD + bytes(4),
        _GOOD[:-4],
        _reheaded(constants="abc"),  # the ids would pick its characters
        _reheaded(constants=[0, 1, 2]),
    ], ids=["truncated-cells", "truncated-header", "header-past-end",
            "id-past-constants", "extra-cell", "missing-cell",
            "constants-a-string", "constants-not-strings"])
    def test_damaged_body_is_a_structured_error(self, driver, omq, body):
        """A body that does not decode is a ``bad_response`` error, its
        connection leaves the pool, and no rows come back at all; the
        intact body over the same framing is an answer and pooled."""
        assert len(json.loads(_GOOD[4:_HEAD])["constants"]) == 3
        outcomes = []
        for reply in (_GOOD, body):
            server = _OneShotServer(_rows_reply(reply))

            async def scenario():
                client = driver(server.url)
                try:
                    try:
                        got = await client.call("answer", "demo", omq)
                    except ServiceError as error:
                        got = error
                    return got, list(client.core._idle)
                finally:
                    await client.close()

            try:
                outcomes.append(asyncio.run(scenario()))
            finally:
                server.close()
        (good, good_idle), (bad, bad_idle) = outcomes
        assert good.answers == _ROWS and len(good_idle) == 1
        assert isinstance(bad, ServiceError), bad
        assert (bad.status, bad.error_type) == (502, "bad_response")
        assert bad_idle == []

    def test_errors_stay_json_when_coded_is_accepted(self, http_client, omq):
        """``Accept`` picks the body of an answer, never of an error."""
        split = http_client._transport
        wire = http.client.HTTPConnection(split.host, split.port, timeout=30)
        try:
            wire.request("POST", "/answer",
                         body=json.dumps(_omq_payload("nope", omq, None)),
                         headers={"Accept": ROWS_TYPE})
            reply = wire.getresponse()
            body = json.loads(reply.read())
        finally:
            wire.close()
        assert reply.status == 400
        assert reply.getheader("Content-Type") == "application/json"
        assert body["error_type"] == "bad_request"
        with pytest.raises(ServiceError) as raised:
            http_client.answer("nope", omq)
        assert raised.value.error_type == "bad_request"

    @pytest.mark.parametrize("accept, content_type", [
        (f"{ROWS_TYPE}, application/json", ROWS_TYPE),
        (f"application/json;q=0.9, {ROWS_TYPE} ; Q=0.5", ROWS_TYPE),
        (f"{ROWS_TYPE};q=0", "application/json"),
        (f"{ROWS_TYPE};q=0.000, application/json", "application/json"),
        (f"{ROWS_TYPE}-v2", "application/json"),
        ("*/*", "application/json"),
    ])
    def test_accept_names_the_coded_type_exactly(self, http_client, abox,
                                                 omq, accept, content_type):
        """Only an ``Accept`` that names the coded type itself, and
        does not refuse it with ``q=0``, gets it; both bodies carry the
        same rows."""
        http_client.register_dataset("demo", abox)
        split = http_client._transport
        wire = http.client.HTTPConnection(split.host, split.port, timeout=30)
        try:
            wire.request("POST", "/answer",
                         body=json.dumps(_omq_payload("demo", omq, None)),
                         headers={"Accept": accept})
            reply = wire.getresponse()
            raw = reply.read()
        finally:
            wire.close()
        assert reply.status == 200
        assert reply.getheader("Content-Type") == content_type
        got = (Answers.from_wire(raw) if content_type == ROWS_TYPE
               else Answers.from_payload(json.loads(raw)))
        assert got.answers == answer(omq, abox).answers
