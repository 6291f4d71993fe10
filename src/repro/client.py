"""One client facade over every way to run the query pipeline.

The library grew three front doors — an in-process
:class:`~repro.service.service.OMQService`, the JSON/HTTP server of
:mod:`repro.service.serve`, and bare sessions — each with its own call
shape.  :class:`Client` unifies them behind one surface: the same
``answer`` / ``explain`` / ``update`` / ``stats`` calls work whether
the data lives in this process or behind a URL, always configured by
one :class:`~repro.rewriting.plan.AnswerOptions` and always returning
typed :class:`~repro.rewriting.plan.Answers`.

Usage::

    with Client.local() as client:                  # embedded service
        client.register_dataset("demo", abox)
        client.answer("demo", omq, method="lin")
        client.explain(omq, method="lin")

    with Client.connect("http://host:8080") as client:   # remote
        client.answer("demo", omq)                  # same surface

``Client.wrap(service)`` borrows an existing service (not closed with
the client).  :class:`AsyncClient` has the same verbs for asyncio
code, over HTTP; a blocking ``Client`` call made from a coroutine
belongs on a thread (``asyncio.to_thread(client.answer, ...)``).

The verbs are written once (:class:`_Verbs`): each builds its route's
request type (:data:`~repro.service.protocol.ENDPOINTS`) and hands it
to ``call(verb, request)``.  In process, the route's
:class:`OMQService` callable gets the request as it is — no JSON, no
text; over HTTP, ``request.payload()`` travels in the
``TBox.parse`` / ``CQ.parse`` / ``ABox.parse`` syntax the CLI uses.
Both HTTP clients share one wire core (:class:`_HTTPCore`): a small
pool of keep-alive connections, an idle one probed before reuse, and
no request ever sent twice — a connection that fails mid-call surfaces
the error instead of a resend, so no update can be applied twice.  One
``Client`` may be shared by threads; a parked ``Subscription.poll``
holds its own connection.  Server rejections surface as
:class:`ServiceError` (a ``ValueError`` carrying the HTTP status, the
server's ``error_type`` tag and, for a 429, ``retry_after`` seconds).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import socket
import threading
from typing import Dict, Iterable, List, Optional, Tuple
from urllib.parse import urlsplit

from .data.abox import ABox, GroundAtom
from .obs.trace import Trace, current_trace_id, tracing
from .ontology.tbox import TBox
from .rewriting.api import OMQ
from .rewriting.plan import ROWS_TYPE, AnswerOptions, Answers
from .service.protocol import (
    PARKED,
    TRACE_HEADER,
    VERBS,
    BatchRequest,
    DropDataset,
    Explain,
    Poll,
    RegisterDataset,
    RegisterTBox,
    Unsubscribe,
    Update,
    abox_to_text,
    cq_to_text,
    tbox_to_text,
)
from .standing.registry import AnswerDelta
from .store.tenants import TenantManager

__all__ = ["AsyncClient", "AsyncSubscription", "Client", "ServiceError",
           "Subscription", "abox_to_text", "cq_to_text", "tbox_to_text"]


class ServiceError(ValueError):
    """A request the server rejected, carrying the HTTP ``status``,
    the server's ``error_type`` tag and (for 429 backpressure
    rejections) the suggested ``retry_after`` seconds.

    Subclasses :class:`ValueError` so existing callers that catch
    that keep working.
    """

    def __init__(self, message: str, status: int = 400,
                 error_type: str = "bad_request",
                 retry_after: Optional[float] = None,
                 trace_id: Optional[str] = None):
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.retry_after = retry_after
        #: The server-assigned request trace ID (from the error body or
        #: the echoed ``X-Repro-Trace-Id`` header) — quote it when
        #: reporting a failed request so the server side can find it.
        self.trace_id = trace_id

    @classmethod
    def from_body(cls, status: int, body, headers=None) -> "ServiceError":
        """Build from a decoded error body (``{"error": ...,
        "error_type": ...}``) plus response headers."""
        if not isinstance(body, dict):
            body = {}
        retry_after: Optional[float] = None
        raw = body.get("retry_after")
        if raw is None and headers is not None:
            raw = headers.get("Retry-After")
        if raw is not None:
            try:
                retry_after = float(raw)
            except (TypeError, ValueError):
                retry_after = None
        trace_id = body.get("trace_id")
        if trace_id is None and headers is not None:
            trace_id = headers.get(TRACE_HEADER)
        return cls(str(body.get("error") or f"HTTP {status}"),
                   status=status,
                   error_type=str(body.get("error_type") or "error"),
                   retry_after=retry_after,
                   trace_id=str(trace_id) if trace_id else None)


def _omq_payload(dataset: Optional[str], omq: OMQ, options,
                 **overrides) -> Dict[str, object]:
    """One wire-format answer request body."""
    return BatchRequest(dataset, omq,
                        AnswerOptions.coerce(options, **overrides)).payload()


class Subscription:
    """A blocking standing-query handle (see :mod:`repro.standing`).

    Created by :meth:`Client.subscribe`; tracks the maintained answer
    set and the epoch watermark locally, advanced by applying deltas.
    :meth:`poll` long-polls the service for deltas newer than the
    watermark and applies them::

        sub = client.subscribe("demo", omq)
        client.update("demo", inserts=[("R", ("a", "b"))])
        for delta in sub.poll(timeout=5.0):
            print(delta.added, delta.removed)
        sub.unsubscribe()
    """

    def __init__(self, client, snapshot: Dict[str, object]):
        self._client = client
        self.subscription_id = str(snapshot["subscription"])
        self.dataset = str(snapshot["dataset"])
        self.epoch = int(snapshot.get("epoch", 0))
        self.answers = frozenset(tuple(row)
                                 for row in snapshot.get("answers", ()))
        self.closed = False

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.subscription_id!r}, "
                f"dataset={self.dataset!r}, epoch={self.epoch}, "
                f"answers={len(self.answers)})")

    def poll(self, timeout: float = 0.0) -> List[AnswerDelta]:
        """Deltas since the last seen epoch (blocking up to
        ``timeout`` seconds for one), applied to :attr:`answers`."""
        return self._client.call(
            "poll", Poll(self.subscription_id, self.epoch, timeout),
            self._apply_poll)

    def unsubscribe(self) -> None:
        if not self.closed:
            self.closed = True
            self._client.unsubscribe(self.subscription_id)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.unsubscribe()
        except Exception:
            pass  # server gone or subscription already dropped

    def _apply_delta(self, delta: AnswerDelta) -> bool:
        """Advance the local state by one delta; ``False`` means the
        delta was already reflected (e.g. by a concurrent poll from
        the same watermark) and should not be surfaced."""
        if delta.resync:
            self.answers = delta.answers or frozenset()
            self.epoch = max(self.epoch, delta.epoch)
            return True
        if delta.epoch <= self.epoch:
            return False
        self.answers = (self.answers | delta.added) - delta.removed
        self.epoch = delta.epoch
        return True

    def _apply_poll(self, body: Dict[str, object]) -> List[AnswerDelta]:
        """Apply one ``/poll`` response; returns the surfaced deltas
        (a resync response becomes a single resync delta)."""
        applied: List[AnswerDelta] = []
        if body.get("resync"):
            delta = AnswerDelta.from_payload(body)
            if self._apply_delta(delta):
                applied.append(delta)
        for raw in body.get("deltas", ()):
            delta = AnswerDelta.from_payload(raw)
            if self._apply_delta(delta):
                applied.append(delta)
        return applied


class AsyncSubscription(Subscription):
    """The asyncio standing-query handle (see
    :meth:`AsyncClient.subscribe`): the awaitable twin of
    :class:`Subscription`, whose :meth:`poll` returns what its client's
    ``call`` does — here a coroutine."""

    async def unsubscribe(self) -> None:
        if not self.closed:
            self.closed = True
            await self._client.unsubscribe(self.subscription_id)


def _atoms(atoms: Iterable[GroundAtom]) -> Tuple[GroundAtom, ...]:
    return tuple((predicate, tuple(args)) for predicate, args in atoms)


class _Verbs:
    """The protocol's verbs, each written once: build the route's
    request type and hand it to ``call(verb, request, finish=None)``,
    which returns ``finish`` of the response (the response without
    one).

    :class:`Client` forwards ``call`` to its transport; the blocking
    transports return the value, so a verb returns what its annotation
    says; :class:`AsyncClient`'s ``call`` returns a coroutine, so the
    same verb returns an awaitable of it.
    """

    #: What :meth:`subscribe` wraps the snapshot in.
    _subscription = Subscription

    def register_dataset(self, name: str, abox: ABox,
                         replace: bool = False) -> Dict[str, object]:
        """Register a dataset (``replace`` swaps out one already
        registered under ``name``)."""
        return self.call("register_dataset",
                         RegisterDataset(name, abox, replace))

    def unregister_dataset(self, name: str) -> Dict[str, object]:
        """Drop a registered dataset (and its subscriptions)."""
        return self.call("unregister_dataset", DropDataset(name))

    def register_tbox(self, name: str, tbox: TBox) -> Dict[str, object]:
        return self.call("register_tbox", RegisterTBox(name, tbox))

    def datasets(self) -> Tuple[str, ...]:
        """This client's tenant's datasets, under its own names
        (``stats`` lists every tenant's scoped registry keys)."""
        return self.call("stats", None, lambda stats: tuple(sorted(
            name for owner, name in map(TenantManager.split,
                                        stats.get("datasets", {}))
            if owner == self.tenant)))

    def answer(self, dataset: str, omq: OMQ, options=None,
               trace: bool = False, **overrides) -> Answers:
        """Certain answers to ``omq`` over the named dataset.

        ``options`` / ``overrides`` build one
        :class:`~repro.rewriting.plan.AnswerOptions` (e.g.
        ``client.answer("demo", omq, method="tw", engine="sql")``).
        ``trace=True`` asks for the request's span breakdown, returned
        as ``Answers.trace`` (a nested name/seconds tree).
        """
        return self.call("answer", BatchRequest(
            dataset, omq, AnswerOptions.coerce(options, **overrides),
            trace=Trace(wanted=True) if trace else None))

    def explain(self, omq: OMQ, options=None, dataset: Optional[str] = None,
                **overrides) -> Dict[str, object]:
        """The :meth:`~repro.rewriting.plan.Plan.explain` report for
        ``omq`` under the given options, without evaluating it.

        With ``dataset`` the report also shows the program an answer
        over that dataset would run; ``method="adaptive"`` needs one.
        """
        return self.call("explain", Explain(
            dataset, omq, AnswerOptions.coerce(options, **overrides)))

    def update(self, dataset: str, inserts: Iterable[GroundAtom] = (),
               deletes: Iterable[GroundAtom] = ()) -> Dict[str, object]:
        """Incrementally mutate a dataset (deletions apply first)."""
        return self.call("update", Update(dataset, _atoms(inserts),
                                          _atoms(deletes)))

    def insert_facts(self, dataset: str,
                     atoms: Iterable[GroundAtom]) -> Dict[str, object]:
        return self.update(dataset, inserts=atoms)

    def delete_facts(self, dataset: str,
                     atoms: Iterable[GroundAtom]) -> Dict[str, object]:
        return self.update(dataset, deletes=atoms)

    def subscribe(self, dataset: str, omq: OMQ, options=None,
                  **overrides) -> Subscription:
        """Register ``omq`` as a standing query over the dataset.

        The returned :class:`Subscription` (an
        :class:`AsyncSubscription` from :class:`AsyncClient`) holds the
        initial answer set; each update the service applies maintains
        it incrementally, and its ``poll`` fetches the resulting
        deltas::

            sub = client.subscribe("demo", omq)
            for delta in sub.poll(timeout=5.0):
                print(delta.added, delta.removed)
        """
        request = BatchRequest(dataset, omq,
                               AnswerOptions.coerce(options, **overrides))
        return self.call("subscribe", request,
                         lambda snapshot: self._subscription(self, snapshot))

    def poll(self, subscription: str, since_epoch: Optional[int] = None,
             timeout: float = 0.0) -> Dict[str, object]:
        """One raw long-poll response (see :meth:`Subscription.poll`)."""
        return self.call("poll", Poll(subscription, since_epoch, timeout))

    def unsubscribe(self, subscription: str) -> Dict[str, object]:
        return self.call("unsubscribe", Unsubscribe(subscription))

    def stats(self) -> Dict[str, object]:
        return self.call("stats", None)


class _ServiceTransport:
    """The in-process transport: the endpoint table's callables on an
    ``OMQService``, the requests passed as they are.

    ``tenant`` scopes every call into that tenant's namespace (the
    default ``""`` keeps the historical single-tenant behaviour).
    """

    def __init__(self, service, owned: bool, tenant: str = ""):
        self.service = service
        self._owned = owned
        self.tenant = tenant

    def call(self, verb: str, request, finish=None):
        endpoint = VERBS[verb]
        trace = getattr(request, "trace", None)
        if trace is None:
            response = endpoint.call(self.service, request, self.tenant)
        else:
            # no HTTP layer here, so the client starts the trace itself
            # and harvests the span payload directly
            with tracing(trace):
                response = endpoint.call(self.service, request, self.tenant)
            response = dataclasses.replace(response, trace=trace.payload())
        return response if finish is None else finish(response)

    def close(self) -> None:
        if self._owned:
            self.service.close()


#: Idle keep-alive connections a client keeps for reuse.  More
#: concurrent callers than this each still get a connection of their
#: own; the surplus is closed after use instead of pooled.
_POOL_SIZE = 4


def _parse_head(head: bytes) -> Tuple[int, Dict[str, str]]:
    """Status and headers (names title-cased) of a response head."""
    lines = head.decode("latin-1").rstrip().split("\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ServiceError("malformed HTTP response from server",
                           status=502, error_type="bad_response")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().title()] = value.strip()
    return int(parts[1]), headers


def _fill(buffer: bytearray, complete):
    """Feed received chunks into ``buffer`` until ``complete(buffer)``."""
    while not complete(buffer):
        chunk = yield
        if not chunk:
            raise ConnectionError("server closed the connection "
                                  "before completing its response")
        buffer += chunk


def _read_response():
    """One response, parsed without doing I/O: a generator that is
    sent each received chunk (``b""`` at end of stream) and returns
    ``(status, headers, body, reusable)``.

    ``reusable`` says the connection may carry another request: the
    body was framed by ``Content-Length`` and read to exactly that
    length, and the server did not announce ``Connection: close``.
    """
    buffer = bytearray()
    yield from _fill(buffer, lambda data: b"\r\n\r\n" in data)
    head, _, buffer = buffer.partition(b"\r\n\r\n")
    status, headers = _parse_head(bytes(head))
    length = headers.get("Content-Length", "")
    if not length.isdigit():
        # unframed body: it runs to the end of the stream
        while True:
            chunk = yield
            if not chunk:
                return status, headers, bytes(buffer), False
            buffer += chunk
    size = int(length)
    yield from _fill(buffer, lambda data: len(data) >= size)
    reusable = (len(buffer) == size
                and headers.get("Connection", "").lower() != "close")
    return status, headers, bytes(buffer[:size]), reusable


def _still_open(sock: socket.socket) -> bool:
    """Zero-timeout readability probe of an idle connection: anything
    readable is the server's close (or bytes nobody asked for)."""
    sock.settimeout(0)
    try:
        sock.recv(1, socket.MSG_PEEK)
        return False
    except OSError as error:
        return isinstance(error, BlockingIOError)


class _HTTPCore(_Verbs):
    """What the two HTTP clients share: the server's address, ``call``
    as an HTTP exchange with the route the endpoint table names,
    request framing, response decoding with the :class:`ServiceError`
    mapping, and the pool of idle keep-alive connections.

    A subclass supplies ``_call(path, payload, timeout, finish,
    answers)``: send one framed request over a pooled connection,
    return ``finish`` of the decoded body (the body itself without
    one; an :class:`Answers` when ``answers`` says the route answers
    with rows).  The blocking transport's ``_call`` returns that value;
    :class:`AsyncClient`'s is a coroutine function.

    Idle connections are plain sockets holding no event-loop state, so
    an :class:`AsyncClient` may serve one ``asyncio.run`` after
    another.  A connection is pooled only when :func:`_read_response`
    found it reusable and is probed before it is handed out again; a
    request is sent once, whatever happens to its connection.
    """

    def __init__(self, url: str, timeout: float = 30.0, tenant: str = ""):
        split = urlsplit(url if "//" in url else f"//{url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"repro clients speak plain http, got {url!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout
        self.tenant = tenant
        #: Trace ID echoed by the last response (success or error).
        self.last_trace_id: Optional[str] = None
        self._idle: List[socket.socket] = []
        self._closed = False
        self._lock = threading.Lock()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def call(self, verb: str, request, finish=None):
        """Send ``request`` to the route of ``verb``; ``finish`` of its
        decoded response."""
        endpoint = VERBS[verb]
        timeout = None
        if endpoint.runs == PARKED:
            # the HTTP deadline must outlive the server-side park
            timeout = max(self.timeout, request.timeout + 5.0)
        payload = None if request is None else request.payload()
        return self._call(endpoint.path, payload, timeout, finish,
                          endpoint.answers)

    # -- framing -----------------------------------------------------------

    def _frame(self, path: str, payload=None, answers: bool = False
               ) -> bytes:
        """The request bytes: a ``GET`` without ``payload``, else a
        JSON ``POST``; a route that ``answers`` asks for the coded
        body."""
        body = b"" if payload is None else json.dumps(payload).encode()
        lines = [f"{'GET' if payload is None else 'POST'} {path} HTTP/1.1",
                 f"Host: {self.host}:{self.port}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(body)}"]
        if answers:
            lines.append(f"Accept: {ROWS_TYPE}, application/json")
        if self.tenant:
            lines.append(f"X-Repro-Tenant: {self.tenant}")
        trace_id = current_trace_id()
        if trace_id:
            # propagate the ambient trace so server-side spans and
            # slow-query log lines correlate with this caller
            lines.append(f"{TRACE_HEADER}: {trace_id}")
        return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body

    def _result(self, sock: socket.socket, reusable: bool, status: int,
                headers: Dict[str, str], raw: bytes, finish=None,
                answers: bool = False):
        """Pool ``sock`` and return the decoded (and ``finish``-ed) body
        of its response, or its :class:`ServiceError`.  A
        :data:`ROWS_TYPE` body, or a JSON one when ``answers``, is an
        :class:`Answers`; one that does not decode closes ``sock``."""
        self.last_trace_id = headers.get(TRACE_HEADER)
        if status < 400 and headers.get("Content-Type") == ROWS_TYPE:
            try:
                decoded = Answers.from_wire(raw)
            except (ValueError, LookupError, TypeError) as error:
                sock.close()
                raise ServiceError(f"undecodable answer body: {error}",
                                   502, "bad_response",
                                   trace_id=self.last_trace_id) from None
            self._checkin(sock, reusable)
        else:
            self._checkin(sock, reusable)
            try:
                decoded = json.loads(raw) if raw else {}
            except ValueError:
                decoded = {"error": raw.decode(errors="replace")}
            if status >= 400:
                raise ServiceError.from_body(status, decoded, headers)
            if answers:
                decoded = Answers.from_payload(decoded)
        return decoded if finish is None else finish(decoded)

    # -- the connection pool -----------------------------------------------

    def _checkout(self) -> Optional[socket.socket]:
        """An idle connection that is still open, if there is one."""
        while True:
            with self._lock:
                if not self._idle:
                    return None
                sock = self._idle.pop()
            if _still_open(sock):
                return sock
            sock.close()

    def _checkin(self, sock: socket.socket, reusable: bool) -> None:
        """Pool ``sock`` after a completed exchange, or close it."""
        with self._lock:
            if (reusable and not self._closed
                    and len(self._idle) < _POOL_SIZE):
                self._idle.append(sock)
                return
        sock.close()

    def _close_idle(self) -> None:
        """Close every idle connection; one still in use is closed
        when its call returns."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()


class _HTTPTransport(_HTTPCore):
    """The remote transport behind :meth:`Client.connect`: the shared
    core over blocking sockets.  Safe to share between threads: each
    call checks a connection out of the pool for its own use."""

    def _call(self, path: str, payload=None,
              timeout: Optional[float] = None, finish=None,
              answers: bool = False):
        request = self._frame(path, payload, answers)
        timeout = timeout or self.timeout
        sock = self._checkout()
        try:
            if sock is None:
                sock = socket.create_connection((self.host, self.port),
                                                timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(timeout)
            sock.sendall(request)
            response = _read_response()
            next(response)
            try:
                while True:
                    response.send(sock.recv(65536))
            except StopIteration as done:
                status, headers, raw, reusable = done.value
        except BaseException:
            # whatever went wrong, the request may have reached the
            # server: never resend it, never reuse the connection
            if sock is not None:
                sock.close()
            raise
        return self._result(sock, reusable, status, headers, raw, finish,
                            answers)

    def close(self) -> None:
        self._close_idle()


class Client(_Verbs):
    """The unified front door; see the module docstring.

    Build one with :meth:`local` (embedded service, owned),
    :meth:`wrap` (existing service, borrowed) or :meth:`connect`
    (remote HTTP server).  Its verbs are :class:`_Verbs`'; each hands
    its request to the transport's ``call``.
    """

    def __init__(self, transport):
        self._transport = transport
        #: The tenant whose namespace every call is scoped to.
        self.tenant = transport.tenant

    @classmethod
    def local(cls, tenant: str = "", **service_kwargs) -> "Client":
        """A client over a fresh embedded
        :class:`~repro.service.service.OMQService` (closed with the
        client); ``service_kwargs`` pass through (``cache_size``,
        ``max_workers``, ``default_engine``, ``data_dir``, ``quota``).
        ``tenant`` scopes every call into that tenant's namespace."""
        from .service.service import OMQService

        return cls(_ServiceTransport(OMQService(**service_kwargs),
                                     owned=True, tenant=tenant))

    @classmethod
    def wrap(cls, service, tenant: str = "") -> "Client":
        """A client borrowing an existing service (not closed with the
        client), optionally pinned to one tenant's namespace."""
        return cls(_ServiceTransport(service, owned=False, tenant=tenant))

    @classmethod
    def connect(cls, url: str, timeout: float = 30.0,
                tenant: str = "") -> "Client":
        """A client speaking the ``repro serve`` JSON protocol; a
        non-default ``tenant`` is sent as ``X-Repro-Tenant``."""
        return cls(_HTTPTransport(url, timeout=timeout, tenant=tenant))

    def call(self, verb: str, request, finish=None):
        return self._transport.call(verb, request, finish)

    @property
    def last_trace_id(self) -> Optional[str]:
        """The ``X-Repro-Trace-Id`` echoed by the last HTTP response
        (``None`` for embedded transports)."""
        return getattr(self._transport, "last_trace_id", None)

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Client({self._transport.__class__.__name__[1:]})"


class AsyncClient(_HTTPCore):
    """The :class:`Client` surface for asyncio code, over HTTP.

    Speaks the ``repro serve`` JSON protocol on the event loop (stdlib
    only) over the same wire core and keep-alive pool as the blocking
    client, so hundreds of requests can be in flight from one loop —
    which is exactly what the coalescing server
    (:mod:`repro.service.aserve`) wants to see.  Every verb is
    :class:`Client`'s, awaitable::

        async with AsyncClient.connect("http://host:8081") as client:
            answers = await client.answer("demo", omq, method="tw")

    Server rejections raise :class:`ServiceError`; a 429 backpressure
    rejection carries ``error.retry_after`` seconds.
    """

    _subscription = AsyncSubscription

    @classmethod
    def connect(cls, url: str, timeout: float = 30.0,
                tenant: str = "") -> "AsyncClient":
        """A client for the ``repro serve`` JSON protocol at ``url``;
        a non-default ``tenant`` rides as ``X-Repro-Tenant``."""
        return cls(url, timeout=timeout, tenant=tenant)

    async def _call(self, path: str, payload=None,
                    timeout: Optional[float] = None, finish=None,
                    answers: bool = False):
        return await asyncio.wait_for(
            self._call_once(path, payload, finish, answers),
            timeout=timeout or self.timeout)

    async def _call_once(self, path: str, payload, finish, answers):
        request = self._frame(path, payload, answers)
        loop = asyncio.get_running_loop()
        sock = self._checkout()
        try:
            if sock is None:
                sock = await self._connect(loop)
            await loop.sock_sendall(sock, request)
            response = _read_response()
            next(response)
            try:
                while True:
                    response.send(await loop.sock_recv(sock, 65536))
            except StopIteration as done:
                status, headers, raw, reusable = done.value
        except BaseException:
            # failure or cancellation: the request may have reached the
            # server, so never resend it, never reuse the connection
            if sock is not None:
                sock.close()
            raise
        return self._result(sock, reusable, status, headers, raw, finish,
                            answers)

    async def _connect(self, loop) -> socket.socket:
        """A connected non-blocking socket (first address that works)."""
        infos = await loop.getaddrinfo(self.host, self.port,
                                       type=socket.SOCK_STREAM)
        for family, kind, proto, _, address in infos:
            sock = socket.socket(family, kind, proto)
            try:
                sock.setblocking(False)
                await loop.sock_connect(sock, address)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
            except BaseException as error:
                sock.close()
                if (not isinstance(error, OSError)
                        or address == infos[-1][4]):
                    raise

    async def close(self) -> None:
        self._close_idle()

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def __repr__(self) -> str:
        return f"AsyncClient({self.url!r})"
