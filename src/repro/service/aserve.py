"""The HTTP server: request coalescing, micro-batching, backpressure.

Dozens of clients asking the same question at the same moment is the
norm for a hot OMQ under heavy traffic, and evaluating each request on
its own thread pays for every one of them.  This server speaks the
protocol of :mod:`repro.service.protocol` over stdlib ``asyncio``
streams and buys throughput three ways:

* **Request coalescing** — concurrent ``/answer`` requests with the
  same ``(dataset, data version, engine, timeout, plan-cache key)``
  await *one* shared execution future instead of running N identical
  ``Plan.execute`` calls.  The plan-cache key is canonical up to
  variable renaming, so clients that regenerate variable names still
  coalesce.  The data version is a per-dataset epoch bumped whenever
  an update (or re-registration) completes: a request that arrives
  after an update never joins an execution that read the old data.
* **Micro-batching** — an admitted ``/answer`` request is handed to
  the bounded worker-thread pool the moment a worker is free; while
  every worker is busy, arrivals gather (up to ``max_batch``) and run
  as one :meth:`OMQService.answer_batch` call when a running batch
  completes, sharing read locks and in-batch deduplication.  The
  running batches *are* the gathering window: an idle server adds no
  wait, a loaded one batches exactly as much as it is behind.  On an
  idle server a lone ``/answer`` whose plan is cached and whose last
  execution on its data was measured short skips the pool and runs on
  the loop itself (a batch of one, without the hop).
* **Admission control** — once ``max_pending`` requests are queued or
  executing, new work is rejected with ``429`` and a ``Retry-After``
  header instead of growing an unbounded queue.  Joining an in-flight
  coalesced execution is always admitted: it adds no work.

Standing queries (:mod:`repro.standing`) deliver their answer deltas
by long-poll: ``POST /poll`` runs on a dedicated thread so parked
pollers never occupy the worker pool.  Parked polls are bounded
separately (``max_polls``, each costs an OS thread): past the cap new
polls are rejected with 429.

Counters for all three (plus queue depth high-water marks) are served
under ``"async_serving"`` in ``GET /stats`` and as ``repro_async_*``
families on ``GET /metrics`` (Prometheus text format).  Every response
echoes the request's trace ID as ``X-Repro-Trace-Id``; an ``/answer``'s
trace notes its ``answer_route`` (``inline``, ``batch`` or
``coalesced``).  Start it with
``python -m repro serve`` (:mod:`repro.service.serve`) or embed it in
tests via :func:`serve_in_background`.

The request head is bounded: a request or header line past the stream
reader's 64 KiB limit, or more than :data:`MAX_HEADERS` header lines,
is refused with a structured ``414``/``431`` and the connection closed.
"""

from __future__ import annotations

import asyncio
import contextvars
import dataclasses
import functools
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple, Union

from ..obs.trace import Trace, annotate, mint_trace_id, tracing
from ..rewriting.plan import ROWS_TYPE
from ..store import DEFAULT_TENANT
from .protocol import (
    BATCH,
    ENDPOINTS,
    LOOP,
    PARKED,
    TENANT_HEADER,
    TRACE_HEADER,
    BatchRequest,
    Endpoint,
    ProtocolError,
    Router,
    accepts,
    begin_trace,
    decode_json_body,
    encode_body,
    error_payload,
    overloaded_error,
    parse_content_length,
    resolve_tenant,
    route,
)
from .service import OMQService

#: Cap on the header lines of one request.
MAX_HEADERS = 100
#: Cap on the execution times :class:`AsyncServiceServer` remembers.
MAX_MEASURED = 4096


class AsyncServiceServer:
    """The asyncio HTTP server bound to one :class:`OMQService`.

    All mutable coordination state (the in-flight map, the pending
    micro-batch, the counters) is confined to the event loop thread,
    so no locks are needed here.  ``OMQService`` calls run on the
    worker pool, except a lone short cached-plan ``/answer`` on an idle
    server, which runs on the loop (see :meth:`_alone`).
    """

    #: The longest execution, in seconds, last measured for an
    #: ``/answer``'s work that lets it run on the loop: the loop reads
    #: no other request meanwhile, so only answers about as short as
    #: the pool hop they save qualify.
    INLINE_SECONDS = 0.001

    def __init__(self, service: OMQService, host: str = "127.0.0.1",
                 port: int = 8081, *, workers: int = 4,
                 max_pending: int = 128, max_batch: int = 16,
                 max_polls: int = 64, verbose: bool = False):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_polls < 1:
            raise ValueError("max_polls must be >= 1")
        self.service = service
        self.host = host
        self.port = port
        self.workers = max(1, workers)
        self.max_pending = max_pending
        self.max_batch = max_batch
        self.max_polls = max_polls
        self.verbose = verbose
        self.router = Router(service)
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # event-loop-confined serving state
        self._inflight: Dict[Tuple, asyncio.Future] = {}
        self._pending: List[Tuple[Tuple, BatchRequest]] = []
        self._executing = 0
        #: Micro-batches currently on the worker pool.
        self._running_batches = 0
        #: Other calls on the worker pool (an ``/update`` has no
        #: admission cost, so ``_executing`` does not see it).
        self._pool_calls = 0
        #: Requests read off the wire and not yet answered.
        self._handling = 0
        self._active_polls = 0
        #: Coalescing key -> seconds its cached plan last took to run
        #: (bounded; :meth:`_alone` reads it).
        self._measured: Dict[Tuple, float] = {}
        #: ``(tenant, dataset)`` -> coalescing epoch.
        self._epochs: Dict[Tuple[str, str], int] = {}
        self._connections: set = set()
        # counters live in the service's metrics registry (and are
        # served both under "async_serving" in /stats and as the
        # repro_async_* families on GET /metrics); the high-water
        # marks stay loop-confined ints mirrored into gauges
        self._obs = service.obs
        self._peak_pending = 0
        self._peak_polls = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (port 0 auto-assigns) and the
        worker pool; returns with :attr:`address` resolved."""
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-aserve")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, close open connections, fail queued work,
        release the worker pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # idle keep-alive connections park their handler tasks in a
        # readline; they must be cancelled and awaited before the
        # caller tears the event loop down under them
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        self._connections.clear()
        for key, _ in self._pending:
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_exception(
                    ProtocolError("server shutting down", status=503,
                                  error_type="overloaded"))
        self._pending.clear()
        if self.service.store is not None and self._executor is not None:
            # checkpoint before the pool goes away: a graceful stop
            # must leave fully-folded store files
            await self._loop.run_in_executor(self._executor,
                                             self.service.checkpoint)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- coalescing + micro-batching -----------------------------------------

    def _coalesce_key(self, request: BatchRequest) -> Tuple:
        """Identity of one unit of answer work.

        Folds in everything that changes the bytes of the response:
        the tenant and dataset with its current epoch (updates bump
        it), the engine, the execution timeout, and the canonical
        plan-cache key (TBox, CQ up to variable renaming, compile
        options).  The tenant is part of the identity — two tenants'
        same-named datasets are different data.
        """
        options = request.options
        engine = options.engine or self.service.default_engine
        scoped = (request.tenant, request.dataset)
        return (scoped, self._epochs.get(scoped, 0),
                engine, options.timeout,
                self.service.cache.key(request.omq, options))

    def _queue_depth(self) -> int:
        return len(self._pending) + self._executing

    def _note_depth(self) -> None:
        """Mirror the queue depth (and its high-water mark) into the
        ``repro_async_pending`` / ``repro_async_peak_pending`` gauges."""
        depth = self._queue_depth()
        self._obs.async_pending.set(depth)
        if depth > self._peak_pending:
            self._peak_pending = depth
            self._obs.async_peak_pending.set(depth)

    def _admit(self, units: int) -> None:
        """Reject new work with 429 once the queue is saturated."""
        depth = self._queue_depth()
        if depth + units > self.max_pending:
            self._obs.async_rejected.inc(units)
            raise overloaded_error(depth, self.max_pending)

    def _quiet(self) -> bool:
        return not (self._running_batches or self._pool_calls
                    or self._pending or self._inflight)

    async def _alone(self, key: Tuple, request: BatchRequest) -> bool:
        """Whether an ``/answer`` may run on the loop.

        Its cost must be bounded: its plan is cached (the loop never
        compiles), its work last ran in under :attr:`INLINE_SECONDS`
        on this data version, and its dataset has a built session free
        for its engine (the loop builds no session or backend).  The
        server must be idle: the pool runs nothing (or the loop could
        wait behind an update's write lock) and nothing is queued or
        in flight.  After one yield it must still be the only request
        in hand (a parked poll holds no lock or worker, so polls do
        not count).  The yield lets handlers woken in the same loop
        turn register, so twins that arrive together coalesce; a twin
        whose bytes have not been read yet waits for the inline answer.
        """
        if not (self._quiet()
                and self._measured.get(key, math.inf) < self.INLINE_SECONDS
                and self.service.cache.contains(key[-1])
                and self.service.ready(request.dataset, key[2],
                                       request.tenant)):
            return False
        await asyncio.sleep(0)
        return self._quiet() and self._handling - self._active_polls <= 1

    def _measure(self, key: Tuple, result) -> None:
        """Note how long ``key``'s cached plan took to run (a run that
        compiled it timed the compilation too, so it is not noted)."""
        if result.cached_rewriting:
            self._measured.pop(key, None)  # the newest goes last
            self._measured[key] = result.seconds
            if len(self._measured) > MAX_MEASURED:
                del self._measured[next(iter(self._measured))]

    async def _handle_answer(self, request: BatchRequest, units: int,
                             trace: Optional[Trace] = None,
                             coded: bool = False) -> Union[Dict, bytes]:
        key = self._coalesce_key(request)
        request = dataclasses.replace(request, plan_key=key[-1])
        inline = await self._alone(key, request)
        # read after _alone's yield: a twin may have registered meanwhile
        future = None if inline else self._inflight.get(key)
        coalesced = future is not None
        annotate("answer_route", "inline" if inline else
                 "coalesced" if coalesced else "batch")
        if inline:
            self._admit(units)
            # a batch of one, under the request's ambient trace
            self._obs.async_batches.inc()
            self._obs.async_batched_requests.inc()
            result = self.service.answer_batch([request])[0]
        elif coalesced:
            # joining in-flight identical work is free: no admission.
            # The joiner's trace stays shallow (decode + encode only);
            # the execution spans belong to the leader's trace.
            self._obs.async_coalesced.inc()
        else:
            self._admit(units)
            # the worker thread that runs the micro-batch activates
            # this trace around the leader's job, so execute/cache
            # spans and plan-fingerprint annotations land on the
            # originating request
            if trace is not None:
                request = dataclasses.replace(request, trace=trace)
            future = self._loop.create_future()
            self._inflight[key] = future
            self._pending.append((key, request))
            self._note_depth()
            if (self._running_batches < self.workers
                    or len(self._pending) >= self.max_batch):
                self._flush()
        if not inline:
            result = await asyncio.shield(future)
        self._measure(key, result)
        if coded:  # the request's Accept named ROWS_TYPE
            return encode_body({"coalesced": coalesced}, trace, result.wire)
        body = self.router.result_payload(result)
        body["coalesced"] = coalesced
        return body

    def _flush(self) -> None:
        """Hand the gathered micro-batch to the worker pool."""
        batch, self._pending = self._pending, []
        self._executing += len(batch)
        self._running_batches += 1
        self._obs.async_batches.inc()
        self._obs.async_batched_requests.inc(len(batch))
        self._loop.create_task(self._run_batch(batch))

    async def _run_batch(self, batch: List[Tuple[Tuple, BatchRequest]]) -> None:
        requests = [request for _, request in batch]
        try:
            results = await self._loop.run_in_executor(
                self._executor, self.service.answer_batch, requests)
        except Exception:
            # answer_batch fails as a unit (e.g. one unknown dataset
            # aborts lock acquisition for all).  One bad request must
            # not poison its batchmates: retry each alone so only the
            # offender's waiters see its error.
            await self._settle_individually(batch)
            return
        finally:
            self._executing -= len(batch)
            self._running_batches -= 1
            self._note_depth()
            if self._pending:
                # what gathered while every worker was busy runs now
                self._flush()
        for (key, _), result in zip(batch, results):
            # pop before resolving: once resolved the result is no
            # longer "in flight" and must not absorb later arrivals
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_result(result)

    async def _settle_individually(
            self, batch: List[Tuple[Tuple, BatchRequest]]) -> None:
        for key, request in batch:
            future = self._inflight.pop(key, None)
            if future is None or future.done():
                continue
            try:
                result = await self._loop.run_in_executor(
                    self._executor, self._answer_one, request)
            except Exception as error:
                future.set_exception(error)
            else:
                future.set_result(result)

    def _answer_one(self, request: BatchRequest):
        return self.service.answer(request.dataset, request.omq,
                                   options=request.options,
                                   tenant=request.tenant)

    # -- other routes --------------------------------------------------------

    def _counters_payload(self) -> Dict[str, object]:
        obs = self._obs
        return {"async_serving": {
            "requests": int(obs.async_requests.value),
            "coalesced": int(obs.async_coalesced.value),
            "batches": int(obs.async_batches.value),
            "batched_requests": int(obs.async_batched_requests.value),
            "rejected": int(obs.async_rejected.value),
            "pending": self._queue_depth(),
            "peak_pending": self._peak_pending,
            "max_pending": self.max_pending,
            "parked_polls": self._active_polls,
            "peak_parked_polls": self._peak_polls,
            "max_polls": self.max_polls,
            "max_batch": self.max_batch,
            "workers": self.workers,
        }}

    def _traced(self, fn):
        """Bind the current context (the request's active trace) to
        ``fn`` — worker threads reached through ``run_in_executor`` or
        :meth:`_call_in_thread` don't inherit the loop task's
        contextvars on their own."""
        ctx = contextvars.copy_context()
        return functools.partial(ctx.run, fn)

    async def _dispatch(self, method: str, path: str, body: bytes,
                        headers: Optional[Dict[str, str]] = None,
                        trace: Optional[Trace] = None
                        ) -> Tuple[int, Union[Dict, bytes]]:
        """Serve one request from :data:`ENDPOINTS`: run its call where
        the table says.  The request is decoded on the loop only when
        the loop needs it — to coalesce it or to admit it by its size;
        otherwise where its call runs, since decoding on the loop
        delays the responses the loop is writing (measured on
        ``update-standing``)."""
        self._obs.async_requests.inc()
        payload = decode_json_body(body)
        headers = headers or {}
        if trace is not None:
            trace.wanted = bool(payload.get("trace"))
        tenant = resolve_tenant(headers.get(TENANT_HEADER.lower()), payload)
        # per-tenant token bucket before any work is queued (429 +
        # Retry-After)
        self.router.throttle(tenant, method, path)
        endpoint = route(method, path)
        request, cost = None, 0
        if endpoint.cost is not None:
            request = endpoint.decode(payload, self.service, tenant)
            cost = endpoint.cost(request)
        if endpoint.runs == BATCH:
            return endpoint.status, await self._handle_answer(
                request, cost, trace,
                coded=accepts(headers.get("accept", ""), ROWS_TYPE))
        if endpoint.runs == LOOP:
            return endpoint.status, self._run(endpoint, payload, tenant)[1]
        run = self._traced(functools.partial(self._run, endpoint, payload,
                                             tenant, request))
        if endpoint.runs == PARKED:
            # a long-poll may park for up to MAX_POLL_TIMEOUT seconds;
            # a thread of its own keeps the bounded worker pool free
            # for answer/update work.  Parked polls have their own
            # (generous) cap separate from max_pending — each costs an
            # OS thread, so past max_polls new ones get 429 instead of
            # growing the thread count without bound
            if self._active_polls >= self.max_polls:
                self._obs.async_rejected.inc()
                raise overloaded_error(self._active_polls, self.max_polls)
            self._active_polls += 1
            self._peak_polls = max(self._peak_polls, self._active_polls)
            self._obs.async_parked_polls.set(self._active_polls)
            self._obs.async_peak_polls.set(self._peak_polls)
            future = self._call_in_thread(run)
            future.add_done_callback(self._poll_finished)
            return endpoint.status, (await future)[1]
        # every other route may block on locks or compile, so it runs
        # on the worker pool; a batch is admitted by its size and its
        # entries coalesce among themselves through answer_batch's own
        # in-batch deduplication
        self._admit(cost)
        self._executing += cost
        self._pool_calls += 1
        self._note_depth()
        counters = None  # counters are loop-confined
        if endpoint.verb == "stats":
            counters = self._counters_payload()
        try:
            request, response = await self._loop.run_in_executor(
                self._executor, run)
        finally:
            self._executing -= cost
            self._pool_calls -= 1
            self._note_depth()
        if counters is not None:
            response = {**response, **counters}
        if endpoint.bumps:
            self._bump_epoch((tenant, str(request.dataset)))
        return endpoint.status, response

    def _run(self, endpoint: Endpoint, payload: Dict, tenant: str,
             request=None) -> Tuple[object, object]:
        """``endpoint``'s call on the request ``payload`` holds (decoded
        here unless the loop already did): the request and the
        response."""
        if request is None:
            request = endpoint.decode(payload, self.service, tenant)
        return request, endpoint.call(self.service, request, tenant)

    def _poll_finished(self, _future: asyncio.Future) -> None:
        """Release a parked poll's slot (runs on the loop)."""
        self._active_polls -= 1
        self._obs.async_parked_polls.set(self._active_polls)

    def _bump_epoch(self, scoped: Tuple[str, str]) -> None:
        """Invalidate coalescing for a ``(tenant, dataset)`` whose
        data changed."""
        self._epochs[scoped] = self._epochs.get(scoped, 0) + 1

    def _call_in_thread(self, fn) -> asyncio.Future:
        """Run ``fn`` on a fresh daemon thread, resolving an asyncio
        future on the loop — for calls that may block far longer than
        a bounded pool slot should be held."""
        future = self._loop.create_future()
        loop = self._loop

        def settle(resolve) -> None:
            if not future.done():
                resolve()

        def work() -> None:
            # partial() binds the outcome by value: a closure over the
            # ``except ... as error`` name would read its cell after
            # the implicit del at block exit — a NameError race that
            # leaves the future unresolved and the poller hanging
            try:
                result = fn()
            except BaseException as error:  # delivered to the awaiter
                loop.call_soon_threadsafe(
                    settle, functools.partial(future.set_exception, error))
            else:
                loop.call_soon_threadsafe(
                    settle, functools.partial(future.set_result, result))

        threading.Thread(target=work, name="repro-aserve-poll",
                         daemon=True).start()
        return future

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _handle_one(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> bool:
        """Serve one request; returns whether to keep the connection."""
        method = path = "-"  # until the request line has been read
        headers: Dict[str, str] = {}
        try:
            request_line = await _head_line(reader, 414, "request line")
            if not request_line or not request_line.strip():
                return False
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                raise ProtocolError("malformed request line")
            method, path = parts[0].upper(), parts[1]
            for _ in range(MAX_HEADERS + 1):
                line = await _head_line(reader, 431, "header line")
                if not line or line in (b"\r\n", b"\n"):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            else:
                raise ProtocolError(
                    f"more than {MAX_HEADERS} header lines", status=431)
        except ProtocolError as error:
            # an unreadable head leaves no way to tell where the next
            # request starts: answer it, then close
            trace_id = mint_trace_id()
            status, payload, more = error_payload(error, trace_id)
            more.update({TRACE_HEADER: trace_id, "Connection": "close"})
            self._respond(writer, status, encode_body(payload),
                          headers=more)
            await writer.drain()
            self.router.observe_request(method, path, status, 0.0)
            return False
        keep_alive = headers.get("connection", "").lower() != "close"
        started = time.perf_counter()
        trace = begin_trace(headers.get(TRACE_HEADER.lower()))
        extra: Dict[str, str] = {TRACE_HEADER: trace.trace_id}
        content_type = "application/json"
        scrape = ENDPOINTS.get((method, path.partition("?")[0]))
        self._handling += 1
        try:
            if scrape is not None and scrape.content_type != content_type:
                # a scrape (``/metrics``): no body, tenant or trace
                status, content_type = scrape.status, scrape.content_type
                body = scrape.call(self.service, None,
                                   DEFAULT_TENANT).encode("utf-8")
            else:
                try:
                    length = parse_content_length(
                        headers.get("content-length"))
                except ProtocolError:
                    # framing is broken: the body (whose length we
                    # cannot know) is still on the wire, so keeping the
                    # connection would parse it as the next request
                    keep_alive = False
                    raise
                raw = await reader.readexactly(length) if length else b""
                with tracing(trace):
                    status, payload = await self._dispatch(
                        method, path, raw, headers, trace)
                if isinstance(payload, bytes):  # a coded /answer body
                    body, content_type = payload, ROWS_TYPE
                else:
                    body = encode_body(payload, trace)
        except asyncio.IncompleteReadError:
            raise
        except Exception as error:
            status, payload, more = error_payload(error, trace.trace_id)
            extra.update(more)
            if self.verbose and status >= 500:
                print(f"repro aserve: {method} {path} -> {status}: {error}")
            body = encode_body(payload, trace)
        finally:
            self._handling -= 1
        self._respond(writer, status, body, content_type, extra)
        await writer.drain()
        self.router.observe_request(method, path, status,
                                    time.perf_counter() - started, trace)
        return keep_alive

    _REASONS = {200: "OK", 201: "Created", 400: "Bad Request",
                403: "Forbidden", 404: "Not Found", 414: "URI Too Long",
                429: "Too Many Requests",
                431: "Request Header Fields Too Large",
                500: "Internal Server Error", 503: "Service Unavailable"}

    def _respond(self, writer: asyncio.StreamWriter, status: int,
                 body: bytes, content_type: str = "application/json",
                 headers: Optional[Dict[str, str]] = None) -> None:
        """Write one framed response, head and body in a single write."""
        head = [f"HTTP/1.1 {status} {self._REASONS.get(status, 'OK')}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}"]
        head.extend(f"{name}: {value}"
                    for name, value in (headers or {}).items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)


async def _head_line(reader: asyncio.StreamReader, status: int,
                     what: str) -> bytes:
    """One line of the request head.  Past the reader's 64 KiB limit
    ``readline`` raises ``ValueError`` after dropping what it buffered,
    so an overlong line is refused with ``status``, never parsed."""
    try:
        return await reader.readline()
    except ValueError:
        raise ProtocolError(f"{what} too long", status=status) from None


class BackgroundAsyncServer:
    """An :class:`AsyncServiceServer` on its own event-loop thread.

    The synchronous harness the tests and benchmarks need::

        with BackgroundAsyncServer(service, port=0) as handle:
            Client.connect(handle.url).answer(...)
    """

    def __init__(self, service: OMQService, **kwargs):
        kwargs.setdefault("port", 0)
        self.server = AsyncServiceServer(service, **kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-aserve-loop", daemon=True)

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def start(self) -> "BackgroundAsyncServer":
        if not self._thread.is_alive():
            self._thread.start()
            asyncio.run_coroutine_threadsafe(self.server.start(),
                                             self._loop).result(timeout=30)
        return self

    def stop(self) -> None:
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(self.server.stop(),
                                         self._loop).result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()

    def __enter__(self) -> "BackgroundAsyncServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_background(service: OMQService,
                        **kwargs) -> BackgroundAsyncServer:
    """Start an async server for ``service`` on a background thread
    (``port=0`` by default) and return the running handle."""
    return BackgroundAsyncServer(service, **kwargs).start()
