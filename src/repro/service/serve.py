"""JSON-over-HTTP front-end for :class:`OMQService` (stdlib only).

``python -m repro serve`` turns the service into a process.  The
protocol is deliberately small and text-based — TBoxes, queries and
data use the same surface syntax as the CLI and test suite:

===========================  ============================================
``GET  /health``             liveness probe
``GET  /stats``              :meth:`OMQService.stats` as JSON
``POST /datasets``           ``{"name": ..., "data": "<ABox text>",
                             "shards": K}`` (``shards >= 2`` serves
                             the dataset scatter-gather over a
                             component partition)
``POST /tboxes``             ``{"name": ..., "tbox": "<TBox text>"}``
``POST /answer``             one request (see below)
``POST /explain``            a request minus ``dataset`` (optional):
                             the compiled plan's report
``POST /batch``              ``{"requests": [<request>, ...]}``
``POST /update``             ``{"dataset": ..., "insert": ["R(a,b)",
                             ...], "delete": [...]}`` — the response
                             carries the dataset's new ``epoch``
``POST /subscribe``          an answer request: register a standing
                             query, returns the snapshot + ``epoch``
                             + ``subscription`` id
``POST /poll``               ``{"subscription": ..., "since_epoch":
                             N, "timeout": S}`` — long-poll for
                             answer deltas
``POST /unsubscribe``        ``{"subscription": ...}``
===========================  ============================================

Every route is tenant-aware: the ``X-Repro-Tenant`` header (or a
``tenant`` payload field, which wins) scopes dataset/ontology/
subscription names into that tenant's namespace and charges its
quotas and token-bucket rate limit (429 + ``Retry-After`` past the
rate, 403 past a quota); requests without a tenant keep today's
un-scoped behavior.  ``--data-dir`` makes the service durable: state
is persisted per tenant as it changes, checkpointed on graceful
shutdown, and warm-restored on the next start (see
:mod:`repro.store`).

Standing queries are served long-poll only here; SSE streaming
(``GET /subscribe``) needs the asyncio front-end (``--async-io``).
POSTs are admission-controlled: past ``--max-pending`` concurrent
requests the server answers 429 with ``Retry-After`` (the same shape
as the async front-end, via
:func:`repro.service.protocol.overloaded_error`).  ``/poll`` counts
against its own ``--max-polls`` budget instead, so parked long-pollers
neither starve answer/update work nor park in unbounded numbers.

An answer request names a dataset and an ontology — ``"tbox"`` is a
registered name, ``"tbox_text"`` inline TBox text (inline text in
``"tbox"`` is also accepted when unambiguous) — and carries the CQ::

    {"dataset": "demo", "tbox": "uni", "query": "R(x,y), S(y,z)",
     "answers": ["x"], "method": "auto", "engine": "python"}

Pipeline configuration may also travel as one ``"options"`` object
(the JSON form of :class:`~repro.rewriting.plan.AnswerOptions` —
``{"method": ..., "magic": ..., "optimize": ..., "engine": ...,
"timeout": ..., "over": ...}``); flat legacy keys override its
fields.  ``POST /explain`` takes the same request shape and returns
the compiled plan's :meth:`~repro.rewriting.plan.Plan.explain` report
without evaluating it (``dataset`` is only required for the
data-dependent ``adaptive``/``optimize`` stages).

Responses are ``{"answers": [[...], ...], "seconds": ...,
"cached_rewriting": ...}`` with the answer tuples sorted.  Errors come
back as ``{"error": <message>, "error_type": <kind>}`` with a 4xx
status — including malformed JSON bodies and bad ``Content-Length``
headers, which are the client's bugs, not internal errors.  Inline
TBox texts are interned by exact text (and by fingerprint behind
that), so re-sending the same ontology per request costs a dictionary
lookup, never a second parse or completion.

Request decoding and dispatch live in
:mod:`repro.service.protocol`, shared with the asyncio front-end
(:mod:`repro.service.aserve`, ``repro serve --async-io``) so the two
servers parse and error identically.
"""

from __future__ import annotations

import argparse
import time
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from ..data.abox import ABox
from ..engine import ENGINES
from ..obs import configure_logging
from ..obs.trace import tracing
from ..ontology import TBox
from ..store import TenantQuota
from .protocol import (
    TENANT_HEADER,
    TRACE_HEADER,
    ProtocolError,
    Router,
    begin_trace,
    decode_json_body,
    encode_body,
    error_payload,
    overloaded_error,
    parse_content_length,
    resolve_tenant,
)
from .service import OMQService


class _Handler(BaseHTTPRequestHandler):
    """One request; the service lives on the server object."""

    server: "ServiceServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(self, payload: Dict, status: int = 200,
              headers: Optional[Dict[str, str]] = None,
              trace=None) -> None:
        self._send_bytes(encode_body(payload, trace), status,
                         "application/json", headers)

    def _send_bytes(self, body: bytes, status: int, content_type: str,
                    headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":  # headerless protocol
            self.wfile.write(body)
            return
        # one send: wfile is unbuffered and the socket has Nagle on, so
        # a body written after the head would wait for the client's
        # delayed ACK of the head (~40 ms per keep-alive request)
        self._headers_buffer += (b"\r\n", body)
        self.flush_headers()

    def _read_json(self) -> Dict:
        try:
            length = parse_content_length(self.headers.get("Content-Length"))
        except ProtocolError:
            # broken framing: the body of unknowable length is still
            # on the wire, so a kept-alive connection would parse it
            # as the next request line — close instead
            self.close_connection = True
            raise
        return decode_json_body(self.rfile.read(length) if length else b"")

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        trace = begin_trace(self.headers.get(TRACE_HEADER))
        echo = {TRACE_HEADER: trace.trace_id}
        status = 500
        try:
            with tracing(trace):
                try:
                    if (method == "GET"
                            and self.path.split("?", 1)[0] == "/metrics"):
                        body, content_type = \
                            self.server.router.metrics_text()
                        status = 200
                        self._send_bytes(body, status, content_type,
                                         echo)
                        return
                    admitted = self.server.admit(method, self.path)
                    try:
                        payload = (self._read_json()
                                   if method == "POST" else {})
                        trace.wanted = bool(payload.get("trace"))
                        tenant = resolve_tenant(
                            self.headers.get(TENANT_HEADER), payload)
                        self.server.router.throttle(tenant, method,
                                                    self.path)
                        status, body = self.server.router.handle(
                            method, self.path, payload, tenant=tenant)
                        self._send(body, status, echo, trace=trace)
                    finally:
                        if admitted:
                            self.server.release(admitted)
                except Exception as error:  # never drop a request
                    status, body, headers = error_payload(
                        error, trace.trace_id)
                    headers.update(echo)
                    self._send(body, status, headers, trace=trace)
        finally:
            self.server.router.observe_request(
                method, self.path, status,
                time.perf_counter() - started, trace)

    # -- verbs ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`OMQService`."""

    daemon_threads = True

    def __init__(self, service: OMQService, host: str = "127.0.0.1",
                 port: int = 8080, verbose: bool = True,
                 max_pending: int = 128, max_polls: int = 64):
        super().__init__((host, port), _Handler)
        self.service = service
        self.router = Router(service)
        self.verbose = verbose
        self.max_pending = max_pending
        self.max_polls = max_polls
        self._inflight = 0
        self._polling = 0
        self._inflight_lock = threading.Lock()

    def admit(self, method: str, path: str) -> Optional[str]:
        """Count a request against its admission budget; 429 past the
        cap.  Returns the token to pass back to :meth:`release` (or
        ``None`` for uncounted GETs).

        Only POSTs carry real work.  ``/poll`` has its own (generous)
        budget, ``max_polls``, separate from ``max_pending``: parked
        long-pollers must not eat the answer/update budget, but each
        holds a connection thread for up to its timeout, so they
        cannot be unbounded either.
        """
        if method != "POST":
            return None
        if path == "/poll":
            with self._inflight_lock:
                if self._polling >= self.max_polls:
                    raise overloaded_error(self._polling, self.max_polls)
                self._polling += 1
            return "poll"
        with self._inflight_lock:
            if self._inflight >= self.max_pending:
                raise overloaded_error(self._inflight, self.max_pending)
            self._inflight += 1
        return "work"

    def release(self, token: str) -> None:
        with self._inflight_lock:
            if token == "poll":
                self._polling -= 1
            else:
                self._inflight -= 1


def build_server(service: OMQService, host: str = "127.0.0.1",
                 port: int = 8080, verbose: bool = True,
                 max_pending: int = 128,
                 max_polls: int = 64) -> ServiceServer:
    """Bind (but do not run) the HTTP front-end; port 0 auto-assigns."""
    return ServiceServer(service, host, port, verbose=verbose,
                         max_pending=max_pending, max_polls=max_polls)


def add_serve_arguments(parser) -> None:
    """Install the ``serve`` options on an (argparse) parser."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--engine", default="python", choices=ENGINES,
                        help="default evaluation backend")
    parser.add_argument("--cache-size", type=int, default=256,
                        help="rewriting cache entries")
    parser.add_argument("--workers", type=int, default=4,
                        help="batch threads / SQLite sessions per dataset")
    from ..cli import shard_count

    parser.add_argument("--shards", type=shard_count, default=0,
                        help="serve preloaded --dataset instances over "
                             "this many component shards (>= 2 enables "
                             "scatter-gather execution, 'auto' sizes "
                             "from CPUs and component skew)")
    parser.add_argument("--shard-executor", default="auto",
                        dest="shard_executor",
                        help="executor for sharded datasets: 'auto', "
                             "'serial', 'process', or comma-separated "
                             "http:// worker URLs for multi-node "
                             "scatter-gather over other repro serve "
                             "instances")
    parser.add_argument("--dataset", action="append", default=[],
                        metavar="NAME=PATH",
                        help="preload a dataset from an ABox file")
    parser.add_argument("--tbox", action="append", default=[],
                        metavar="NAME=PATH",
                        help="preload an ontology from a TBox file")
    parser.add_argument("--async-io", action="store_true",
                        help="serve on the asyncio front-end (request "
                             "coalescing, micro-batching, queue-depth "
                             "backpressure; see repro.service.aserve)")
    parser.add_argument("--max-pending", type=int, default=128,
                        help="reject new POST work with 429 + Retry-After "
                             "once this many requests are queued or "
                             "executing (both front-ends; /poll has its "
                             "own budget, see --max-polls)")
    parser.add_argument("--max-polls", type=int, default=64,
                        help="reject new long-polls with 429 once this "
                             "many are parked (both front-ends; each "
                             "parked poll holds a thread)")
    parser.add_argument("--max-batch", type=int, default=16,
                        help="async front-end: cap on the requests "
                             "gathered into one micro-batch while "
                             "every worker is busy")
    parser.add_argument("--data-dir", default=None, metavar="DIR",
                        help="persist datasets, ontologies and "
                             "subscriptions to per-tenant SQLite files "
                             "under DIR (WAL mode); on startup the "
                             "server warm-restores everything the "
                             "directory holds")
    parser.add_argument("--max-datasets", type=int, default=None,
                        help="per-tenant dataset quota (403 past it)")
    parser.add_argument("--max-facts", type=int, default=None,
                        help="per-tenant stored-fact quota (403 past it)")
    parser.add_argument("--max-subscriptions", type=int, default=None,
                        help="per-tenant standing-query quota "
                             "(403 past it)")
    parser.add_argument("--rate-limit", type=float, default=None,
                        metavar="RPS",
                        help="per-tenant sustained requests/second; a "
                             "tenant exceeding it gets 429 + "
                             "Retry-After while others are unaffected")
    parser.add_argument("--rate-burst", type=float, default=20.0,
                        help="token-bucket burst headroom on top of "
                             "--rate-limit")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        metavar="MS",
                        help="log requests slower than MS milliseconds "
                             "(trace ID, plan fingerprint and per-span "
                             "timings; also kept in /stats under "
                             "observability.slow_query_log)")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"],
                        help="repro.* logger level")
    parser.add_argument("--log-json", action="store_true",
                        help="emit structured JSON log lines (one "
                             "object per line, trace-aware) instead of "
                             "plain text")


def build_service(args, error) -> OMQService:
    """An :class:`OMQService` from a parsed ``serve`` namespace, with
    the ``--dataset``/``--tbox`` preloads applied (shared by the
    threaded and asyncio front-ends)."""
    quota = TenantQuota(
        max_datasets=getattr(args, "max_datasets", None),
        max_facts=getattr(args, "max_facts", None),
        max_subscriptions=getattr(args, "max_subscriptions", None),
        rate_limit=getattr(args, "rate_limit", None),
        rate_burst=getattr(args, "rate_burst", 20.0))
    service = OMQService(cache_size=args.cache_size,
                         max_workers=args.workers,
                         default_engine=args.engine,
                         data_dir=getattr(args, "data_dir", None),
                         quota=quota,
                         shard_executor=getattr(args, "shard_executor",
                                                "auto"))
    if service.store is not None:
        restored = service.restore()
        if restored["datasets"] or restored["subscriptions"]:
            print(f"warm restart: restored {restored['datasets']} "
                  f"dataset(s), {restored['subscriptions']} "
                  f"subscription(s) across {restored['tenants']} "
                  f"tenant(s) from {service.store.data_dir}")
    for spec in args.dataset:
        name, _, path = spec.partition("=")
        if not path:
            return error(f"--dataset expects NAME=PATH, got {spec!r}")
        with open(path) as handle:
            # an explicit preload wins over a restored copy of the
            # same name (the file is the operator's source of truth)
            service.register_dataset(name, ABox.parse(handle.read()),
                                     shards=args.shards,
                                     replace=service.store is not None)
    for spec in args.tbox:
        name, _, path = spec.partition("=")
        if not path:
            return error(f"--tbox expects NAME=PATH, got {spec!r}")
        with open(path) as handle:
            service.register_tbox(name, TBox.parse(handle.read()))
    slow_ms = getattr(args, "slow_query_ms", None)
    if slow_ms is not None:
        service.obs.slow_query_ms = float(slow_ms)
    return service


def run(args, parser: Optional[argparse.ArgumentParser] = None) -> int:
    """Run the server from a parsed ``serve`` namespace."""
    def error(message: str) -> int:
        if parser is not None:
            parser.error(message)
        raise SystemExit(message)

    configure_logging(getattr(args, "log_level", "info"),
                      bool(getattr(args, "log_json", False)))
    if getattr(args, "async_io", False):
        from .aserve import run_async

        return run_async(args, parser)

    service = build_service(args, error)
    server = build_server(service, args.host, args.port,
                          max_pending=args.max_pending,
                          max_polls=getattr(args, "max_polls", 64))
    host, port = server.server_address[:2]
    print(f"repro service on http://{host}:{port} "
          f"(datasets: {', '.join(service.datasets()) or 'none'})")
    _install_shutdown_handlers(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # graceful teardown in either exit path: stop accepting, let
        # in-flight handler threads drain, then release the sessions
        # (and any shard worker processes) the service holds
        server.server_close()
        service.close()
    print("repro service stopped")
    return 0


def _install_shutdown_handlers(server: "ServiceServer") -> None:
    """SIGTERM/SIGINT stop the server *gracefully*: in-flight requests
    finish, the listening socket closes, ``serve_forever`` returns.

    ``shutdown()`` blocks until the serve loop exits, and the signal
    handler runs on the very thread that loop lives on — so the stop
    is handed to a helper thread instead of deadlocking.
    """
    import signal

    def stop(signum, _frame):
        if server.verbose:
            print(f"received signal {signum}; shutting down gracefully")
        threading.Thread(target=server.shutdown,
                         name="repro-serve-shutdown").start()

    for name in ("SIGTERM", "SIGINT"):
        signum = getattr(signal, name, None)
        if signum is not None:
            try:
                signal.signal(signum, stop)
            except ValueError:  # not on the main thread (tests)
                return

