"""The JSON/HTTP serving protocol.

This module is the single definition of the wire protocol that
:mod:`repro.service.aserve` serves — request decoding, route dispatch
and error shaping, with no sockets in it:

* :class:`ProtocolError` — a request failure that already knows its
  HTTP status and its structured JSON body (``{"error": <message>,
  "error_type": <kind>}``).  Malformed JSON bodies and non-integer
  ``Content-Length`` headers become 400s here instead of leaking
  raw parser messages (or worse, a generic 500) to clients;
* :func:`parse_content_length` / :func:`decode_json_body` — body
  framing and decoding with those structured errors;
* :class:`Router` — decodes payloads into service calls
  (``/answer``, ``/batch``, ``/datasets``, ...) and renders results.
  The server delegates every route here; it only intercepts ``/answer``
  to add coalescing and micro-batching around the same
  :meth:`Router.decode_answer` / :meth:`Router.result_payload` pair,
  and ``/poll`` to park it on a thread of its own.
"""

from __future__ import annotations

import json
import re
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..data.abox import ABox
from ..engine import ENGINES
from ..obs import PROMETHEUS_CONTENT_TYPE, Trace
from ..obs.trace import mint_trace_id, span, valid_trace_id
from ..ontology import TBox
from ..queries import CQ
from ..rewriting.api import OMQ
from ..rewriting.plan import AnswerOptions, Answers
from ..store import DEFAULT_TENANT, QuotaError, RateLimited, TenantManager
from .service import BatchRequest, OMQService

#: Cap on long-poll blocking (seconds) — a client asking for more gets
#: this much, so one subscriber cannot hold a poll open indefinitely.
MAX_POLL_TIMEOUT = 30.0

#: Option keys that belong inside a request's ``"options"`` object;
#: beside it they are a 400 (see :meth:`Router.decode_options`).
FLAT_OPTION_KEYS = frozenset({"method", "engine", "optimize_sql",
                              "timeout"})

#: The keys a ``POST /datasets`` body may carry; any other is a 400
#: rather than a setting silently ignored.
DATASET_KEYS = frozenset({"name", "data", "replace", "tenant", "trace"})

#: Request/response header carrying the trace ID.  Honored inbound
#: (clients correlate their logs with the server's), echoed on every
#: response — including errors — and minted when absent.
TRACE_HEADER = "X-Repro-Trace-Id"

#: The routes the server serves; anything else is folded into
#: ``"other"`` for metric labels, so hostile paths cannot explode the
#: ``route`` label's cardinality.
KNOWN_ROUTES = frozenset({
    "/health", "/stats", "/metrics", "/datasets", "/datasets/drop",
    "/tboxes", "/answer",
    "/explain", "/batch", "/update", "/subscribe", "/unsubscribe",
    "/poll"})

#: An ``Accept`` parameter that refuses its media type.
_Q_ZERO = re.compile(r"\s*q\s*=\s*0(\.0{0,3})?\s*", re.IGNORECASE)


def begin_trace(header: Optional[str]) -> Trace:
    """The request's :class:`~repro.obs.trace.Trace`: the inbound
    ``X-Repro-Trace-Id`` is honored when it is a sane header value,
    a fresh ID is minted otherwise."""
    trace_id = None
    if header is not None and valid_trace_id(header.strip()):
        trace_id = header.strip()
    return Trace(trace_id or mint_trace_id())


def metric_route(path: str) -> str:
    """``path`` reduced to a bounded metric label."""
    base = path.split("?", 1)[0]
    return base if base in KNOWN_ROUTES else "other"


def accepts(accept: str, media_type: str) -> bool:
    """Whether an ``Accept`` value names ``media_type`` itself and does
    not refuse it with ``q=0`` (a wildcard never names it: JSON is the
    default)."""
    for item in accept.split(","):
        name, *params = item.split(";")
        if name.strip().lower() == media_type:
            return not any(map(_Q_ZERO.fullmatch, params))
    return False


def _json_bytes(payload: Dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def encode_body(payload: Dict, trace: Optional[Trace] = None,
                encode: Callable[[Dict], bytes] = _json_bytes) -> bytes:
    """Serialize a response body, timing it as the ``encode`` span.

    When the client asked for the trace (``"trace": true`` in the
    request payload), the trace payload — including this encode span —
    is spliced into the body, at the cost of serialising twice; the
    common untraced path serialises once.  ``encode`` turns the fields
    into bytes: JSON, or :meth:`Answers.wire` for a coded ``/answer``.
    """
    if trace is None:
        return encode(payload)
    if trace.wanted:
        with trace.span("encode"):
            encode(payload)
        return encode({**payload, "trace": trace.payload()})
    with trace.span("encode"):
        return encode(payload)


class ProtocolError(ValueError):
    """A request rejection carrying its HTTP status and error body.

    ``error_type`` is a small machine-readable vocabulary —
    ``bad_request``, ``not_found``, ``overloaded``, ``internal`` — so
    clients can branch without parsing prose.  ``retry_after``
    (seconds) is set on ``overloaded`` rejections and travels both as
    a body field and as the HTTP ``Retry-After`` header.
    """

    def __init__(self, message: str, status: int = 400,
                 error_type: str = "bad_request",
                 retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.retry_after = retry_after

    def payload(self) -> Dict[str, object]:
        body: Dict[str, object] = {"error": str(self),
                                   "error_type": self.error_type}
        if self.retry_after is not None:
            body["retry_after"] = self.retry_after
        return body

    def headers(self) -> Dict[str, str]:
        if self.retry_after is None:
            return {}
        return {"Retry-After": f"{self.retry_after:g}"}


def overloaded_error(depth: int, max_pending: int,
                     retry_after: float = 1.0) -> ProtocolError:
    """The 429 raised when the request queue (or the parked-poll
    budget) is full; clients surface it as
    ``ServiceError.retry_after``."""
    return ProtocolError(
        f"server overloaded: {depth} requests pending "
        f"(max {max_pending}); retry later",
        status=429, error_type="overloaded", retry_after=retry_after)


def error_payload(error: Exception,
                  trace_id: Optional[str] = None
                  ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
    """Map any handler exception to ``(status, body, extra_headers)``.

    The one error-shaping path: client mistakes
    (``ValueError`` and friends — bad fields, unknown datasets,
    malformed atoms) are 400s, everything else is a 500 that never
    drops the connection.  ``trace_id`` lands in the body (and the
    caller echoes it as the header), so 429/403/500s are attributable
    in client logs.
    """
    if isinstance(error, ProtocolError):
        status, body, headers = (error.status, error.payload(),
                                 error.headers())
    elif isinstance(error, RateLimited):
        # same wire shape as queue-depth backpressure, so clients
        # handle both through one ServiceError.retry_after path
        status, body, headers = 429, \
            {"error": str(error), "error_type": "rate_limited",
             "retry_after": error.retry_after}, \
            {"Retry-After": f"{error.retry_after:g}"}
    elif isinstance(error, QuotaError):
        status, body, headers = 403, \
            {"error": str(error), "error_type": "quota_exceeded",
             "resource": error.resource, "limit": error.limit}, {}
    elif isinstance(error, (ValueError, KeyError, TypeError)):
        status, body, headers = 400, \
            {"error": str(error), "error_type": "bad_request"}, {}
    else:
        status, body, headers = 500, \
            {"error": f"internal error: {error}",
             "error_type": "internal"}, {}
    if trace_id is not None:
        body["trace_id"] = trace_id
    return status, body, headers


#: Request header carrying the caller's tenant (the ``tenant`` payload
#: field overrides it; absent both, the default tenant is assumed).
TENANT_HEADER = "X-Repro-Tenant"


def resolve_tenant(header: Optional[str], payload: Optional[Dict]) -> str:
    """The request's tenant from the ``X-Repro-Tenant`` header and/or
    the payload's ``tenant`` field (field wins), validated."""
    tenant = None
    if payload is not None and payload.get("tenant") is not None:
        tenant = payload["tenant"]
    elif header is not None:
        tenant = header.strip()
    if tenant is None or tenant == DEFAULT_TENANT:
        return DEFAULT_TENANT
    if not isinstance(tenant, str):
        raise ProtocolError("'tenant' must be a string")
    try:
        return TenantManager.validate(tenant)
    except ValueError as error:
        raise ProtocolError(str(error)) from None


def parse_content_length(raw: Optional[str]) -> int:
    """The request body length; absent/empty means no body.

    A non-integer or negative header is the client's bug and must be
    a structured 400, not an internal error.
    """
    if raw is None or not raw.strip():
        return 0
    try:
        length = int(raw)
    except ValueError:
        raise ProtocolError(
            f"invalid Content-Length header {raw!r}: "
            "expected a non-negative integer") from None
    if length < 0:
        raise ProtocolError(
            f"invalid Content-Length header {raw!r}: must be >= 0")
    return length


def decode_json_body(body: bytes) -> Dict:
    """The request payload as a dict (empty body -> ``{}``)."""
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except UnicodeDecodeError as error:
        raise ProtocolError(f"request body is not valid UTF-8: "
                            f"{error}") from None
    except json.JSONDecodeError as error:
        raise ProtocolError(f"malformed JSON body: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object, got "
                            f"{type(payload).__name__}")
    return payload


def parse_atoms(texts) -> List[Tuple[str, Tuple[str, ...]]]:
    """Ground atoms from strings like ``"R(a, b)"``."""
    atoms: List[Tuple[str, Tuple[str, ...]]] = []
    for text in texts:
        parsed = list(ABox.parse(text).atoms())
        if not parsed:
            raise ProtocolError(f"no ground atom found in {text!r}")
        atoms.extend(parsed)
    return atoms


def answer_vars(raw) -> List[str]:
    if raw is None:
        return []
    if isinstance(raw, str):
        return [v.strip() for v in raw.split(",") if v.strip()]
    if not isinstance(raw, (list, tuple)):
        raise ProtocolError("'answers' must be a string or a list")
    return [str(v) for v in raw]


class Router:
    """Decode requests against one :class:`OMQService` and dispatch."""

    def __init__(self, service: OMQService):
        self.service = service
        self._started = time.time()

    # -- observability -------------------------------------------------------

    def metrics_text(self) -> Tuple[bytes, str]:
        """``GET /metrics``: the service registry in Prometheus text
        format, plus its content type."""
        text = self.service.obs.render_prometheus()
        return text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE

    def observe_request(self, method: str, path: str, status: int,
                        seconds: float,
                        trace: Optional[Trace] = None) -> None:
        """Account one finished request (HTTP metric families + the
        slow-query log); the server calls this once per response."""
        self.service.obs.observe_http(metric_route(path), method,
                                      status, seconds, trace)

    # -- admission -----------------------------------------------------------

    def throttle(self, tenant: str, method: str, path: str) -> None:
        """Charge one request against the tenant's token bucket
        (raises :class:`~repro.store.tenants.RateLimited` -> 429 +
        ``Retry-After``).  The server calls this once per admitted
        request, before dispatch.

        ``GET`` routes (health checks, stats scrapes) and ``/poll``
        (a parked long-poll is idle waiting, not work) are exempt.
        """
        if method != "POST" or path == "/poll":
            return
        self.service.tenants.throttle(tenant)

    # -- request decoding ----------------------------------------------------

    def decode_tbox(self, payload: Dict,
                    tenant: str = DEFAULT_TENANT) -> TBox:
        """The request ontology: ``tbox_text`` (inline) beats ``tbox``.

        ``tbox`` is a registered name (looked up in the requesting
        tenant's namespace); as a convenience an inline text is also
        accepted there when it is unambiguous (contains ``<=`` or a
        newline — impossible in a registered name).
        """
        text = payload.get("tbox_text")
        if text is not None:
            if not isinstance(text, str) or not text.strip():
                raise ProtocolError("'tbox_text' must be TBox text")
            return self.service.parse_tbox(text)
        spec = payload.get("tbox")
        if not isinstance(spec, str) or not spec.strip():
            raise ProtocolError("missing 'tbox' (name) or 'tbox_text'")
        try:
            return self.service.named_tbox(spec, tenant=tenant)
        except ValueError:
            if "<=" not in spec and "\n" not in spec:
                raise
        return self.service.parse_tbox(spec)

    @staticmethod
    def decode_options(payload: Dict) -> AnswerOptions:
        """The request's :class:`AnswerOptions`: its ``"options"``
        object.  An option key beside it is rejected, not ignored —
        the request would run under another method or engine than it
        asked for."""
        flat = FLAT_OPTION_KEYS.intersection(payload)
        if flat:
            raise ProtocolError(
                f"option key(s) {sorted(flat)} must be sent inside the "
                "'options' object")
        raw = payload.get("options")
        if raw is not None and not isinstance(raw, dict):
            raise ProtocolError("'options' must be a JSON object")
        return AnswerOptions.coerce(raw)

    def decode_omq(self, payload: Dict,
                   tenant: str = DEFAULT_TENANT) -> OMQ:
        query = payload.get("query")
        if not query or not isinstance(query, str):
            raise ProtocolError("'query' must be a non-empty string")
        cq = CQ.parse(query, answer_vars=answer_vars(payload.get("answers")))
        return OMQ(self.decode_tbox(payload, tenant=tenant), cq)

    def decode_answer(self, payload: Dict,
                      tenant: str = DEFAULT_TENANT) -> BatchRequest:
        """One ``/answer`` (or ``/batch`` entry) as a ``BatchRequest``."""
        dataset = payload.get("dataset")
        if not dataset:
            raise ProtocolError("missing 'dataset'")
        options = self.decode_options(payload)
        return BatchRequest(dataset=dataset,
                            omq=self.decode_omq(payload, tenant=tenant),
                            options=options, tenant=tenant)

    @staticmethod
    def result_payload(result: Answers) -> Dict:
        """The JSON fields of ``result``, built under a ``payload`` span
        (the rows' first decode, ``decode-rows``, and their sort)."""
        with span("payload"):
            return result.payload()

    # -- dispatch ------------------------------------------------------------

    def health_payload(self) -> Dict:
        """``GET /health``: liveness plus what an orchestrator needs
        to gate on — the engines this process answers with, storage
        state, uptime."""
        return {"status": "ok",
                "engines": list(ENGINES),
                "datasets": len(self.service.datasets()),
                "uptime_seconds": round(time.time() - self._started, 3),
                "storage": self.service.storage_status()}

    def handle(self, method: str, path: str, payload: Dict,
               tenant: str = DEFAULT_TENANT) -> Tuple[int, Dict]:
        """Dispatch one decoded request; raises on failure (callers
        shape errors through :func:`error_payload`).

        ``tenant`` (resolved by the server from the ``X-Repro-Tenant``
        header / ``tenant`` field via :func:`resolve_tenant`) scopes
        every dataset, ontology and subscription the request names.
        """
        service = self.service
        if method == "GET":
            if path == "/health":
                return 200, self.health_payload()
            if path == "/stats":
                return 200, self.service.stats()
            raise ProtocolError(f"unknown path {path!r}", status=404,
                                error_type="not_found")
        if method != "POST":
            raise ProtocolError(f"unsupported method {method!r}",
                                status=404, error_type="not_found")
        if path == "/datasets":
            unknown = set(payload) - DATASET_KEYS
            if unknown:
                raise ProtocolError(
                    f"unknown /datasets key(s) {sorted(unknown)}")
            name = payload.get("name")
            if not name:
                raise ProtocolError("missing 'name'")
            replace = payload.get("replace", False)
            if not isinstance(replace, bool):
                raise ProtocolError("'replace' must be a JSON boolean, "
                                    f"got {replace!r}")
            service.register_dataset(
                name, ABox.parse(payload.get("data", "")),
                replace=replace, tenant=tenant)
            return 201, {"registered": name}
        if path == "/datasets/drop":
            name = payload.get("name")
            if not name:
                raise ProtocolError("missing 'name'")
            try:
                service.unregister_dataset(name, tenant=tenant)
            except KeyError:
                raise ProtocolError(f"unknown dataset {name!r}",
                                    status=404, error_type="not_found")
            return 200, {"unregistered": name}
        if path == "/tboxes":
            name = payload.get("name")
            if not name:
                raise ProtocolError("missing 'name'")
            service.register_tbox(name, TBox.parse(payload.get("tbox", "")),
                                  tenant=tenant)
            return 201, {"registered": name}
        if path == "/answer":
            with span("decode"):
                request = self.decode_answer(payload, tenant=tenant)
            result = service.answer(request.dataset, request.omq,
                                    options=request.options,
                                    tenant=tenant)
            return 200, self.result_payload(result)
        if path == "/explain":
            with span("decode"):
                omq = self.decode_omq(payload, tenant=tenant)
                options = self.decode_options(payload)
            report = service.explain(omq, options=options,
                                     dataset=payload.get("dataset"),
                                     tenant=tenant)
            return 200, report
        if path == "/batch":
            with span("decode"):
                requests = self.decode_batch(payload, tenant=tenant)
            results = service.answer_batch(requests)
            return 200, {"results": [self.result_payload(result)
                                     for result in results]}
        if path == "/update":
            dataset = payload.get("dataset")
            if not dataset:
                raise ProtocolError("missing 'dataset'")
            result = service.update(
                dataset,
                inserts=parse_atoms(payload.get("insert", ())),
                deletes=parse_atoms(payload.get("delete", ())),
                tenant=tenant)
            return 200, result.as_dict()
        if path == "/subscribe":
            dataset = payload.get("dataset")
            if not dataset:
                raise ProtocolError("missing 'dataset'")
            sub = service.subscribe(dataset,
                                    self.decode_omq(payload, tenant=tenant),
                                    options=self.decode_options(payload),
                                    tenant=tenant)
            return 201, service.standing.snapshot(sub.subscription_id)
        if path == "/unsubscribe":
            service.unsubscribe(self._subscription_id(payload),
                                tenant=tenant)
            return 200, {"unsubscribed": payload["subscription"]}
        if path == "/poll":
            since = payload.get("since_epoch")
            if since is not None and not isinstance(since, int):
                raise ProtocolError("'since_epoch' must be an integer")
            timeout = payload.get("timeout", 0.0)
            if not isinstance(timeout, (int, float)) or timeout < 0:
                raise ProtocolError(
                    "'timeout' must be a non-negative number")
            return 200, service.poll(
                self._subscription_id(payload), since_epoch=since,
                timeout=min(float(timeout), MAX_POLL_TIMEOUT),
                tenant=tenant)
        raise ProtocolError(f"unknown path {path!r}", status=404,
                            error_type="not_found")

    @staticmethod
    def _subscription_id(payload: Dict) -> str:
        sid = payload.get("subscription")
        if not sid or not isinstance(sid, str):
            raise ProtocolError("missing 'subscription'")
        return sid

    def decode_batch(self, payload: Dict,
                     tenant: str = DEFAULT_TENANT) -> List[BatchRequest]:
        raw = payload.get("requests")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError("'requests' must be a non-empty list")
        return [self.decode_answer(entry, tenant=tenant)
                for entry in raw]
