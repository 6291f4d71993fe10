"""The JSON/HTTP serving protocol.

This module is the single definition of the wire protocol that
:mod:`repro.service.aserve` serves and :mod:`repro.client` speaks —
request types, the endpoint table and error shaping, with no sockets
in it:

* :class:`ProtocolError` — a request failure that already knows its
  HTTP status and its structured JSON body (``{"error": <message>,
  "error_type": <kind>}``).  Malformed JSON bodies and non-integer
  ``Content-Length`` headers become 400s here instead of leaking
  raw parser messages (or worse, a generic 500) to clients;
* :func:`parse_content_length` / :func:`decode_json_body` — body
  framing and decoding with those structured errors;
* the request types, one per kind of body: ``from_payload`` validates
  a decoded body at the edge, before anything runs, and ``payload()``
  is the body a client sends;
* :data:`ENDPOINTS` — every route, declared once: ``(method, path)``
  -> :class:`Endpoint` (request type, :class:`OMQService` callable,
  status, and where the server runs the call).  The server's
  dispatch, both clients and :class:`Router` all read it;
* :class:`Router` — the table against one service, with no sockets
  (tests and the benchmark drive requests through it).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..data.abox import ABox, GroundAtom
from ..obs import PROMETHEUS_CONTENT_TYPE, Trace
from ..obs.trace import mint_trace_id, span, valid_trace_id
from ..ontology import TBox
from ..queries import CQ
from ..rewriting.api import OMQ
from ..rewriting.plan import AnswerOptions, Answers
from ..store import DEFAULT_TENANT, QuotaError, RateLimited, TenantManager

#: Cap on long-poll blocking (seconds) — a client asking for more gets
#: this much, so one subscriber cannot hold a poll open indefinitely.
MAX_POLL_TIMEOUT = 30.0

#: Option keys that belong inside a request's ``"options"`` object;
#: beside it they are a 400 (see :func:`decode_options`).
FLAT_OPTION_KEYS = frozenset({"method", "engine", "timeout"})

#: Keys that were answer options once: a 400 naming them beside the
#: ``"options"`` object too (inside it, ``AnswerOptions`` rejects them),
#: rather than a setting silently ignored.
RETIRED_OPTION_KEYS = frozenset({"optimize_sql"})

#: The keys a ``POST /datasets`` body may carry; any other is a 400
#: rather than a setting silently ignored.
DATASET_KEYS = frozenset({"name", "data", "replace", "tenant", "trace"})

#: Request/response header carrying the trace ID.  Honored inbound
#: (clients correlate their logs with the server's), echoed on every
#: response — including errors — and minted when absent.
TRACE_HEADER = "X-Repro-Trace-Id"

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


# -- the text forms a client sends -------------------------------------------


def tbox_to_text(tbox: TBox) -> str:
    """``tbox`` in the ``TBox.parse`` surface syntax (round-trips:
    the re-parsed ontology has the same fingerprint)."""
    roles = sorted({role.name for role in tbox.roles})
    lines = []
    if roles:
        lines.append("roles: " + ", ".join(roles))
    lines.extend(str(axiom) for axiom in tbox.user_axioms)
    return "\n".join(lines)


def cq_to_text(cq: CQ) -> str:
    """The CQ body in the ``CQ.parse`` surface syntax (answer
    variables travel separately)."""
    return ", ".join(str(atom) for atom in cq.atoms)


def atom_text(atom: GroundAtom) -> str:
    """One ground atom in the ``ABox.parse`` surface syntax."""
    predicate, args = atom
    return f"{predicate}({', '.join(args)})"


def abox_to_text(abox: ABox) -> str:
    """``abox`` in the ``ABox.parse`` surface syntax."""
    return "\n".join(map(atom_text, sorted(abox.atoms())))


# -- field decoding ----------------------------------------------------------


def _required(payload: Dict, key: str):
    value = payload.get(key)
    if not value:
        raise ProtocolError(f"missing {key!r}")
    return value


def parse_atoms(texts, key: str) -> Tuple[GroundAtom, ...]:
    """Ground atoms from the list of strings like ``"R(a, b)"`` sent
    as ``key``."""
    if not isinstance(texts, list):
        raise ProtocolError(f"{key!r} must be a list of atom strings")
    atoms = []
    for text in texts:
        parsed = list(ABox.parse(text).atoms())
        if not parsed:
            raise ProtocolError(f"no ground atom found in {text!r}")
        atoms.extend(parsed)
    return tuple(atoms)


def answer_vars(raw) -> List[str]:
    if raw is None:
        return []
    if isinstance(raw, str):
        return [v.strip() for v in raw.split(",") if v.strip()]
    if not isinstance(raw, (list, tuple)):
        raise ProtocolError("'answers' must be a string or a list")
    return [str(v) for v in raw]


def decode_tbox(service, payload: Dict,
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
        return service.parse_tbox(text)
    spec = payload.get("tbox")
    if not isinstance(spec, str) or not spec.strip():
        raise ProtocolError("missing 'tbox' (name) or 'tbox_text'")
    try:
        return service.named_tbox(spec, tenant=tenant)
    except ValueError:
        if "<=" not in spec and "\n" not in spec:
            raise
    return service.parse_tbox(spec)


def decode_options(payload: Dict) -> AnswerOptions:
    """The request's :class:`AnswerOptions`: its ``"options"`` object.
    An option key beside it is rejected, not ignored — the request
    would run under another method or engine than it asked for."""
    retired = RETIRED_OPTION_KEYS.intersection(payload)
    if retired:
        raise ProtocolError(
            f"unknown answer option(s): {sorted(retired)}")
    flat = FLAT_OPTION_KEYS.intersection(payload)
    if flat:
        raise ProtocolError(
            f"option key(s) {sorted(flat)} must be sent inside the "
            "'options' object")
    raw = payload.get("options")
    if raw is not None and not isinstance(raw, dict):
        raise ProtocolError("'options' must be a JSON object")
    return AnswerOptions.coerce(raw)


def decode_omq(service, payload: Dict, tenant: str = DEFAULT_TENANT) -> OMQ:
    query = payload.get("query")
    if not query or not isinstance(query, str):
        raise ProtocolError("'query' must be a non-empty string")
    cq = CQ.parse(query, answer_vars=answer_vars(payload.get("answers")))
    return OMQ(decode_tbox(service, payload, tenant=tenant), cq)


def _subscription(payload: Dict) -> str:
    sid = payload.get("subscription")
    if not sid or not isinstance(sid, str):
        raise ProtocolError("missing 'subscription'")
    return sid


# -- the request types -------------------------------------------------------
#
# ``from_payload(payload, service, tenant)`` turns a decoded JSON body
# into the request, or raises a structured 400; ``payload()`` is the
# body a client sends for it.  An ontology or an ABox has no value
# equality, so those fields are left out of ``==``.  A ``GET`` route
# has no request type: its request is ``None``.


@dataclass(frozen=True)
class RegisterDataset:
    """``{"name", "data": "<ABox text>", "replace"?: bool}``."""

    dataset: str
    abox: ABox = field(compare=False)
    replace: bool = False

    @classmethod
    def from_payload(cls, payload, service=None, tenant=DEFAULT_TENANT):
        name = _required(payload, "name")
        replace = payload.get("replace", False)
        if not isinstance(replace, bool):
            raise ProtocolError("'replace' must be a JSON boolean, "
                                f"got {replace!r}")
        return cls(name, ABox.parse(payload.get("data", "")), replace)

    def payload(self):
        return {"name": self.dataset, "data": abox_to_text(self.abox),
                "replace": self.replace}


@dataclass(frozen=True)
class DropDataset:
    """``{"name"}``."""

    dataset: str

    @classmethod
    def from_payload(cls, payload, service=None, tenant=DEFAULT_TENANT):
        return cls(_required(payload, "name"))

    def payload(self):
        return {"name": self.dataset}


@dataclass(frozen=True)
class RegisterTBox:
    """``{"name", "tbox": "<TBox text>"}``."""

    name: str
    tbox: TBox = field(compare=False)

    @classmethod
    def from_payload(cls, payload, service=None, tenant=DEFAULT_TENANT):
        name = _required(payload, "name")
        text = payload.get("tbox", "")
        if not isinstance(text, str):
            raise ProtocolError("'tbox' must be TBox text")
        return cls(name, TBox.parse(text))

    def payload(self):
        return {"name": self.name, "tbox": tbox_to_text(self.tbox)}


@dataclass(frozen=True)
class BatchRequest:
    """An answer request, ``{"dataset", "tbox": <name or inline text>
    | "tbox_text", "query", "answers"?, "options"?}``: the body of
    ``/answer`` and ``/subscribe``, an entry of ``/batch`` and of
    :meth:`OMQService.answer_batch`.

    ``options`` may be an :class:`~repro.rewriting.plan.AnswerOptions`,
    a mapping or ``None``; it is coerced once, here.
    """

    dataset: Optional[str]
    omq: OMQ
    options: Optional[AnswerOptions] = None
    tenant: str = DEFAULT_TENANT
    #: Optional :class:`~repro.obs.trace.Trace` to record this entry's
    #: spans under — the batching server threads each request's
    #: trace through here (the worker thread running the job activates
    #: it; identity only, so it never partitions the dedup).  A client
    #: sets one to ask for the trace.
    trace: Optional[object] = field(default=None, compare=False)
    #: ``RewritingCache.key(omq, options)``, when the server computed
    #: it already; never on the wire, and trusted unchecked.
    plan_key: Optional[Tuple] = field(default=None, compare=False,
                                      repr=False)

    def __post_init__(self):
        object.__setattr__(self, "options",
                           AnswerOptions.coerce(self.options))

    @classmethod
    def from_payload(cls, payload, service=None, tenant=DEFAULT_TENANT):
        dataset = _required(payload, "dataset")
        options = decode_options(payload)
        return cls(dataset, decode_omq(service, payload, tenant=tenant),
                   options, tenant)

    def payload(self):
        body = {"tbox_text": tbox_to_text(self.omq.tbox),
                "query": cq_to_text(self.omq.query),
                "answers": list(self.omq.query.answer_vars),
                "options": self.options.as_dict()}
        if self.dataset is not None:
            body["dataset"] = self.dataset
        if self.trace is not None:
            body["trace"] = True
        return body


@dataclass(frozen=True)
class Explain(BatchRequest):
    """An answer request whose ``dataset`` is optional."""

    @classmethod
    def from_payload(cls, payload, service=None, tenant=DEFAULT_TENANT):
        omq = decode_omq(service, payload, tenant=tenant)
        return cls(payload.get("dataset"), omq, decode_options(payload),
                   tenant)


@dataclass(frozen=True)
class Batch:
    """``{"requests": [<answer request>, ...]}``."""

    requests: Tuple[BatchRequest, ...]

    @classmethod
    def from_payload(cls, payload, service=None, tenant=DEFAULT_TENANT):
        raw = payload.get("requests")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError("'requests' must be a non-empty list")
        if not all(isinstance(entry, dict) for entry in raw):
            raise ProtocolError("'requests' entries must be JSON objects")
        return cls(tuple(BatchRequest.from_payload(entry, service, tenant)
                         for entry in raw))

    def payload(self):
        return {"requests": [request.payload()
                             for request in self.requests]}


@dataclass(frozen=True)
class Update:
    """``{"dataset", "insert": ["R(a,b)", ...], "delete": [...]}``."""

    dataset: str
    inserts: Tuple[GroundAtom, ...] = ()
    deletes: Tuple[GroundAtom, ...] = ()

    @classmethod
    def from_payload(cls, payload, service=None, tenant=DEFAULT_TENANT):
        dataset = _required(payload, "dataset")
        return cls(dataset,
                   parse_atoms(payload.get("insert", []), "insert"),
                   parse_atoms(payload.get("delete", []), "delete"))

    def payload(self):
        return {"dataset": self.dataset,
                "insert": list(map(atom_text, self.inserts)),
                "delete": list(map(atom_text, self.deletes))}


@dataclass(frozen=True)
class Unsubscribe:
    """``{"subscription"}``."""

    subscription: str

    @classmethod
    def from_payload(cls, payload, service=None, tenant=DEFAULT_TENANT):
        return cls(_subscription(payload))

    def payload(self):
        return {"subscription": self.subscription}


@dataclass(frozen=True)
class Poll:
    """``{"subscription", "since_epoch"?, "timeout"?}``; the timeout
    is capped at :data:`MAX_POLL_TIMEOUT` seconds."""

    subscription: str
    since_epoch: Optional[int] = None
    timeout: float = 0.0

    @classmethod
    def from_payload(cls, payload, service=None, tenant=DEFAULT_TENANT):
        since = payload.get("since_epoch")
        if since is not None and (isinstance(since, bool)
                                  or not isinstance(since, int)):
            raise ProtocolError("'since_epoch' must be an integer")
        timeout = payload.get("timeout", 0.0)
        if (isinstance(timeout, bool) or not isinstance(timeout, (int, float))
                or not timeout >= 0):
            raise ProtocolError("'timeout' must be a non-negative number")
        return cls(_subscription(payload), since,
                   float(min(timeout, MAX_POLL_TIMEOUT)))

    def payload(self):
        return {"subscription": self.subscription,
                "since_epoch": self.since_epoch, "timeout": self.timeout}


# -- the endpoint table ------------------------------------------------------

#: Where the server runs an endpoint's call: on the event loop, in the
#: coalescing micro-batch, on the bounded worker pool, or on a thread
#: of its own that may park.
LOOP, BATCH, POOL, PARKED = "loop", "batch", "pool", "parked"


@dataclass(frozen=True)
class Endpoint:
    """One route of the protocol.

    ``call(service, request, tenant)`` runs a decoded ``request``
    against an :class:`OMQService` and returns the response: a JSON
    object, or for ``/answer`` the :class:`Answers` record (rendered
    as JSON or coded by whoever holds the socket).  The in-process
    client calls it directly; the server calls it where ``runs`` says.
    """

    method: str
    path: str
    #: The client verb that sends this request.
    verb: str
    #: The request type (``None``: a ``GET`` without a body).
    request: Optional[type]
    call: Callable[[Any, Any, str], Any]
    status: int = 200
    runs: str = POOL
    #: Admission units a request costs against ``max_pending``
    #: (``None``: not admission-controlled).
    cost: Optional[Callable[[Any], int]] = None
    #: Success changes the named dataset's answers: the server bumps
    #: its coalescing epoch.
    bumps: bool = False
    #: The keys a body may carry (``None``: any; others are ignored).
    keys: Optional[FrozenSet[str]] = None
    content_type: str = "application/json"

    @property
    def answers(self) -> bool:
        """Whether the response is an :class:`Answers` record: the
        micro-batched route's is."""
        return self.runs == BATCH

    def decode(self, payload: Dict, service,
               tenant: str = DEFAULT_TENANT):
        """``payload`` as this route's request, validated at the edge
        (timed as the ``decode`` span)."""
        if self.request is None:
            return None
        with span("decode"):
            if self.keys is not None and not self.keys.issuperset(payload):
                raise ProtocolError(
                    f"unknown {self.path} key(s) "
                    f"{sorted(set(payload) - self.keys)}")
            return self.request.from_payload(payload, service, tenant)


def _register_dataset(service, request: RegisterDataset, tenant: str):
    service.register_dataset(request.dataset, request.abox,
                             replace=request.replace, tenant=tenant)
    return {"registered": request.dataset}


def _unregister_dataset(service, request: DropDataset, tenant: str):
    try:
        service.unregister_dataset(request.dataset, tenant=tenant)
    except KeyError:
        raise ProtocolError(f"unknown dataset {request.dataset!r}",
                            status=404, error_type="not_found") from None
    return {"unregistered": request.dataset}


def _register_tbox(service, request: RegisterTBox, tenant: str):
    service.register_tbox(request.name, request.tbox, tenant=tenant)
    return {"registered": request.name}


def _batch(service, request: Batch, tenant: str):
    results = service.answer_batch(list(request.requests))
    return {"results": [Router.result_payload(result)
                        for result in results]}


def _subscribe(service, request: BatchRequest, tenant: str):
    sub = service.subscribe(request.dataset, request.omq,
                            options=request.options, tenant=tenant)
    return service.standing.snapshot(sub.subscription_id)


def _unsubscribe(service, request: Unsubscribe, tenant: str):
    service.unsubscribe(request.subscription, tenant=tenant)
    return {"unsubscribed": request.subscription}


#: Every route the server serves, keyed by ``(method, path)``.
ENDPOINTS: Dict[Tuple[str, str], Endpoint] = {
    (endpoint.method, endpoint.path): endpoint for endpoint in (
        Endpoint("GET", "/health", "health", None,
                 lambda service, request, tenant: service.health(),
                 runs=LOOP),
        Endpoint("GET", "/stats", "stats", None,
                 lambda service, request, tenant: service.stats()),
        Endpoint("GET", "/metrics", "metrics", None,
                 lambda service, request, tenant:
                 service.obs.render_prometheus(),
                 runs=LOOP, content_type=PROMETHEUS_CONTENT_TYPE),
        Endpoint("POST", "/datasets", "register_dataset", RegisterDataset,
                 _register_dataset, status=201, bumps=True,
                 keys=DATASET_KEYS),
        Endpoint("POST", "/datasets/drop", "unregister_dataset",
                 DropDataset, _unregister_dataset),
        Endpoint("POST", "/tboxes", "register_tbox", RegisterTBox,
                 _register_tbox, status=201),
        Endpoint("POST", "/answer", "answer", BatchRequest,
                 lambda service, request, tenant: service.answer(
                     request.dataset, request.omq, options=request.options,
                     tenant=tenant),
                 runs=BATCH, cost=lambda request: 1),
        Endpoint("POST", "/explain", "explain", Explain,
                 lambda service, request, tenant: service.explain(
                     request.omq, options=request.options,
                     dataset=request.dataset, tenant=tenant)),
        Endpoint("POST", "/batch", "batch", Batch, _batch,
                 cost=lambda batch: len(batch.requests)),
        Endpoint("POST", "/update", "update", Update,
                 lambda service, request, tenant: service.update(
                     request.dataset, inserts=request.inserts,
                     deletes=request.deletes, tenant=tenant).as_dict(),
                 bumps=True),
        Endpoint("POST", "/subscribe", "subscribe", BatchRequest,
                 _subscribe, status=201),
        Endpoint("POST", "/unsubscribe", "unsubscribe", Unsubscribe,
                 _unsubscribe),
        Endpoint("POST", "/poll", "poll", Poll,
                 lambda service, request, tenant: service.poll(
                     request.subscription, since_epoch=request.since_epoch,
                     timeout=request.timeout, tenant=tenant),
                 runs=PARKED),
    )}

#: The endpoints by client verb.
VERBS: Dict[str, Endpoint] = {endpoint.verb: endpoint
                              for endpoint in ENDPOINTS.values()}

_PATHS = frozenset(path for _, path in ENDPOINTS)
_METHODS = frozenset(method for method, _ in ENDPOINTS)


def route(method: str, path: str) -> Endpoint:
    """The endpoint serving ``method path``, or a structured 404."""
    endpoint = ENDPOINTS.get((method, path))
    if endpoint is not None:
        return endpoint
    if method in _METHODS:
        raise ProtocolError(f"unknown path {path!r}", status=404,
                            error_type="not_found")
    raise ProtocolError(f"unsupported method {method!r}", status=404,
                        error_type="not_found")


def metric_route(path: str) -> str:
    """``path`` reduced to a bounded metric label: a route's path, or
    ``"other"``, so hostile paths cannot explode the ``route`` label's
    cardinality."""
    base = path.split("?", 1)[0]
    return base if base in _PATHS else "other"


def parks(method: str, path: str) -> bool:
    """Whether ``method path`` is a route whose call may park."""
    endpoint = ENDPOINTS.get((method, path))
    return endpoint is not None and endpoint.runs == PARKED


class Router:
    """The endpoint table against one :class:`OMQService`, with no
    sockets: decode, call, render."""

    def __init__(self, service):
        self.service = service

    def observe_request(self, method: str, path: str, status: int,
                        seconds: float,
                        trace: Optional[Trace] = None) -> None:
        """Account one finished request (HTTP metric families + the
        slow-query log); the server calls this once per response."""
        self.service.obs.observe_http(metric_route(path), method,
                                      status, seconds, trace,
                                      parked=parks(method, path))

    def throttle(self, tenant: str, method: str, path: str) -> None:
        """Charge one request against the tenant's token bucket
        (raises :class:`~repro.store.tenants.RateLimited` -> 429 +
        ``Retry-After``).  The server calls this once per admitted
        request, before dispatch.

        ``GET`` routes (health checks, stats scrapes) and a parked
        route (a long-poll is idle waiting, not work) are exempt.
        """
        if method != "POST" or parks(method, path):
            return
        self.service.tenants.throttle(tenant)

    def decode_tbox(self, payload: Dict,
                    tenant: str = DEFAULT_TENANT) -> TBox:
        """:func:`decode_tbox` against this router's service."""
        return decode_tbox(self.service, payload, tenant=tenant)

    decode_options = staticmethod(decode_options)

    def decode_answer(self, payload: Dict,
                      tenant: str = DEFAULT_TENANT) -> BatchRequest:
        """One ``/answer`` (or ``/batch`` entry) as a ``BatchRequest``."""
        return BatchRequest.from_payload(payload, self.service, tenant)

    @staticmethod
    def result_payload(result: Answers) -> Dict:
        """The JSON fields of ``result``, built under a ``payload`` span
        (the rows' first decode, ``decode-rows``, and their sort)."""
        with span("payload"):
            return result.payload()

    def handle(self, method: str, path: str, payload: Dict,
               tenant: str = DEFAULT_TENANT) -> Tuple[int, Dict]:
        """Dispatch one decoded request through :data:`ENDPOINTS`;
        raises on failure (callers shape errors through
        :func:`error_payload`).

        ``tenant`` (resolved by the server from the ``X-Repro-Tenant``
        header / ``tenant`` field via :func:`resolve_tenant`) scopes
        every dataset, ontology and subscription the request names.
        """
        endpoint = route(method, path)
        request = endpoint.decode(payload, self.service, tenant)
        response = endpoint.call(self.service, request, tenant)
        if isinstance(response, Answers):
            response = self.result_payload(response)
        return endpoint.status, response
