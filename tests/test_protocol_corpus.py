"""The wire protocol, replayed from a recorded request/response corpus.

``tests/corpus/protocol.json`` holds one exchange per entry:
the raw request (method, path, headers, body) and the response the
server gave (status, content type, masked body).  It covers every
route's success, each structured error and both ``/answer`` bodies
(JSON and dictionary-coded).  The replay sends the same requests, in
the same order, to fresh servers and requires the same responses.

Masked before comparing (nothing else is): trace ids, timings
(``seconds``-like fields, ``retry_after``, the ``*_seconds`` metric
lines), the random half of subscription ids, and the order of the
coded body's constants and rows (a set, numbered per process).  JSON
bodies are compared as re-serialised with the server's own key order,
so a renamed, reordered, added or dropped field is a difference.

:data:`DELIBERATE` lists the exchanges whose response changed on
purpose since the recording (client-input 500s and silently accepted
values that are now structured 400s); those are checked against their
new expectation instead.

``pytest tests/test_protocol_corpus.py --update-golden`` re-records the
file from the current server.
"""

from __future__ import annotations

import json
import re
import socket
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from repro.rewriting.plan import ROWS_TYPE, Answers
from repro.service import OMQService, serve_in_background
from repro.store import TenantQuota

CORPUS = Path(__file__).parent / "corpus" / "protocol.json"

TBOX = "roles: P, R, S\nP <= S\nP <= R-"
DATA = "R(a,b)\nS(b,c)\nA_P-(d)\nR(d,e)"
QUERY = {"query": "R(x,y), S(y,z)", "answers": ["x", "z"]}

#: Exchange name -> (status, error_type, message fragment) now.
DELIBERATE = {
    "tboxes-tbox-not-text": (400, "bad_request", "'tbox' must be"),
    "batch-entry-not-object": (400, "bad_request", "'requests'"),
    "update-insert-a-string": (400, "bad_request", "'insert' must be"),
    "poll-timeout-true": (400, "bad_request", "'timeout' must be"),
    "poll-since-epoch-true": (400, "bad_request", "'since_epoch' must be"),
}

_TIMINGS = {"seconds", "retry_after", "trace_id", "stages", "mean",
            "p50", "p95", "p99"}
_SUBSCRIPTION = re.compile(r"(sub-\d+)-[0-9a-f]{8}")
_RETRY = re.compile(r"retry in [0-9.]+s")


def _answer(**fields) -> Dict[str, object]:
    return {"dataset": "demo", "tbox": "onto", **QUERY, **fields}


def _sequence() -> Iterator[Tuple]:
    """``(phase, name, method, path, body, headers)`` in replay order.

    ``body`` is a JSON value, raw ``bytes`` or ``None`` (no body); the
    string ``{sub}`` in it stands for the last subscription id."""
    main = "main"
    yield main, "health", "GET", "/health", None, {}
    yield main, "datasets-register", "POST", "/datasets", \
        {"name": "demo", "data": DATA}, {}
    yield main, "datasets-duplicate", "POST", "/datasets", \
        {"name": "demo", "data": DATA}, {}
    yield main, "datasets-replace", "POST", "/datasets", \
        {"name": "demo", "data": DATA, "replace": True}, {}
    yield main, "datasets-unknown-key", "POST", "/datasets", \
        {"name": "x", "data": "", "shards": 2}, {}
    yield main, "datasets-missing-name", "POST", "/datasets", \
        {"data": DATA}, {}
    yield main, "datasets-replace-not-bool", "POST", "/datasets", \
        {"name": "demo", "data": DATA, "replace": "yes"}, {}
    yield main, "datasets-bad-atom", "POST", "/datasets", \
        {"name": "x", "data": "R(a"}, {}
    yield main, "tboxes-register", "POST", "/tboxes", \
        {"name": "onto", "tbox": TBOX}, {}
    yield main, "tboxes-missing-name", "POST", "/tboxes", {"tbox": TBOX}, {}
    yield main, "answer-json", "POST", "/answer", _answer(), {}
    yield main, "answer-coded", "POST", "/answer", \
        _answer(tbox=None, tbox_text=TBOX), {"Accept": ROWS_TYPE}
    yield main, "answer-inline-tbox", "POST", "/answer", \
        _answer(tbox=TBOX), {}
    yield main, "answer-options", "POST", "/answer", \
        _answer(options={"method": "lin", "engine": "sql"}), {}
    yield main, "answer-string-answers", "POST", "/answer", \
        _answer(answers="x, z"), {}
    yield main, "answer-traced", "POST", "/answer", _answer(trace=True), {}
    yield main, "answer-missing-dataset", "POST", "/answer", \
        _answer(dataset=None), {}
    yield main, "answer-unknown-dataset", "POST", "/answer", \
        _answer(dataset="nope"), {}
    yield main, "answer-missing-query", "POST", "/answer", \
        _answer(query=""), {}
    yield main, "answer-missing-tbox", "POST", "/answer", \
        _answer(tbox=None), {}
    yield main, "answer-unknown-tbox", "POST", "/answer", \
        _answer(tbox="nope"), {}
    yield main, "answer-empty-tbox-text", "POST", "/answer", \
        _answer(tbox_text=" "), {}
    yield main, "answer-flat-option", "POST", "/answer", \
        _answer(method="lin"), {}
    yield main, "answer-options-not-object", "POST", "/answer", \
        _answer(options=["lin"]), {}
    yield main, "answer-unknown-option", "POST", "/answer", \
        _answer(options={"shards": 2}), {}
    yield main, "answer-unknown-engine", "POST", "/answer", \
        _answer(options={"engine": "duckdb"}), {}
    yield main, "answer-answers-not-list", "POST", "/answer", \
        _answer(answers=5), {}
    yield main, "answer-bad-query", "POST", "/answer", \
        _answer(query="R(x,"), {}
    yield main, "answer-unknown-tenant-field", "POST", "/answer", \
        _answer(tenant="no such tenant!"), {}
    yield main, "explain", "POST", "/explain", \
        {"tbox": "onto", **QUERY, "options": {"method": "lin"}}, {}
    yield main, "explain-dataset", "POST", "/explain", _answer(), {}
    yield main, "explain-missing-query", "POST", "/explain", \
        {"tbox": "onto"}, {}
    yield main, "explain-adaptive-no-dataset", "POST", "/explain", \
        {"tbox": "onto", **QUERY, "options": {"method": "adaptive"}}, {}
    yield main, "batch", "POST", "/batch", \
        {"requests": [_answer(), _answer(options={"method": "tw"})]}, {}
    yield main, "batch-empty", "POST", "/batch", {"requests": []}, {}
    yield main, "batch-entry-missing-dataset", "POST", "/batch", \
        {"requests": [_answer(), _answer(dataset=None)]}, {}
    yield main, "subscribe", "POST", "/subscribe", _answer(), {}
    yield main, "subscribe-missing-dataset", "POST", "/subscribe", \
        _answer(dataset=None), {}
    yield main, "update", "POST", "/update", \
        {"dataset": "demo", "insert": ["P(f,g)", "S(e, h)"]}, {}
    yield main, "update-delete", "POST", "/update", \
        {"dataset": "demo", "delete": ["R(a, b)"]}, {}
    yield main, "update-missing-dataset", "POST", "/update", \
        {"insert": ["A(c)"]}, {}
    yield main, "update-unknown-dataset", "POST", "/update", \
        {"dataset": "nope", "insert": ["A(c)"]}, {}
    yield main, "update-no-atom", "POST", "/update", \
        {"dataset": "demo", "insert": ["   "]}, {}
    yield main, "poll", "POST", "/poll", \
        {"subscription": "{sub}", "since_epoch": 0, "timeout": 0}, {}
    yield main, "poll-caught-up", "POST", "/poll", \
        {"subscription": "{sub}", "since_epoch": 2}, {}
    yield main, "poll-since-epoch-not-int", "POST", "/poll", \
        {"subscription": "{sub}", "since_epoch": "1"}, {}
    yield main, "poll-negative-timeout", "POST", "/poll", \
        {"subscription": "{sub}", "timeout": -1}, {}
    yield main, "poll-missing-subscription", "POST", "/poll", {}, {}
    yield main, "poll-unknown-subscription", "POST", "/poll", \
        {"subscription": "sub-0-00000000"}, {}
    yield main, "unsubscribe", "POST", "/unsubscribe", \
        {"subscription": "{sub}"}, {}
    yield main, "unsubscribe-again", "POST", "/unsubscribe", \
        {"subscription": "{sub}"}, {}
    yield main, "unsubscribe-missing", "POST", "/unsubscribe", {}, {}
    yield main, "tenant-register", "POST", "/datasets", \
        {"name": "demo", "data": "R(t,u)\nS(u,v)"}, {"X-Repro-Tenant": "t1"}
    yield main, "tenant-answer", "POST", "/answer", \
        _answer(tbox=TBOX), {"X-Repro-Tenant": "t1"}
    yield main, "tenant-unknown-tbox", "POST", "/answer", \
        _answer(), {"X-Repro-Tenant": "t1"}
    yield main, "tenant-invalid", "POST", "/answer", \
        _answer(), {"X-Repro-Tenant": "bad tenant!"}
    yield main, "drop-unknown", "POST", "/datasets/drop", \
        {"name": "nope"}, {}
    yield main, "drop-missing-name", "POST", "/datasets/drop", {}, {}
    yield main, "unknown-post", "POST", "/nope", {"x": 1}, {}
    yield main, "unknown-get", "GET", "/nope", None, {}
    yield main, "get-a-post-route", "GET", "/answer", None, {}
    yield main, "get-subscribe", "GET", "/subscribe", None, {}
    yield main, "post-a-get-route", "POST", "/health", {}, {}
    yield main, "unsupported-method", "PUT", "/answer", _answer(), {}
    yield main, "malformed-json", "POST", "/answer", b'{"dataset": ', {}
    yield main, "body-not-object", "POST", "/answer", b"[1, 2]", {}
    yield main, "body-not-utf8", "POST", "/answer", b'{"a": "\xff"}', {}
    yield main, "bad-content-length", "POST", "/answer", None, \
        {"Content-Length": "ten"}
    yield main, "header-count", "GET", "/health", None, \
        {f"X-H{index}": "v" for index in range(101)}
    yield main, "stats", "GET", "/stats", None, {}
    yield main, "metrics", "GET", "/metrics", None, {}
    yield main, "drop", "POST", "/datasets/drop", {"name": "demo"}, {}
    yield main, "health-after", "GET", "/health", None, {}
    # a tenant with a one-dataset quota and a three-request bucket
    quota = "quota"
    tenant = {"X-Repro-Tenant": "q"}
    yield quota, "quota-register", "POST", "/datasets", \
        {"name": "d1", "data": DATA}, tenant
    yield quota, "quota-exceeded", "POST", "/datasets", \
        {"name": "d2", "data": DATA}, tenant
    yield quota, "quota-get-is-free", "GET", "/health", None, tenant
    yield quota, "quota-third-token", "POST", "/answer", \
        _answer(dataset="d1", tbox=TBOX), tenant
    yield quota, "rate-limited", "POST", "/answer", \
        _answer(dataset="d1", tbox=TBOX), tenant
    # the deliberate differences, last: they change counters
    late = "late"
    yield late, "late-register", "POST", "/datasets", \
        {"name": "demo", "data": DATA}, {}
    yield late, "late-subscribe", "POST", "/subscribe", \
        _answer(tbox=TBOX), {}
    yield late, "tboxes-tbox-not-text", "POST", "/tboxes", \
        {"name": "t", "tbox": 5}, {}
    yield late, "batch-entry-not-object", "POST", "/batch", \
        {"requests": [5]}, {}
    yield late, "update-insert-a-string", "POST", "/update", \
        {"dataset": "demo", "insert": "A(c)"}, {}
    yield late, "poll-timeout-true", "POST", "/poll", \
        {"subscription": "{sub}", "since_epoch": 0, "timeout": True}, {}
    yield late, "poll-since-epoch-true", "POST", "/poll", \
        {"subscription": "{sub}", "since_epoch": True}, {}
    yield late, "datasets-data-not-text", "POST", "/datasets", \
        {"name": "x", "data": 5}, {}
    yield late, "answer-dataset-not-string", "POST", "/answer", \
        _answer(dataset=["demo"], tbox=TBOX), {}


def _services() -> Dict[str, OMQService]:
    return {"main": OMQService(),
            "quota": OMQService(quota=TenantQuota(
                max_datasets=1, rate_limit=0.001, rate_burst=3)),
            "late": OMQService()}


def _request_bytes(method: str, path: str, body,
                   headers: Dict[str, str]) -> bytes:
    if isinstance(body, bytes):
        raw = body
    elif body is None:
        raw = b""
    else:
        raw = json.dumps({key: value for key, value in body.items()
                          if value is not None}).encode()
    head = {"Host": "corpus", "Connection": "close",
            "Content-Length": str(len(raw)), **headers}
    lines = [f"{method} {path} HTTP/1.1"]
    lines.extend(f"{name}: {value}" for name, value in head.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + raw


def _exchange(address, request: bytes) -> Tuple[int, Dict[str, str], bytes]:
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().title()] = value.strip()
    return int(lines[0].split()[1]), headers, body


def _mask(value, key: Optional[str] = None):
    if key in _TIMINGS or (key or "").endswith(("_seconds", "_ms")):
        return "*"
    if isinstance(value, dict):
        return {name: _mask(item, name) for name, item in value.items()}
    if isinstance(value, list):
        return [_mask(item) for item in value]
    if isinstance(value, str):
        return _RETRY.sub("retry in *s", _SUBSCRIPTION.sub(r"\1-*", value))
    return value


def _masked_body(content_type: str, body: bytes) -> str:
    if content_type == ROWS_TYPE:
        length = int.from_bytes(body[:4], "big")
        header = json.loads(body[4:4 + length])
        header["constants"] = sorted(header["constants"])
        rows = sorted(map(list, Answers.from_wire(body).answers))
        return json.dumps({"header": _mask(header), "rows": rows})
    if content_type == "application/json":
        return json.dumps(_mask(json.loads(body)))
    # the Prometheus text: every sample of a timing family is masked
    return "\n".join(
        line.rsplit(" ", 1)[0] + " *" if "_seconds" in line
        and not line.startswith("#") else line
        for line in body.decode().splitlines())


def record() -> List[Dict[str, object]]:
    """Play :func:`_sequence` against fresh servers; the entries."""
    services = _services()
    handles = {phase: serve_in_background(service)
               for phase, service in services.items()}
    entries: List[Dict[str, object]] = []
    subscription = ""
    try:
        for phase, name, method, path, body, headers in _sequence():
            if body is not None and not isinstance(body, bytes):
                body = json.loads(json.dumps(body).replace(
                    "{sub}", subscription))
            request = _request_bytes(method, path, body, headers)
            if name == "header-count":
                request = request.replace(b"Content-Length: 0\r\n", b"")
            status, got, raw = _exchange(handles[phase].address, request)
            content_type = got.get("Content-Type", "")
            if path == "/subscribe" and status == 201:
                subscription = json.loads(raw)["subscription"]
            entries.append({
                "name": name,
                "request": _SUBSCRIPTION.sub(r"\1-*",
                                             request.decode("latin-1")),
                "status": status,
                "content_type": content_type,
                "retry_after_header": "Retry-After" in got,
                "body": _masked_body(content_type, raw)})
    finally:
        for handle in handles.values():
            handle.stop()
        for service in services.values():
            service.close()
    return entries


@pytest.fixture(scope="module")
def replayed(request):
    entries = record()
    if request.config.getoption("--update-golden"):
        CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    return entries


def _recorded() -> List[Dict[str, object]]:
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_route_and_error():
    from repro.service.protocol import ENDPOINTS

    recorded = _recorded()
    routes = {tuple(entry["request"].split(" ", 2)[:2])
              for entry in recorded if entry["status"] < 300}
    assert routes >= set(ENDPOINTS)
    assert {entry["content_type"] for entry in recorded} >= {
        "application/json", ROWS_TYPE}
    assert {entry["status"] for entry in recorded} >= {
        200, 201, 400, 403, 404, 429, 431}
    assert set(DELIBERATE) <= {entry["name"] for entry in recorded}


def test_the_replay_sends_the_recorded_requests(replayed):
    assert [entry["request"] for entry in replayed] == [
        entry["request"] for entry in _recorded()]


@pytest.mark.parametrize("index, name", [
    (index, step[1]) for index, step in enumerate(_sequence())],
    ids=[step[1] for step in _sequence()])
def test_each_exchange_replays(replayed, index, name):
    got, want = replayed[index], _recorded()[index]
    assert got["name"] == want["name"] == name
    if got["name"] in DELIBERATE:
        status, error_type, fragment = DELIBERATE[got["name"]]
        body = json.loads(got["body"])
        assert (got["status"], body["error_type"]) == (status, error_type)
        assert fragment in body["error"]
        return
    assert got == want
