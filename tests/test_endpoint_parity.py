"""The endpoint table against both transports.

Every route in :data:`ENDPOINTS` that a client exposes must give the
same result in process (``Client.wrap``) and over HTTP
(``Client.connect`` to ``serve_in_background``), apart from timings,
trace ids and the random half of subscription ids.  Every request type
must survive its own wire form: ``from_payload(r.payload()) == r``.
And the README's route table lists exactly the table's routes.
"""

import re
from pathlib import Path

import pytest

from repro import ABox, Answers, Client, OMQ, ServiceError, TBox, chain_cq
from repro.service import OMQService, serve_in_background
from repro.service.protocol import (
    ENDPOINTS,
    Batch,
    BatchRequest,
    DropDataset,
    Explain,
    Poll,
    RegisterDataset,
    RegisterTBox,
    Unsubscribe,
    Update,
)

TBOX_TEXT = "roles: P, R, S\nP <= S\nP <= R-"
DATA = "R(a,b)\nS(b,c)\nA_P-(d)\nR(d,e)"
README = Path(__file__).resolve().parents[1] / "README.md"

_SUBSCRIPTION = re.compile(r"(sub-\d+)-[0-9a-f]{8}")
_TIMINGS = {"seconds", "compile_seconds", "uptime_seconds", "stages",
            "maintenance_seconds", "trace"}


def _masked(value):
    """``value`` without what differs between two runs of one call."""
    if isinstance(value, Answers):
        return _masked(value.payload())
    if isinstance(value, dict):
        return {key: _masked(item) for key, item in value.items()
                if key not in _TIMINGS}
    if isinstance(value, (list, tuple)):
        return [_masked(item) for item in value]
    if isinstance(value, str):
        return _SUBSCRIPTION.sub(r"\1-*", value)
    return value


def _omq():
    return OMQ(TBox.parse(TBOX_TEXT), chain_cq("RS"))


def _subscribed(client, name):
    sub = client.subscribe(name, _omq())
    client.update(name, inserts=[("P", ("f", "g"))])
    return sub


def _snapshot(client, name):
    sub = client.subscribe(name, _omq())
    return repr(sub), sorted(sub.answers)


def _stats(client, name):
    stats = client.stats()
    return {"datasets": stats["datasets"][name], "cache": stats["cache"],
            "standing": stats["standing"],
            "keys": sorted(set(stats) - {"async_serving"})}


#: verb -> what one call of it gives, against a client whose tenant
#: holds dataset ``name`` (``DATA``) and ontology ``"onto"``.
SCENARIOS = {
    "register_dataset": lambda client, name: client.register_dataset(
        name + "-2", ABox.parse(DATA)),
    "unregister_dataset": lambda client, name:
        client.unregister_dataset(name),
    "register_tbox": lambda client, name: client.register_tbox(
        name, TBox.parse(TBOX_TEXT)),
    "answer": lambda client, name: client.answer(name, _omq(),
                                                 method="tw"),
    "explain": lambda client, name: client.explain(_omq(), dataset=name),
    "update": lambda client, name: client.update(
        name, inserts=[("R", ("x", "y"))], deletes=[("R", ("a", "b"))]),
    "subscribe": _snapshot,
    "poll": lambda client, name: client.poll(
        _subscribed(client, name).subscription_id, 0, 0.0),
    "unsubscribe": lambda client, name: client.unsubscribe(
        client.subscribe(name, _omq()).subscription_id),
    "stats": _stats,
}

EXPOSED = [endpoint for endpoint in ENDPOINTS.values()
           if hasattr(Client, endpoint.verb)]


@pytest.fixture(scope="module")
def clients():
    embedded, served = OMQService(), OMQService()
    handle = serve_in_background(served)
    pair = (Client.wrap(embedded), Client.connect(handle.url))
    try:
        yield pair
    finally:
        pair[1].close()
        handle.stop()
        embedded.close()
        served.close()


def test_the_clients_expose_every_route_but_the_servers_own():
    assert set(SCENARIOS) == {endpoint.verb for endpoint in EXPOSED}
    assert {endpoint.verb for endpoint in ENDPOINTS.values()} - set(
        SCENARIOS) == {"health", "metrics", "batch"}


@pytest.mark.parametrize("endpoint", EXPOSED,
                         ids=[endpoint.verb for endpoint in EXPOSED])
def test_both_transports_give_equal_results(clients, endpoint):
    outcomes = []
    for client in clients:
        name = f"parity-{endpoint.verb}"
        client.register_dataset(name, ABox.parse(DATA))
        client.register_tbox("onto", TBox.parse(TBOX_TEXT))
        outcomes.append(_masked(SCENARIOS[endpoint.verb](client, name)))
    embedded, remote = outcomes
    assert embedded == remote


@pytest.mark.parametrize("verb, args", [
    ("answer", ("nope", _omq())),
    ("update", ("nope", [("R", ("a", "b"))])),
    ("unsubscribe", ("sub-0-00000000",)),
    ("poll", ("sub-0-00000000",)),
])
def test_both_transports_give_the_same_error(clients, verb, args):
    messages = []
    for client in clients:
        with pytest.raises(ValueError) as raised:
            getattr(client, verb)(*args)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert isinstance(raised.value, ServiceError)


def test_every_request_type_survives_its_wire_form():
    service = OMQService()
    try:
        tbox = service.parse_tbox(TBOX_TEXT)
        omq = OMQ(tbox, chain_cq("RS"))
        answer = BatchRequest("demo", omq, {"method": "lin"}, tenant="t")
        requests = [
            RegisterDataset("demo", ABox.parse(DATA), replace=True),
            DropDataset("demo"),
            RegisterTBox("onto", tbox),
            answer,
            Explain(None, omq, {"engine": "sql"}, tenant="t"),
            Explain("demo", omq, tenant="t"),
            Batch((answer, BatchRequest("other", omq, tenant="t"))),
            Update("demo", (("R", ("a", "b")),), (("A", ("c",)),)),
            Unsubscribe("sub-1-00000000"),
            Poll("sub-1-00000000", 3, 2.5),
            Poll("sub-1-00000000"),
        ]
        assert {type(request) for request in requests} == {
            endpoint.request for endpoint in ENDPOINTS.values()
            if endpoint.request is not None}
        for request in requests:
            again = type(request).from_payload(request.payload(), service,
                                               "t")
            assert again == request
            assert again.payload() == request.payload()
    finally:
        service.close()


def test_the_readme_lists_every_route():
    text = README.read_text()
    table = text[text.index("### HTTP server"):]
    table = table[:table.index("\n\n", table.index("| route"))]
    listed = set(re.findall(r"^\| `(GET|POST) (/[a-z/]+)`", table,
                            re.MULTILINE))
    assert listed == set(ENDPOINTS)
