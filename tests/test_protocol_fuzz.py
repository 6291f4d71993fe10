"""Fuzzing the protocol's edge: no client input is a 500.

Two parts: random request bodies through :func:`decode_json_body`, and
random JSON values for each key of a valid request to every route,
sent through :meth:`Router.handle`.  Whatever a request carries, the
answer is a success or a structured 4xx from :func:`error_payload` —
never an ``internal`` 500.  Poll timeouts are drawn <= 0, so no case
parks.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service import OMQService
from repro.service.protocol import (
    ENDPOINTS,
    MAX_POLL_TIMEOUT,
    Poll,
    ProtocolError,
    Router,
    decode_json_body,
    error_payload,
)

from .helpers import hypothesis_settings

TBOX = "roles: P, R, S\nP <= S\nP <= R-"
QUERY = {"query": "R(x,y), S(y,z)", "answers": ["x", "z"]}

#: A valid payload per route, every key a request type reads set;
#: ``{sub}`` stands for a live subscription id.
SAMPLES = {
    ("GET", "/health"): {},
    ("GET", "/stats"): {},
    ("GET", "/metrics"): {},
    ("POST", "/datasets"): {"name": "fuzz", "data": "R(a,b)",
                            "replace": True, "tenant": None,
                            "trace": False},
    ("POST", "/datasets/drop"): {"name": "fuzz"},
    ("POST", "/tboxes"): {"name": "fuzz", "tbox": TBOX},
    ("POST", "/answer"): {"dataset": "demo", "tbox": "onto",
                          "tbox_text": TBOX, **QUERY,
                          "options": {"method": "lin"}},
    ("POST", "/explain"): {"dataset": "demo", "tbox": "onto", **QUERY,
                           "options": {"method": "lin"}},
    ("POST", "/batch"): {"requests": [{"dataset": "demo", "tbox": "onto",
                                       **QUERY}]},
    ("POST", "/update"): {"dataset": "demo", "insert": ["R(c,d)"],
                          "delete": ["R(c,d)"]},
    ("POST", "/subscribe"): {"dataset": "demo", "tbox": "onto", **QUERY,
                             "options": {"method": "lin"}},
    ("POST", "/unsubscribe"): {"subscription": "sub-0-00000000"},
    ("POST", "/poll"): {"subscription": "{sub}", "since_epoch": 0,
                        "timeout": 0},
}

SETTINGS = hypothesis_settings(60)

_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(max_size=20))
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=8)


def _parks(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and value > 0)


@pytest.fixture(scope="module")
def router():
    service = OMQService()
    router = Router(service)
    router.handle("POST", "/datasets", {"name": "demo",
                                        "data": "R(a,b)\nS(b,c)"})
    router.handle("POST", "/tboxes", {"name": "onto", "tbox": TBOX})
    yield router
    service.close()


def _outcome(router, method, path, payload):
    try:
        status, body = router.handle(method, path, payload)
    except Exception as error:  # shaped exactly as the server would
        status, body, _ = error_payload(error)
    return status, body


def test_the_samples_cover_every_route():
    assert set(SAMPLES) == set(ENDPOINTS)


@pytest.mark.parametrize("path, payload, fragment", [
    ("/tboxes", {"name": "t", "tbox": 5}, "'tbox' must be TBox text"),
    ("/batch", {"requests": [5]}, "'requests' entries must be"),
    ("/update", {"dataset": "demo", "insert": "A(c)"},
     "'insert' must be a list"),
    ("/poll", {"subscription": "{sub}", "timeout": True},
     "'timeout' must be"),
    ("/poll", {"subscription": "{sub}", "since_epoch": True},
     "'since_epoch' must be"),
], ids=["tbox-not-text", "batch-entry-not-object", "insert-a-string",
        "timeout-true", "since-epoch-true"])
def test_client_mistakes_are_400s_naming_the_key(router, path, payload,
                                                 fragment):
    """Once a 500 (``'int' object has no attribute ...``), an atom
    parse of each character of a string, and a JSON ``true`` taken for
    the number 1: each is now a 400 that names the key."""
    if payload.get("subscription") == "{sub}":
        _, snapshot = router.handle("POST", "/subscribe",
                                    SAMPLES["POST", "/subscribe"])
        payload = dict(payload, subscription=snapshot["subscription"])
    status, body = _outcome(router, "POST", path, payload)
    assert (status, body["error_type"]) == (400, "bad_request")
    assert fragment in body["error"]


def test_a_huge_poll_timeout_is_capped_not_a_500():
    """An integer past the float range used to overflow ``float()``."""
    poll = Poll.from_payload({"subscription": "s", "timeout": 10 ** 400})
    assert poll.timeout == MAX_POLL_TIMEOUT


@SETTINGS
@given(st.binary(max_size=64) | JSON_VALUES.map(
    lambda value: json.dumps(value).encode()))
def test_random_bodies_decode_or_are_400(body):
    try:
        payload = decode_json_body(body)
    except ProtocolError as error:
        assert (error.status, error.error_type) == (400, "bad_request")
    else:
        assert isinstance(payload, dict)


@SETTINGS
@given(data=st.data())
def test_random_values_are_never_a_500(router, data):
    (method, path), sample = data.draw(
        st.sampled_from(sorted(SAMPLES.items())), label="route")
    payload = json.loads(json.dumps(sample))
    if payload.get("subscription") == "{sub}":
        _, snapshot = router.handle("POST", "/subscribe",
                                    SAMPLES["POST", "/subscribe"])
        payload["subscription"] = snapshot["subscription"]
    key = data.draw(st.sampled_from(sorted(payload) + ["extra"]),
                    label="key")
    values = JSON_VALUES
    if path == "/poll" and key == "timeout":
        values = values.filter(lambda value: not _parks(value))
    payload[key] = data.draw(values, label="value")
    status, body = _outcome(router, method, path, payload)
    assert status < 500, body
    if status >= 400:
        assert body["error_type"] != "internal" and body["error"]
