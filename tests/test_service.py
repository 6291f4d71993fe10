"""Tests for :class:`repro.service.service.OMQService` and the HTTP
front-end: parity with the one-shot pipeline, batch deduplication,
concurrency, per-request TBox interning and the JSON protocol.
"""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import ABox, CQ, OMQ, TBox, answer, chain_cq
from repro.engine import ENGINES
from repro.client import tbox_to_text
from repro.service import BatchRequest, OMQService, serve_in_background
from repro.service.protocol import Router, error_payload
from repro.service.service import TBOX_MEMO_SIZE

from .helpers import example11_tbox, random_data


@pytest.fixture
def service():
    with OMQService(max_workers=3) as svc:
        svc.register_dataset("demo", random_data(1))
        yield svc


def _snapshot(abox: ABox) -> ABox:
    return ABox(abox.atoms())


class TestAnswering:
    def test_matches_one_shot_answer(self, service):
        tbox = example11_tbox()
        data = _snapshot(service._dataset("demo").abox)
        for labels in ("RS", "RSR"):
            omq = OMQ(tbox, chain_cq(labels))
            for engine in ENGINES:
                expected = answer(omq, data, engine=engine).answers
                got = service.answer("demo", omq, engine=engine)
                assert got.answers == expected
                assert got.engine == engine

    def test_repeat_query_hits_cache(self, service):
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RS"))
        first = service.answer("demo", omq)
        renamed = OMQ(tbox, chain_cq("RS", prefix="z"))
        second = service.answer("demo", renamed)
        assert not first.cached_rewriting
        assert second.cached_rewriting
        assert first.answers == second.answers
        assert service.cache.stats().hits >= 1

    def test_equal_tboxes_interned(self, service):
        # a fresh (equal) TBox object per request must not recompute
        # the completion: both requests collapse onto one entry
        for _ in range(2):
            service.answer("demo", OMQ(example11_tbox(), chain_cq("RS")))
        assert len(service._dataset("demo").completions) == 1

    def test_inline_ontology_memos_are_bounded(self, service):
        # one inline text is parsed once (same interned object back);
        # a thousand distinct ones leave both memos at their bound, and
        # an evicted ontology still answers the same when it returns
        router = Router(service)
        text = tbox_to_text(example11_tbox())
        request = {"dataset": "demo", "tbox_text": text,
                   "query": "R(x, y), S(y, z)", "answers": ["x", "z"]}
        first = router.decode_tbox(request)
        assert router.decode_tbox(dict(request)) is first
        assert service.parse_tbox.cache_info().misses == 1
        before = router.handle("POST", "/answer", request)[1]["answers"]
        for index in range(1000):
            router.decode_tbox({"tbox_text": f"{text}\nA{index} <= B"})
        assert len(service._tboxes) == TBOX_MEMO_SIZE
        assert service.parse_tbox.cache_info().currsize == TBOX_MEMO_SIZE
        assert router.decode_tbox(request) is not first  # was evicted
        assert router.handle("POST", "/answer", request)[1]["answers"] \
            == before

    def test_unknown_dataset_rejected(self, service):
        with pytest.raises(ValueError, match="unknown dataset"):
            service.answer("nope", OMQ(example11_tbox(), chain_cq("RS")))

    def test_duplicate_registration_rejected(self, service):
        with pytest.raises(ValueError, match="already registered"):
            service.register_dataset("demo", ABox())
        service.register_dataset("demo", random_data(2), replace=True)

    def test_stats_shape(self, service):
        service.answer("demo", OMQ(example11_tbox(), chain_cq("RS")))
        stats = service.stats()
        assert stats["requests"] == 1
        assert stats["cache"]["misses"] >= 1
        assert stats["datasets"]["demo"]["requests"] == 1
        assert stats["datasets"]["demo"]["sessions"] == {"python": 1}


class TestDatasetsRoute:
    """``POST /datasets`` decodes its body strictly: a setting it does
    not understand, or one of the wrong JSON type, is a 400 naming the
    key, never a registration under other terms than asked for."""

    @staticmethod
    def _rejected(router, payload):
        with pytest.raises(ValueError) as excinfo:
            router.handle("POST", "/datasets", payload)
        status, body, _ = error_payload(excinfo.value)
        assert (status, body["error_type"]) == (400, "bad_request")
        return body["error"]

    def test_replace_must_be_a_json_boolean(self):
        with OMQService() as service:
            router = Router(service)
            router.handle("POST", "/datasets", {"name": "d", "data": "A(b)"})
            for wrong in ("false", "true", 0, 1, None):
                assert "replace" in self._rejected(router, {
                    "name": "d", "data": "A(b), A(c)", "replace": wrong})
                assert service.stats()["datasets"]["d"]["facts"] == 1
            with pytest.raises(ValueError, match="already registered"):
                router.handle("POST", "/datasets", {
                    "name": "d", "data": "A(b), A(c)", "replace": False})
            router.handle("POST", "/datasets", {
                "name": "d", "data": "A(b), A(c)", "replace": True})
            assert service.stats()["datasets"]["d"]["facts"] == 2

    def test_unknown_key_is_rejected(self):
        with OMQService() as service:
            router = Router(service)
            for retired in ({"shards": 2}, {"shards": "two"}):
                assert "shards" in self._rejected(
                    router, {"name": "d", "data": "A(b)", **retired})
            assert service.datasets() == ()


class TestRetiredMethod:
    """``tw_star`` is no method any more: Appendix D.4's ``Tw*`` is the
    program every ``tw`` plan runs once specialised to the data."""

    def test_tw_star_is_a_400_naming_it(self):
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        body = {"dataset": "demo", "query": str(omq.query),
                "answers": list(omq.query.answer_vars),
                "tbox_text": tbox_to_text(omq.tbox),
                "options": {"method": "tw_star"}}
        with OMQService() as service:
            service.register_dataset("demo", ABox.parse("R(a,b), S(b,c)"))
            router = Router(service)
            for path, payload in (("/answer", body), ("/explain", body),
                                  ("/subscribe", body),
                                  ("/batch", {"requests": [body]})):
                with pytest.raises(ValueError) as excinfo:
                    router.handle("POST", path, payload)
                status, error, _ = error_payload(excinfo.value)
                assert (status, error["error_type"]) == (
                    400, "bad_request"), path
                assert "'tw_star'" in error["error"], path
            assert service.stats()["standing"]["subscriptions"] == 0


class TestBatch:
    def test_batch_matches_individual_answers(self, service):
        tbox = example11_tbox()
        requests = [BatchRequest("demo", OMQ(tbox, chain_cq(labels)),
                                 {"engine": engine})
                    for labels in ("RS", "SR")
                    for engine in ENGINES]
        results = service.answer_batch(requests)
        for request, result in zip(requests, results):
            expected = service.answer("demo", request.omq,
                                      request.options)
            assert result.answers == expected.answers
            assert result.engine == request.options.engine

    def test_batch_deduplicates_renamed_queries(self, service):
        tbox = example11_tbox()
        requests = [BatchRequest("demo", OMQ(tbox, chain_cq("RS",
                                                            prefix=p)))
                    for p in ("x", "y", "z")]
        results = service.answer_batch(requests)
        assert len({id(result) for result in results}) == 1
        assert service.stats()["batch_deduplicated"] == 2

    def test_batch_accepts_dicts(self, service):
        tbox = example11_tbox()
        results = service.answer_batch([
            {"dataset": "demo", "omq": OMQ(tbox, chain_cq("RS"))},
            {"dataset": "demo", "omq": OMQ(tbox, chain_cq("SR")),
             "options": {"engine": "sql"}}])
        assert [result.engine for result in results] == ["python", "sql"]

    def test_concurrent_answers_consistent(self, service):
        tbox = example11_tbox()
        omqs = [OMQ(tbox, chain_cq(labels))
                for labels in ("RS", "SR", "RSR", "SRR")]
        expected = {id(omq): service.answer("demo", omq, engine="sql").answers
                    for omq in omqs}
        errors = []

        def worker(omq):
            try:
                for _ in range(3):
                    got = service.answer("demo", omq, engine="sql")
                    assert got.answers == expected[id(omq)]
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(omq,))
                   for omq in omqs for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestServeHTTP:
    @pytest.fixture
    def server(self):
        service = OMQService(max_workers=2)
        with serve_in_background(service) as handle:
            yield handle
        service.close()

    @staticmethod
    def _call(server, path, payload=None):
        url = f"{server.url}{path}"
        if payload is None:
            request = urllib.request.Request(url)
        else:
            request = urllib.request.Request(
                url, json.dumps(payload).encode(),
                {"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    @classmethod
    def _refused(cls, server, path, payload=None):
        """The status and JSON body of a request the server refuses.
        The ``HTTPError`` owns the response and its socket: closing it
        here keeps the connection from leaking until collection."""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            cls._call(server, path, payload)
        with excinfo.value as error:
            return error.code, json.loads(error.read())

    def test_round_trip(self, server):
        health = self._call(server, "/health")
        assert health["status"] == "ok"
        assert health["engines"]  # at least one engine is always available
        assert health["storage"] == {"enabled": False}
        assert health["uptime_seconds"] >= 0
        self._call(server, "/datasets",
                   {"name": "demo", "data": "R(a,b), A_P(b)"})
        self._call(server, "/tboxes",
                   {"name": "uni",
                    "tbox": "roles: P, R, S\nP <= S\nP <= R-"})
        answered = self._call(server, "/answer",
                              {"dataset": "demo", "tbox": "uni",
                               "query": "R(x,y), S(y,z)",
                               "answers": ["x"]})
        assert answered["answers"] == [["a"]]
        expected = answer(
            OMQ(TBox.parse("roles: P, R, S\nP <= S\nP <= R-"),
                CQ.parse("R(x,y), S(y,z)", answer_vars=["x"])),
            ABox.parse("R(a,b), A_P(b)"))
        assert {tuple(row) for row in answered["answers"]} \
            == expected.answers

    def test_inline_tbox_and_cache(self, server):
        self._call(server, "/datasets",
                   {"name": "demo", "data": "R(a,b), A_P(b)"})
        text = "roles: P, R, S\nP <= S\nP <= R-"
        first = self._call(server, "/answer",
                           {"dataset": "demo", "tbox": text,
                            "query": "R(x,y), S(y,z)", "answers": "x"})
        second = self._call(server, "/answer",
                            {"dataset": "demo", "tbox": text,
                             "query": "R(u,v), S(v,w)", "answers": "u"})
        assert not first["cached_rewriting"]
        assert second["cached_rewriting"]
        assert first["answers"] == second["answers"]

    def test_update_and_batch(self, server):
        self._call(server, "/datasets",
                   {"name": "demo", "data": "R(a,b), A_P(b)"})
        self._call(server, "/tboxes",
                   {"name": "uni",
                    "tbox": "roles: P, R, S\nP <= S\nP <= R-"})
        updated = self._call(server, "/update",
                             {"dataset": "demo",
                              "insert": ["R(c,d)", "A_P(d)"],
                              "delete": ["R(a,b)"]})
        assert updated["inserted"] == 2
        assert updated["deleted"] == 1
        request = {"dataset": "demo", "tbox": "uni",
                   "query": "R(x,y), S(y,z)", "answers": ["x"]}
        engines = ENGINES
        batch = self._call(server, "/batch", {"requests": [
            dict(request, options={"engine": engine})
            for engine in engines]})
        for engine, result in zip(engines, batch["results"]):
            assert result["answers"] == [["c"]]
            assert result["engine"] == engine
        # an option beside "options" is refused, never silently dropped
        flat = dict(request, engine="sql")
        for path, body in (("/answer", flat), ("/explain", flat),
                           ("/subscribe", flat),
                           ("/batch", {"requests": [request, flat]})):
            status, error = self._refused(server, path, body)
            assert status == 400
            assert error["error_type"] == "bad_request"
            assert "'options'" in error["error"]

    def test_wrong_json_types_return_400(self, server):
        self._call(server, "/datasets", {"name": "demo", "data": "R(a,b)"})
        for bad in ({"dataset": "demo", "tbox": "x <= y", "query": 5},
                    {"dataset": "demo", "tbox": "x <= y",
                     "query": "R(x,y)", "answers": 5},
                    {"dataset": "demo", "tbox": 7, "query": "R(x,y)"}):
            status, error = self._refused(server, "/answer", bad)
            assert status == 400
            assert "error" in error

    def test_explicit_tbox_text_field(self, server):
        self._call(server, "/datasets",
                   {"name": "demo", "data": "R(a,b), A_P(b)"})
        answered = self._call(server, "/answer",
                              {"dataset": "demo",
                               "tbox_text": "roles: P, R, S\n"
                                            "P <= S\nP <= R-",
                               "query": "R(x,y), S(y,z)",
                               "answers": ["x"]})
        assert answered["answers"] == [["a"]]

    def test_errors_are_4xx(self, server):
        status, error = self._refused(server, "/answer",
                                      {"dataset": "missing", "tbox": "uni",
                                       "query": "R(x,y)"})
        assert status == 400
        assert "error" in error
        assert self._refused(server, "/nope")[0] == 404

    def test_stats_endpoint(self, server):
        stats = self._call(server, "/stats")
        assert "cache" in stats and "datasets" in stats

    def test_keep_alive_round_trips_do_not_stall(self, server):
        # head and body once left as two unbuffered sends: Nagle held
        # the body for the client's delayed ACK, ~44 ms per request on
        # a kept-alive connection (connection-per-request hid it)
        self._call(server, "/datasets",
                   {"name": "demo", "data": "R(a,b), A_P(b)"})
        body = json.dumps({"dataset": "demo",
                           "tbox_text": "roles: P, R, S\nP <= S\nP <= R-",
                           "query": "R(x,y), S(y,z)", "answers": ["x"]})
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        trips = []
        try:
            for _ in range(20):
                for method, path, payload in (("GET", "/health", None),
                                              ("POST", "/answer", body)):
                    started = time.perf_counter()
                    conn.request(method, path, body=payload)
                    reply = conn.getresponse()
                    reply.read()
                    trips.append(time.perf_counter() - started)
                    assert reply.status == 200
        finally:
            conn.close()
        assert statistics.median(trips) < 0.010
