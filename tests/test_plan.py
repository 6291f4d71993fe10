"""Tests for the compiled query pipeline (``repro.rewriting.plan``):
``AnswerOptions`` validation, parity of every entry point that takes
them, plan reuse, explain reports and the plan cache."""

import dataclasses
import functools
import http.client
import json
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from unittest import mock
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ABox,
    CQ,
    OMQ,
    AnswerOptions,
    Answers,
    Client,
    Plan,
    answer,
    chain_cq,
)
from repro.client import _omq_payload
from repro.datalog.evaluate import CodedRows
from repro.engine import ENGINES, create_engine
from repro.rewriting import AnswerSession, METHODS
from repro.rewriting.plan import (
    _WIRE_FIELDS,
    ROWS_TYPE,
    compile_omq,
    format_explain,
)
from repro.service import (
    BatchRequest,
    OMQService,
    RewritingCache,
    serve_in_background,
)

from .helpers import example11_tbox, random_data


# -- AnswerOptions ----------------------------------------------------------


class TestAnswerOptions:
    def test_defaults(self):
        options = AnswerOptions()
        assert options.method == "auto"
        assert options.engine is None and options.timeout is None
        assert options.over == "complete"
        assert [f.name for f in dataclasses.fields(AnswerOptions)] == [
            "method", "engine", "timeout", "over"]

    def test_validation(self):
        with pytest.raises(ValueError, match="method"):
            AnswerOptions(method="nope")
        with pytest.raises(ValueError, match="engine"):
            AnswerOptions(engine="nope")
        with pytest.raises(ValueError, match="over"):
            AnswerOptions(over="nope")
        with pytest.raises(ValueError, match="timeout"):
            AnswerOptions(timeout=-1)

    def test_coerce_forms(self):
        from_none = AnswerOptions.coerce(None)
        from_dict = AnswerOptions.coerce({"method": "lin",
                                          "over": "arbitrary"})
        from_self = AnswerOptions.coerce(from_dict)
        assert from_none == AnswerOptions()
        assert from_dict.method == "lin" and from_dict.over == "arbitrary"
        assert from_self == from_dict
        with pytest.raises(ValueError, match="unknown answer option"):
            AnswerOptions.coerce({"metod": "lin"})
        with pytest.raises(TypeError):
            AnswerOptions.coerce(42)

    def test_coerce_overrides(self):
        base = AnswerOptions(method="lin")
        merged = AnswerOptions.coerce(base, engine="sql")
        assert merged.method == "lin" and merged.engine == "sql"
        assert base.engine is None  # original untouched

    def test_execution_knobs_not_in_rewrite_fingerprint(self):
        base = AnswerOptions(method="lin")
        assert (base.rewrite_fingerprint()
                == base.replace(engine="sql").rewrite_fingerprint()
                == base.replace(timeout=5.0).rewrite_fingerprint())
        assert (base.rewrite_fingerprint()
                != base.replace(over="arbitrary").rewrite_fingerprint())
        assert (base.rewrite_fingerprint()
                != base.replace(method="log").rewrite_fingerprint())

    def test_data_dependent(self):
        assert AnswerOptions(method="adaptive").data_dependent
        assert not AnswerOptions(method="lin").data_dependent
        assert not AnswerOptions().data_dependent


# -- OMQ fingerprints -------------------------------------------------------


class TestOMQFingerprint:
    def test_stable_under_variable_renaming(self):
        tbox = example11_tbox()
        first = OMQ(tbox, chain_cq("RSR", prefix="a_"))
        second = OMQ(tbox, chain_cq("RSR", prefix="b_"))
        assert first.fingerprint() == second.fingerprint()

    def test_distinct_queries_differ(self):
        tbox = example11_tbox()
        assert (OMQ(tbox, chain_cq("RS")).fingerprint()
                != OMQ(tbox, chain_cq("SR")).fingerprint())

    def test_cache_key_uses_same_code_path(self):
        # one fingerprint implementation: the cache key components are
        # the same digests OMQ.fingerprint hashes over
        from repro.fingerprint import omq_fingerprint

        omq = OMQ(example11_tbox(), chain_cq("RS"))
        assert omq.fingerprint() == omq_fingerprint(omq)


# -- compile/execute parity -------------------------------------------------


def _raw_answer(url, payload, coded):
    """One ``POST /answer`` over a bare connection, in the body the
    ``Accept`` header picks, decoded by the record's own decoder."""
    split = urlsplit(url)
    headers = {"Content-Type": "application/json"}
    if coded:
        headers["Accept"] = ROWS_TYPE
    wire = http.client.HTTPConnection(split.hostname, split.port,
                                      timeout=30)
    try:
        wire.request("POST", "/answer", body=json.dumps(payload),
                     headers=headers)
        reply = wire.getresponse()
        raw = reply.read()
    finally:
        wire.close()
    assert reply.status == 200, raw
    if coded:
        assert reply.getheader("Content-Type") == ROWS_TYPE
        return Answers.from_wire(raw)
    assert reply.getheader("Content-Type") == "application/json"
    return Answers.from_payload(json.loads(raw))


def _coalesced(service, url, payload, monkeypatch):
    """A coded leader and, once its execution is held in flight, a
    coded and a JSON request that join it; returns all three."""
    running, joined = threading.Event(), threading.Semaphore(0)
    answer_batch = service.answer_batch
    count_join = service.obs.async_coalesced.inc

    def held(requests):
        running.set()
        for _ in range(2):
            assert joined.acquire(timeout=30), "nobody joined"
        return answer_batch(requests)

    def join(amount=1.0):
        count_join(amount)
        joined.release()

    monkeypatch.setattr(service, "answer_batch", held)
    monkeypatch.setattr(service.obs.async_coalesced, "inc", join)
    # a cold plan sends the leader to the worker pool: a cached one
    # measured short would run on the idle server's loop, and holding
    # it there would keep the joiners from ever being read
    service.cache.clear()
    with ThreadPoolExecutor(3) as pool:
        leader = pool.submit(_raw_answer, url, payload, True)
        assert running.wait(timeout=30)
        joiners = [pool.submit(_raw_answer, url, payload, coded)
                   for coded in (True, False)]
        return [call.result(timeout=60) for call in [leader] + joiners]


class TestCompileExecuteParity:
    @pytest.fixture(scope="class")
    def setting(self):
        tbox = example11_tbox()
        abox = random_data(7, individuals=8, atoms=30)
        omqs = [OMQ(tbox, chain_cq(labels)) for labels in ("RS", "SRR")]
        return tbox, abox, omqs

    @pytest.mark.parametrize("method", ("auto",) + METHODS)
    def test_matches_legacy_answer_all_engines(self, setting, method):
        _, abox, omqs = setting
        for omq in omqs:
            plan = compile_omq(omq, method=method)
            for engine in ENGINES:
                executed = plan.execute(abox, engine=engine)
                legacy = answer(omq, abox, method=method, engine=engine)
                assert executed.answers == legacy.answers
                assert executed.engine == engine

    @pytest.fixture(scope="class")
    def served(self, setting):
        """One service over the data, behind every front door: itself,
        an embedded client and an HTTP client."""
        _, abox, _ = setting
        with OMQService(max_workers=2) as service:
            service.register_dataset("demo", ABox(abox.atoms()))
            with serve_in_background(service) as handle, \
                    Client.connect(handle.url) as remote:
                yield service, Client.wrap(service), remote, handle.url

    @pytest.mark.parametrize("overrides", [
        {}, {"method": "lin"}, {"method": "log"}, {"method": "tw"},
        {"method": "adaptive"}, {"engine": "sql"}],
        ids=lambda o: ",".join(
            f"{key}={value}" for key, value in o.items()) or "defaults")
    def test_every_way_in_returns_the_same_answers(self, setting, served,
                                                   overrides, monkeypatch):
        """One options spelling in, one ``Answers`` record out, through
        every entry point: same rows, same *resolved* method, same
        engine, same plan — and every one of them ran the plan
        specialised to the data, never the rewriting as written.  Over
        HTTP that holds for both ``/answer`` bodies, traced or not, and
        for the joiners of one coalesced execution."""
        _, abox, omqs = setting
        service, embedded, remote, url = served
        options = AnswerOptions(**overrides)
        for omq in omqs:
            payload = _omq_payload("demo", omq, options)
            traced = dict(payload, trace=True)
            with AnswerSession(abox) as session:
                ways = {
                    "repro.answer": answer(omq, abox, **overrides),
                    "session.answer": session.answer(omq, options),
                    "compile+execute": session.compile(
                        omq, **overrides).execute(session),
                    "service.answer": service.answer("demo", omq,
                                                     **overrides),
                    "answer_batch": service.answer_batch(
                        [BatchRequest("demo", omq, overrides)])[0],
                    "Client.wrap": embedded.answer("demo", omq, options),
                    "Client.connect": remote.answer("demo", omq,
                                                    **overrides),
                    "Client.connect, traced": remote.answer(
                        "demo", omq, trace=True, **overrides),
                    "HTTP JSON": _raw_answer(url, payload, coded=False),
                    "HTTP coded": _raw_answer(url, payload, coded=True),
                    "HTTP JSON, traced": _raw_answer(url, traced,
                                                     coded=False),
                    "HTTP coded, traced": _raw_answer(url, traced,
                                                      coded=True),
                }
                leader, coded, as_json = _coalesced(
                    service, url, payload, monkeypatch)
                monkeypatch.undo()
                # one execution behind all three bodies: the whole
                # record survives either encoding
                assert leader == coded == as_json
                ways["coalesced joiner, coded"] = coded
                ways["coalesced joiner, JSON"] = as_json
                if not options.data_dependent:
                    ways["repro.compile"] = compile_omq(
                        omq, options).execute(abox)
            expected = ways["repro.answer"]
            assert expected.method in METHODS
            assert expected.engine == (options.engine or "python")
            for name, got in ways.items():
                assert isinstance(got, Answers), name
                assert (got.answers, got.method, got.engine,
                        got.plan_fingerprint, got.generated_tuples) == (
                    expected.answers, expected.method, expected.engine,
                    expected.plan_fingerprint,
                    expected.generated_tuples), name
                if "traced" in name:
                    assert "encode" in [span["name"]
                                        for span in got.trace["spans"]], name
            with AnswerSession(abox) as session:
                plan = session.compile(omq, options)
                backend = session.backend(expected.engine,
                                          plan._variant_tbox())
                assert expected.generated_tuples == backend.evaluate(
                    plan.specialised(backend)).generated_tuples

    def test_first_reads_of_one_shared_record_agree(self, setting, served,
                                                    monkeypatch):
        """Threads reading a coded record's ``answers`` at one moment
        (more of them than cores, switching often) all get the rows,
        and the record keeps them.  Over HTTP, the record a coded leader
        and two joiners share is decoded once, for the JSON joiner
        alone, and every body carries the same rows."""
        _, abox, omqs = setting
        service, _, _, url = served
        omq = omqs[1]
        with AnswerSession(abox) as session:
            expected = session.answer(omq).answers
        assert expected
        readers = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                record = service.answer("demo", omq)
                assert type(record.rows) is CodedRows
                start = threading.Barrier(readers)

                def read():
                    start.wait(timeout=30)
                    return len(record), record.answers, len(record)

                with ThreadPoolExecutor(readers) as pool:
                    calls = [pool.submit(read) for _ in range(readers)]
                    reads = [call.result(timeout=30) for call in calls]
                size = len(expected)
                assert reads == [(size, expected, size)] * readers
                assert record.rows == expected and len(record) == size
        finally:
            sys.setswitchinterval(interval)

        sources = []
        answer_batch = service.answer_batch

        def noted(requests):
            results = answer_batch(requests)
            sources.extend(result.rows for result in results)
            return results

        monkeypatch.setattr(service, "answer_batch", noted)
        with _decodes() as decoded:
            bodies = _coalesced(service, url, _omq_payload(
                "demo", omq, AnswerOptions()), monkeypatch)
        (source,) = sources  # one execution behind all three bodies
        assert type(source) is CodedRows
        assert [rows for rows in decoded if rows is source] == [source]
        assert [body.answers for body in bodies] == [expected] * 3

    def test_a_json_trace_shows_the_decode_a_coded_one_none(self, setting,
                                                            served):
        """The rows are decoded on the way out of a JSON ``/answer``,
        inside its ``payload`` span; a coded one never decodes them."""
        _, _, omqs = setting
        _, _, _, url = served
        payload = dict(_omq_payload("demo", omqs[0], AnswerOptions()),
                       trace=True)

        def spans(entries, parent=None):
            for entry in entries:
                yield parent, entry["name"]
                yield from spans(entry.get("children", ()), entry["name"])

        as_json = list(spans(_raw_answer(url, payload, False).trace["spans"]))
        coded = list(spans(_raw_answer(url, payload, True).trace["spans"]))
        assert ("payload", "decode-rows") in as_json
        assert [name for _, name in as_json].count("decode-rows") == 1
        assert "decode-rows" not in [name for _, name in coded]
        assert (None, "encode") in coded and (None, "encode") in as_json


# -- plan reuse -------------------------------------------------------------


class TestPlanReuse:
    def test_one_plan_many_datasets(self):
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RSR"))
        plan = compile_omq(omq, method="tw")
        for seed in (1, 2, 3):
            abox = random_data(seed, individuals=7, atoms=25)
            assert (plan.execute(abox).answers
                    == answer(omq, abox, method="tw").answers)

    def test_one_plan_many_engines_one_session(self):
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        plan = compile_omq(omq)
        abox = random_data(11)
        with AnswerSession(abox) as session:
            results = {engine: plan.execute(session, engine=engine).answers
                       for engine in ENGINES}
        assert len(set(results.values())) == 1

    def test_execute_on_loaded_engine(self):
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RS"))
        abox = random_data(13)
        plan = compile_omq(omq, method="lin")
        with create_engine("python", abox.complete(tbox)) as backend:
            assert (plan.execute(backend).answers
                    == answer(omq, abox, method="lin").answers)

    def test_specialised_once_per_nonempty_signature(self):
        """``execute`` evaluates the plan specialised to the live data:
        built once per signature however often it runs, rebuilt when an
        update flips a predicate's emptiness, the rewriting itself
        untouched."""
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RS"))
        plan = compile_omq(omq, method="lin")
        rules = plan.rules
        with AnswerSession(ABox.parse("R(a,b), R(b,c)")) as session:
            backend = session.backend("python", tbox)
            for _ in range(100):
                assert plan.execute(session).answers == frozenset()
            assert len(plan._specialisations) == 1
            assert len(plan.specialised(backend)) == 0  # no S, no A_P-
            session.apply_update(inserts=[("S", ("b", "d"))])
            assert plan.execute(session).answers == {("a", "d")}
            assert len(plan._specialisations) == 2
            assert 0 < len(plan.specialised(backend)) < rules
            session.apply_update(deletes=[("S", ("b", "d"))])
            assert plan.execute(session).answers == frozenset()
            assert len(plan._specialisations) == 2
        assert plan.rules == rules

    def test_fully_pruned_goal_never_reads_a_data_predicate(self):
        # the rewriters name their goal G; with every goal clause pruned
        # the engine must not fall back to the data's own G relation
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        abox = ABox.parse("R(a,b), G(a,b), G(c,c)")
        for engine in ENGINES:
            assert answer(omq, abox, method="lin",
                          engine=engine).answers == frozenset()

    def test_plan_is_frozen(self):
        plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")))
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.method = "log"
        with pytest.raises(TypeError):
            plan.timings["rewrite"] = 0.0

    def test_execute_rejects_unknown_target(self):
        plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")))
        with pytest.raises(TypeError,
                           match="ABox, AnswerSession or Engine"):
            plan.execute({"not": "data"})


# -- explain ----------------------------------------------------------------


class TestExplain:
    def test_report_matches_ndl_stats(self):
        omq = OMQ(example11_tbox(), chain_cq("RSRS"))
        plan = compile_omq(omq, method="log")
        report = plan.explain()
        assert report["rules"] == len(plan.ndl)
        assert report["width"] == plan.ndl.width()
        assert report["depth"] == plan.ndl.depth()
        assert report["method"] == "log"
        assert report["omq_class"] == omq.omq_class()
        assert set(report["stages"]) == {"rewrite"}
        assert "specialised" not in report
        assert report["compile_seconds"] >= 0
        assert report["fingerprint"] == plan.fingerprint

    def test_auto_reports_resolved_method(self):
        plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")))
        report = plan.explain()
        assert report["method_requested"] == "auto"
        assert report["method"] == "lin"  # finite depth, tree-shaped

    def test_report_is_json_serialisable(self):
        import json

        plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")),
                           method="tw", engine="sql", timeout=5.0)
        text = json.dumps(plan.explain())
        assert "tw" in text

    def test_format_explain_renders_all_keys(self):
        plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")))
        text = format_explain(plan.explain())
        assert "method" in text and "rules" in text
        assert "stage rewrite" in text

    def test_service_and_session_explain_agree(self):
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        with OMQService() as service:
            service.register_dataset("demo", random_data(2))
            via_service = service.explain(omq, method="lin")
        direct = compile_omq(omq, method="lin").explain()
        volatile = ("compile_seconds", "stages")
        assert ({k: v for k, v in via_service.items() if k not in volatile}
                == {k: v for k, v in direct.items() if k not in volatile})

    def test_service_explain_data_dependent_needs_dataset(self):
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        with OMQService() as service:
            with pytest.raises(ValueError, match="dataset"):
                service.explain(omq, method="adaptive")
            service.register_dataset("demo", random_data(2))
            report = service.explain(omq, method="adaptive",
                                     dataset="demo")
            assert report["data_bound"] is True
            assert report["method"] in METHODS

    def test_explain_with_a_dataset_shows_what_runs(self):
        """Next to the rewriting's size, the program an answer over the
        named dataset would evaluate: its nonempty signature and the
        specialised rules/width/depth."""
        omq = OMQ(example11_tbox(), chain_cq("RSRS"))
        with OMQService() as service:
            service.register_dataset("demo", ABox.parse("R(a,b), R(b,c)"))
            report = service.explain(omq, method="lin", dataset="demo")
            assert report["specialised"] == {
                "nonempty": ["R"], "rules": 0, "width": 0, "depth": 0}
            service.update("demo", inserts=[("S", ("c", "d"))])
            report = service.explain(omq, method="lin", dataset="demo")
        assert report["specialised"]["nonempty"] == ["R", "S"]
        assert 0 < report["specialised"]["rules"] < report["rules"]
        assert "specialised to    R, S" in format_explain(report)


# -- fingerprints and the plan cache ----------------------------------------


class TestPlanCache:
    def test_cache_stores_plan_objects(self):
        cache = RewritingCache()
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        first = compile_omq(omq, method="lin", cache=cache)
        second = compile_omq(omq, method="lin", cache=cache)
        assert isinstance(first, Plan)
        assert first is second  # the very same compiled object

    def test_renamed_query_reuses_plan(self):
        cache = RewritingCache()
        tbox = example11_tbox()
        first = compile_omq(OMQ(tbox, chain_cq("RS", prefix="a_")),
                            method="lin", cache=cache)
        second = compile_omq(OMQ(tbox, chain_cq("RS", prefix="b_")),
                             method="lin", cache=cache)
        assert first is second
        assert cache.stats().hits == 1

    def test_engine_does_not_fragment_cache(self):
        cache = RewritingCache()
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        compile_omq(omq, method="lin", engine="python", cache=cache)
        compile_omq(omq, method="lin", engine="sql", cache=cache)
        compile_omq(omq, method="lin", timeout=9.0, cache=cache)
        assert len(cache) == 1
        assert cache.stats().hits == 2

    def test_data_dependent_compiles_bypass_cache(self):
        cache = RewritingCache()
        abox = random_data(5)
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        with AnswerSession(abox, rewriting_cache=cache) as session:
            session.compile(omq, method="adaptive")
            assert len(cache) == 0
            # ...and nothing else does: what a plan runs as is decided
            # per execute, so the plan itself stays shareable
            session.compile(omq, method="lin")
        assert len(cache) == 1

    def test_plan_fingerprint_stable_and_discriminating(self):
        tbox = example11_tbox()
        base = compile_omq(OMQ(tbox, chain_cq("RS")), method="lin")
        renamed = compile_omq(OMQ(tbox, chain_cq("RS", prefix="z_")),
                              method="lin")
        other_method = compile_omq(OMQ(tbox, chain_cq("RS")), method="log")
        assert base.fingerprint == renamed.fingerprint
        assert base.fingerprint != other_method.fingerprint


# -- execution knobs never leak out of a shared cache -----------------------


class TestCachedPlanExecutionKnobs:
    def test_first_compilers_engine_does_not_leak(self):
        # cache keys ignore engine, so the plan cached by an
        # engine='sql' request must not drag later default-engine
        # requests onto SQL
        with OMQService() as service:
            service.register_dataset("demo", random_data(4))
            first = service.answer(
                "demo", OMQ(example11_tbox(), chain_cq("RS", prefix="a_")),
                options=AnswerOptions(method="lin", engine="sql"))
            second = service.answer(
                "demo", OMQ(example11_tbox(), chain_cq("RS", prefix="b_")),
                method="lin")
            assert first.engine == "sql"
            assert second.engine == "python"
            assert second.cached_rewriting  # it really was a cache hit
            # the python pool's single session must hold exactly one
            # loaded backend (no stealth SQL engine inside it)
            assert service.stats()["datasets"]["demo"]["sessions"] == {
                "sql": 1, "python": 1}

    def test_first_compilers_timeout_does_not_leak(self):
        cache = RewritingCache()
        abox = random_data(4)
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        with AnswerSession(abox, rewriting_cache=cache) as session:
            session.answer(omq, options=AnswerOptions(method="lin",
                                                      timeout=0.0))
            repeat = session.answer(omq, method="lin")
        assert not repeat.timed_out

    def test_explicit_engine_override_beats_plan_options(self):
        plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")),
                           method="lin", engine="python")
        result = plan.execute(random_data(4), engine="sql")
        assert result.engine == "sql"


# -- timeouts ---------------------------------------------------------------


class TestSoftTimeout:
    def test_zero_budget_flags_timed_out(self):
        plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")),
                           timeout=0.0)
        result = plan.execute(random_data(1))
        assert result.timed_out

    def test_generous_budget_does_not(self):
        plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")),
                           timeout=60.0)
        assert not plan.execute(random_data(1)).timed_out

    def test_timed_out_surfaces_through_the_service(self):
        with OMQService() as service:
            service.register_dataset("demo", random_data(1))
            result = service.answer(
                "demo", OMQ(example11_tbox(), chain_cq("RS")),
                options=AnswerOptions(timeout=0.0))
        assert result.timed_out

    def test_batch_dedup_respects_timeout(self):
        # identical requests that differ only in timeout must not
        # share one result (the flag would be wrong for one of them)
        from repro.service import BatchRequest

        omq = OMQ(example11_tbox(), chain_cq("RS"))
        with OMQService() as service:
            service.register_dataset("demo", random_data(1))
            strict, lax = service.answer_batch([
                BatchRequest("demo", omq,
                             options=AnswerOptions(timeout=0.0)),
                BatchRequest("demo", omq, options=AnswerOptions())])
        assert strict.timed_out
        assert not lax.timed_out
        assert strict.answers == lax.answers


# -- the Answers type -------------------------------------------------------

#: Constants with the characters a text format would trip on.
_CONSTANTS = st.one_of(
    st.sampled_from(['a', 'b"c', 'd,e', 'f\ng', '', 'ü→字', "'", '\\']),
    st.text(max_size=4))


@st.composite
def _answer_records(draw):
    arity = draw(st.integers(0, 3))
    rows = draw(st.frozensets(st.tuples(*[_CONSTANTS] * arity),
                              max_size=12))
    return Answers(
        rows,
        generated_tuples=draw(st.integers(0, 2 ** 40)),
        seconds=round(draw(st.floats(0, 1e4)), 6),
        engine=draw(st.sampled_from(ENGINES)),
        method=draw(st.sampled_from(METHODS)),
        plan_fingerprint=draw(st.text(max_size=8)),
        cached_rewriting=draw(st.booleans()),
        timed_out=draw(st.booleans()),
        dataset=draw(_CONSTANTS))


#: Answer shapes over Example 11's signature: binary, unary, boolean.
_SHAPES = {"RSR": chain_cq("RSR"),
           "RS, x": CQ.parse("R(x, y), S(y, z)", answer_vars=["x"]),
           "SR, boolean": chain_cq("SR", answer_ends=False)}


@functools.lru_cache(maxsize=None)
def _plan(shape, method):
    """The compiled plan of one shape, shared by every example."""
    return compile_omq(OMQ(example11_tbox(), _SHAPES[shape]), method=method)


@contextmanager
def _decodes():
    """The :class:`CodedRows` decoded inside the block, in call order."""
    decoded = []
    decode = CodedRows.decode

    def counted(rows):
        decoded.append(rows)
        return decode(rows)

    with mock.patch.object(CodedRows, "decode", counted):
        yield decoded


class TestAnswersWire:
    """Both ``/answer`` bodies describe the record they came from."""

    @settings(max_examples=150, deadline=None)
    @given(_answer_records())
    def test_both_bodies_round_trip(self, record):
        coded = Answers.from_wire(record.wire())
        parsed = Answers.from_payload(json.loads(json.dumps(
            record.payload())))
        for got in (coded, parsed):
            assert got == record
            assert got.answers == record.answers
            for name in _WIRE_FIELDS:
                assert getattr(got, name) == getattr(record, name), name
        # the JSON body is the one it always was
        assert record.payload()["answers"] == sorted(
            list(row) for row in record.answers)

    @pytest.mark.parametrize("rows", [frozenset(), frozenset({()})],
                             ids=["empty", "nullary-true"])
    def test_nullary_and_empty(self, rows):
        body = Answers(rows).wire()
        assert Answers.from_wire(body).answers == rows
        assert len(body) == 4 + int.from_bytes(body[:4], "big")  # no cells

    def test_python_and_sql_results_encode_alike(self):
        """The python and an SQL engine's results make bodies that
        decode to the same answers, each naming only the constants its
        rows use, once each."""
        omq = OMQ(example11_tbox(), chain_cq("RSR"))
        abox = random_data(5, individuals=12, atoms=60)
        plan = compile_omq(omq, method="tw")
        results = [plan.execute(abox, engine=engine)
                   for engine in ("python", "sql")]
        expected = results[0].answers
        assert expected
        for result in results:
            body = result.wire()
            header = json.loads(body[4:4 + int.from_bytes(body[:4], "big")])
            assert sorted(header["constants"]) == sorted(
                {c for row in expected for c in row})
            assert Answers.from_wire(body).answers == expected


    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from(sorted(_SHAPES)),
           method=st.sampled_from(("lin", "log", "tw")),
           seed=st.integers(0, 10 ** 6), atoms=st.integers(0, 60))
    def test_coded_and_decoded_records_agree(self, shape, method, seed,
                                             atoms):
        """A python-engine record still in the engine's codes is, to
        every reader, the record over the same rows as strings (here
        the SQL engine's); counting it, sending it as codes and
        restamping it never decode it."""
        abox = random_data(seed, individuals=8, atoms=atoms)
        plan = _plan(shape, method)
        record = plan.execute(abox)
        strings = plan.execute(abox, engine="sql").answers
        source = record.rows
        coded = type(source) is CodedRows
        assert coded or not strings  # a pruned-empty plan runs no engine
        stamp = {"dataset": "d", "seconds": 1.5, "cached_rewriting": True}
        with _decodes() as decoded:
            size, body = len(record), record.wire()
            moved = dataclasses.replace(record, **stamp)
            assert decoded == [] and moved.rows is source
            twin = dataclasses.replace(record, rows=strings)
            assert record == twin and record.answers == strings
            assert decoded == ([source] if coded else [])
            assert type(record.rows) is frozenset  # decoded once, kept
            assert record.answers is record.answers
        assert size == len(record) == len(twin) == len(strings)
        assert bool(record) == bool(strings)
        assert all(row in record for row in strings)
        probe = ("absent",) * len(_SHAPES[shape].answer_vars)
        assert (probe in record) == (probe in strings)
        assert moved == dataclasses.replace(twin, **stamp)
        assert json.dumps(record.payload()) == json.dumps(twin.payload())
        assert json.dumps(moved.payload()) == json.dumps(
            dataclasses.replace(twin, **stamp).payload())
        assert Answers.from_wire(body) == Answers.from_wire(twin.wire())
        assert Answers.from_wire(body).answers == strings
        assert pickle.loads(pickle.dumps(moved)) == moved
        assert repr(record) == repr(dataclasses.replace(
            twin, rows=record.answers))

    def test_pickle_carries_rows_not_the_name_list(self):
        abox = random_data(5, individuals=40, atoms=200)
        record = _plan("RS, x", "tw").execute(abox)
        assert type(record.rows) is CodedRows
        assert len(record.rows.names) > len(record)
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy.rows) is frozenset and copy == record

    def test_codes_outlive_updates(self):
        """A coded record decodes, and sends, the rows of its own
        execute after an update that interns new constants and deletes
        every atom those rows came from."""
        abox = ABox()
        for i in range(4):
            abox.add("R", f"a{i}", f"b{i}")
            abox.add("S", f"b{i}", f"c{i}")
        before = {(f"a{i}", f"c{i}") for i in range(4)}
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        with AnswerSession(abox) as session:
            record = session.answer(omq, method="tw")
            assert type(record.rows) is CodedRows and len(record) == 4
            known = len(record.rows.names)
            session.apply_update(
                inserts=[("R", (f"new{i}", f"b{i}")) for i in range(40)]
                + [("S", ("b0", f"fresh{i}")) for i in range(40)],
                deletes=list(abox.atoms()))
            assert len(record.rows.names) > known  # names were appended
            now = session.answer(omq, method="tw").answers
            assert now and now.isdisjoint(before)
            assert Answers.from_wire(record.wire()).answers == before
            assert record.answers == before


class TestAnswers:
    def test_container_protocol_and_provenance(self):
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        plan = compile_omq(omq, method="lin")
        result = plan.execute(random_data(7, individuals=8, atoms=30))
        assert len(result) == len(result.answers)
        assert set(result) == set(result.answers)
        for row in result.answers:
            assert row in result
        assert result.sorted() == sorted(result.answers)
        assert result.method == "lin"
        assert result.plan_fingerprint == plan.fingerprint
        assert result.seconds >= 0
