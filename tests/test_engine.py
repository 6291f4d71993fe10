"""Tests for the unified engine layer (``repro.engine``) and
``AnswerSession``: the interned/indexed database, cross-engine answer
parity for every rewriter, and the no-reload session guarantee.
"""

import pytest

from repro import ABox, CQ, OMQ, certain_answers, chain_cq, evaluate
from repro.data.abox import ABox as ABoxClass
from repro.datalog import Clause, Literal, NDLQuery, Program, evaluate_on
from repro.engine import ENGINES, Database, PythonEngine, create_engine
from repro.rewriting import METHODS, AnswerSession

from .helpers import deep_tbox, example11_tbox, random_data


# -- Database ---------------------------------------------------------------


class TestDatabase:
    def test_interning_roundtrip(self):
        db = Database(ABox.parse("R(a,b), A(c)"))
        for constant in ("a", "b", "c"):
            assert db.decode(db.intern(constant)) == constant
        assert db.constants == 3

    def test_relations_are_interned(self):
        abox = ABox.parse("R(a,b), R(b,c), A(a)")
        db = Database(abox)
        assert db.decode_rows(db.relation("R")) == {("a", "b"), ("b", "c")}
        assert db.decode_rows(db.relation("A")) == {("a",)}
        assert db.decode_rows(db.relation("__adom__")) == {
            ("a",), ("b",), ("c",)}
        assert db.relation("missing") == frozenset()

    def test_index_groups_by_positions(self):
        db = Database(ABox.parse("R(a,b), R(a,c), R(b,c)"))
        index = db.index("R", (0,))
        # single-position indexes use the bare code as key
        assert len(index[db.intern("a")]) == 2
        pair_index = db.index("R", (0, 1))
        assert len(pair_index[(db.intern("a"), db.intern("b"))]) == 1
        assert db.distinct_keys("R", (0,)) == 2
        assert db.distinct_keys("R", (1,)) == 2
        assert db.distinct_keys("R", (0, 1)) == 3

    def test_index_is_memoised(self):
        db = Database(ABox.parse("R(a,b)"))
        assert db.index("R", (0,)) is db.index("R", (0,))

    def test_extra_relations_override_and_extend_adom(self):
        abox = ABox.parse("A(a)")
        extra = {"T": {("x", "y", "z")}, "A": {("b",)}}
        db = Database(abox, extra)
        assert db.decode_rows(db.relation("T")) == {("x", "y", "z")}
        # extras override the same-named ABox predicate (the contract
        # evaluate() always had) and their constants join the domain
        assert db.decode_rows(db.relation("A")) == {("b",)}
        assert db.decode_rows(db.relation("__adom__")) == {
            ("a",), ("b",), ("x",), ("y",), ("z",)}


# -- evaluate_on ------------------------------------------------------------


def _chain_query():
    clauses = [Clause(Literal("G", ("x", "z")),
                      (Literal("R", ("x", "y")), Literal("R", ("y", "z"))))]
    return NDLQuery(Program(clauses), "G", ("x", "z"))


class TestEvaluateOn:
    def test_matches_one_shot_evaluate(self):
        abox = ABox.parse("R(a,b), R(b,c), R(c,d)")
        query = _chain_query()
        one_shot = evaluate(query, abox)
        shared = evaluate_on(query, Database(abox))
        assert shared.answers == one_shot.answers
        assert shared.relation_sizes == one_shot.relation_sizes
        assert shared.generated_tuples == one_shot.generated_tuples

    def test_database_reused_across_queries(self):
        abox = ABox.parse("R(a,b), R(b,c), R(c,d), A(a)")
        db = Database(abox)
        first = evaluate_on(_chain_query(), db)
        clauses = [Clause(Literal("H", ("x",)),
                          (Literal("A", ("x",)), Literal("R", ("x", "y"))))]
        second = evaluate_on(NDLQuery(Program(clauses), "H", ("x",)), db)
        assert first.answers == {("a", "c"), ("b", "d")}
        assert second.answers == {("a",)}

    def test_edb_goal(self):
        db = Database(ABox.parse("A(a), A(b)"))
        query = NDLQuery(Program([]), "A", ("x",))
        assert evaluate_on(query, db).answers == {("a",), ("b",)}


# -- unified backends -------------------------------------------------------


class TestCreateEngine:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            create_engine("mysql", ABox())

    @pytest.mark.parametrize("name", ENGINES)
    def test_backends_agree_on_plain_ndl(self, name):
        abox = ABox.parse("R(a,b), R(b,c), R(c,d)")
        expected = evaluate(_chain_query(), abox).answers
        with create_engine(name, abox) as backend:
            assert backend.evaluate(_chain_query()).answers == expected

    def test_python_engine_shares_one_database(self):
        engine = PythonEngine(ABox.parse("R(a,b), R(b,c)"))
        database = engine.database
        engine.evaluate(_chain_query())
        engine.evaluate(_chain_query())
        assert engine.database is database


# -- cross-engine parity over the full rewriter zoo -------------------------


def _parity_settings():
    shallow = ABox.parse(
        "R(c0,c1), S(c1,c2), R(c2,c3), A_P-(d0), R(d0,d3), A_P-(d3)")
    deep_data = random_data(3)
    return [
        (example11_tbox(), chain_cq("RSR"), shallow),
        (deep_tbox(), CQ.parse("R(x,y), S(y,z)", answer_vars=["x"]),
         deep_data),
    ]


class TestCrossEngineParity:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("setting", range(2))
    def test_all_engines_agree_for_every_method(self, method, setting):
        tbox, query, abox = _parity_settings()[setting]
        omq = OMQ(tbox, query)
        expected = frozenset(certain_answers(tbox, abox, query))
        with AnswerSession(abox) as session:
            results = {engine: session.answer(omq, method=method,
                                              engine=engine).answers
                       for engine in ENGINES}
        for engine, answers in results.items():
            assert answers == expected, (
                f"engine {engine} disagrees for method {method}")


# -- AnswerSession reuse ----------------------------------------------------


class TestAnswerSessionReuse:
    def test_data_loaded_once_across_queries(self):
        tbox = example11_tbox()
        abox = random_data(7)
        omqs = [OMQ(tbox, chain_cq(labels))
                for labels in ("RS", "RSR", "SRR")]
        with AnswerSession(abox) as session:
            for omq in omqs:
                for method in ("lin", "log", "tw"):
                    session.answer(omq, method=method)
            assert session.data_loads == 1

    def test_completion_computed_once(self, monkeypatch):
        calls = []
        original = ABoxClass.complete

        def counting(self, tbox):
            calls.append(tbox)
            return original(self, tbox)

        monkeypatch.setattr(ABoxClass, "complete", counting)
        tbox = example11_tbox()
        abox = random_data(8)
        with AnswerSession(abox) as session:
            for labels in ("RS", "SR", "RSR"):
                session.answer(OMQ(tbox, chain_cq(labels)))
        assert len(calls) == 1

    def test_python_backend_database_is_stable(self):
        tbox = example11_tbox()
        abox = random_data(9)
        omq = OMQ(tbox, chain_cq("RS"))
        with AnswerSession(abox) as session:
            session.answer(omq)
            database = session.backend(tbox=tbox).database
            session.answer(omq, method="log")
            assert session.backend(tbox=tbox).database is database

    def test_perfectref_uses_raw_data_backend(self):
        tbox = example11_tbox()
        abox = random_data(10)
        omq = OMQ(tbox, chain_cq("RS"))
        with AnswerSession(abox) as session:
            session.answer(omq, method="perfectref")
            session.answer(omq, method="lin")
            # raw + completed variants: two loads, still one per variant
            assert session.data_loads == 2
            session.answer(omq, method="perfectref")
            session.answer(omq, method="lin")
            assert session.data_loads == 2

    def test_engine_override_loads_each_backend_once(self):
        tbox = example11_tbox()
        abox = random_data(11)
        omq = OMQ(tbox, chain_cq("RS"))
        with AnswerSession(abox) as session:
            for _ in range(2):
                for engine in ENGINES:
                    session.answer(omq, engine=engine)
            assert session.data_loads == len(ENGINES)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            AnswerSession(ABox(), engine="oracle")
        with AnswerSession(ABox()) as session:
            with pytest.raises(ValueError, match="unknown engine"):
                session.answer(OMQ(example11_tbox(), chain_cq("R")),
                               engine="oracle")

    def test_matches_one_shot_answer(self):
        from repro import answer

        tbox = example11_tbox()
        abox = random_data(12)
        omq = OMQ(tbox, chain_cq("RSR"))
        with AnswerSession(abox) as session:
            for method in ("lin", "tw", "adaptive"):
                assert (session.answer(omq, method=method).answers
                        == answer(omq, abox, method=method).answers)
