"""Tests for the structured SQL IR, its SQLite renderer, and how the
``sql`` engine is reached through plans, options and the service.

Every SQL compilation runs one way: no optimiser pass, no views, one
dialect.  What is left to hold is the rendering (escaping in one
place), the ``/explain`` report, the retired ``optimize_sql`` and
``sql-views`` inputs, and the engine under ``apply_delta`` update
sequences — across every available engine.
"""

import sqlite3

import pytest

from repro import ABox, OMQ, chain_cq, rewrite
from repro.cli import build_parser
from repro.datalog.evaluate import evaluate
from repro.datalog.program import Clause, Literal, NDLQuery, Program
from repro.engine import ENGINES
from repro.rewriting import AnswerSession
from repro.rewriting.plan import AnswerOptions, compile_omq
from repro.client import tbox_to_text
from repro.service import OMQService
from repro.service.protocol import ProtocolError, Router, error_payload
from repro.sql.compile import compile_query
from repro.sql.engine import SQLEngine, evaluate_sql
from repro.sql.ir import quote_literal

from .helpers import example11_tbox


def _query(clauses, goal, answer_vars=()):
    return NDLQuery(Program(clauses), goal, tuple(answer_vars))


# -- rendering --------------------------------------------------------------

class TestDialects:
    """Rendering SQLite's dialect of SQL."""

    def test_literal_quotes_are_doubled(self):
        assert quote_literal("O'Brien") == "'O''Brien'"


class TestHostileNames:
    """Identifier quoting and literal escaping happen in one place, so
    predicate names chosen to break string surgery stay safe."""

    # the old cte_query split rendered text on this exact substring
    HOSTILE = 'evil" AS\ntable'

    def _hostile_query(self):
        clause = Clause(Literal("G", ("x", "y")),
                        (Literal(self.HOSTILE, ("x", "y")),))
        return _query([clause], "G", ("x", "y"))

    def test_cte_query_survives_as_newline_in_predicate_name(self):
        compilation = compile_query(self._hostile_query())
        from repro.sql.schema import create_schema, table_name

        connection = sqlite3.connect(":memory:")
        create_schema(connection, {self.HOSTILE: 2})
        connection.execute(
            f"INSERT INTO {table_name(self.HOSTILE)} VALUES ('a', 'b')")
        rows = connection.execute(compilation.cte_query()).fetchall()
        assert rows == [("a", "b")]

    def test_full_evaluation_with_hostile_predicate(self):
        query = self._hostile_query()
        extra = {self.HOSTILE: [("a", "b"), ("b", "c")]}
        result = evaluate_sql(query, ABox(), extra_relations=extra)
        assert result.answers == {("a", "b"), ("b", "c")}


# -- plan / options / service threading ------------------------------------

class TestOptionThreading:
    def test_explain_reports_the_sql_engine_script(self):
        omq = OMQ(example11_tbox(), chain_cq("RSR"))
        plan = compile_omq(omq, method="perfectref", engine="sql")
        report = plan.explain()
        assert "optimize_sql" not in report
        sql = report["sql"]
        assert set(sql) == {"engine", "statements", "goal_select"}
        compilation = compile_query(plan.ndl)
        assert sql["statements"] == list(compilation.statements)
        assert all(statement.startswith("CREATE TABLE")
                   for statement in sql["statements"])
        assert sql["goal_select"] == compilation.goal_select

    def test_explain_has_no_sql_section_for_python_engine(self):
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        assert "sql" not in compile_omq(omq, engine="python").explain()

    def test_protocol_decodes_flat_optimize_sql_key(self):
        """``optimize_sql`` is no option any more: beside the
        ``"options"`` object, as earlier protocol versions sent it, it
        is a structured 400 that names it, as it is inside."""
        for payload in ({"optimize_sql": True},
                        {"options": {"optimize_sql": True}}):
            with pytest.raises(ValueError, match="optimize_sql") \
                    as excinfo:
                Router.decode_options(payload)
            status, error, _ = error_payload(excinfo.value)
            assert (status, error["error_type"]) == (400, "bad_request")
        with pytest.raises(ProtocolError, match="'options'"):
            Router.decode_options({"engine": "sql"})
        # and a key that is no longer an option is a 400 naming it, on
        # every route that decodes options
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        body = {"dataset": "demo", "query": str(omq.query),
                "answers": list(omq.query.answer_vars),
                "tbox_text": tbox_to_text(omq.tbox)}
        with OMQService() as service:
            service.register_dataset("demo", ABox.parse("R(a,b), S(b,c)"))
            router = Router(service)
            for retired in ({"magic": True}, {"optimize": True},
                            {"start_method": "spawn"}, {"shards": 2},
                            {"optimize_sql": True},
                            {"engine": "sql-views"}):
                for path, payload in (
                        ("/answer", {**body, "options": retired}),
                        ("/explain", {**body, "options": retired}),
                        ("/subscribe", {**body, "options": retired}),
                        ("/batch", {"requests": [
                            {**body, "options": retired}]})):
                    with pytest.raises(ValueError) as excinfo:
                        router.handle("POST", path, payload)
                    status, error, _ = error_payload(excinfo.value)
                    assert (status, error["error_type"]) == (
                        400, "bad_request"), (path, retired)
                    assert next(iter(retired)) in error["error"]

    def test_registry_is_open_everywhere(self):
        # every registered engine name must be accepted by the options
        # layer, the wire protocol and both CLI subcommand choices —
        # iterating ENGINES, not a hard-coded list
        parser = build_parser()
        cli_choices = {
            action.dest: action.choices
            for subparser in parser._subparsers._group_actions[0]
            .choices.values()
            for action in subparser._actions
            if action.dest == "engine" and action.choices}
        for name in ENGINES:
            assert AnswerOptions(engine=name).engine == name
            assert Router.decode_options(
                {"options": {"engine": name}}).engine == name
            assert name in cli_choices["engine"]


# -- the engine under update sequences --------------------------------------

class TestDeltaSequences:
    def test_duplicate_insert_keeps_base_tables_sets(self):
        clause = Clause(Literal("G", ("x", "y")),
                        (Literal("R", ("x", "y")),))
        query = _query([clause], "G", ("x", "y"))
        abox = ABox.parse("R(a,b), R(b,c)")
        with SQLEngine(abox) as engine:
            engine.evaluate(query)
            # (a,b) is already present; (c,d) is new
            engine.apply_delta({"R": [("a", "b"), ("c", "d")]}, {})
            abox.add("R", "c", "d")
            assert engine.evaluate(query).answers \
                == {("a", "b"), ("b", "c"), ("c", "d")}
            assert engine.connection.execute(
                'SELECT COUNT(*) FROM "p_R"').fetchone() == (3,)

    def test_update_sequences_agree_across_engines(self):
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RS"))
        script = [
            ("insert", [("R", ("a", "e")), ("A_P", ("c",))]),
            ("insert", [("R", ("a", "b")), ("S", ("e", "c"))]),
            ("delete", [("R", ("a", "b"))]),
            ("insert", [("R", ("a", "b")), ("R", ("e", "e"))]),
        ]
        for engine in ENGINES:
            state = {("R", ("a", "b")), ("S", ("b", "c")),
                     ("A_P", ("b",))}
            abox = ABox()
            for predicate, args in state:
                abox.add(predicate, *args)
            with AnswerSession(abox, engine=engine) as session:
                plan = session.compile(omq)
                for op, atoms in script:
                    if op == "insert":
                        session.insert_facts(atoms)
                        state.update(atoms)
                    else:
                        session.delete_facts(atoms)
                        state.difference_update(atoms)
                    fresh = ABox()
                    for predicate, args in state:
                        fresh.add(predicate, *args)
                    expected = evaluate(
                        rewrite(omq, method="ucq"),
                        fresh.complete(tbox)).answers
                    result = plan.execute(session, engine=engine)
                    assert result.answers == expected, \
                        (engine, op, sorted(state))
