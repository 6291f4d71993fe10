"""Tests for the structured SQL IR, the optimizer pass pipeline and
the per-dialect renderers.

The load-bearing property is that every optimizer pass is
answer-preserving: optimized SQL == unoptimized SQL == the python
engine, on hand-built programs, the rewriter outputs, random NDL
programs and under ``apply_delta`` update sequences — across every
available engine.
"""

import sqlite3

import pytest
from hypothesis import given

from repro import ABox, OMQ, chain_cq, rewrite
from repro.cli import build_parser
from repro.datalog.evaluate import evaluate
from repro.datalog.program import Clause, Literal, NDLQuery, Program
from repro.engine import ENGINES, SQL_ENGINES
from repro.rewriting import AnswerSession
from repro.rewriting.plan import AnswerOptions, compile_omq, format_explain
from repro.client import tbox_to_text
from repro.service import OMQService
from repro.service.protocol import ProtocolError, Router, error_payload
from repro.sql.compile import compile_query, compile_query_ir
from repro.sql.engine import SQLEngine, evaluate_sql
from repro.sql.ir import (
    ColumnRef,
    Comparison,
    Definition,
    Disjunction,
    InList,
    OutputColumn,
    QueryIR,
    Select,
    SQLLiteral,
    TableRef,
    Union,
    get_dialect,
    node_count,
)
from repro.sql.optimize import (
    PASSES,
    dedup_branches,
    elide_distinct,
    hoist_common_subqueries,
    merge_or_chains,
    prune_subsumed,
)

from .helpers import example11_tbox, hypothesis_settings
from .test_sql import _random_abox, _random_query

REWRITERS = ("lin", "log", "tw", "tw_star", "ucq", "presto")


def _query(clauses, goal, answer_vars=()):
    return NDLQuery(Program(clauses), goal, tuple(answer_vars))


def _goal_select(relation="p_G", arity=1):
    columns = tuple(OutputColumn(ColumnRef(None, f"c{i}"), f"c{i}")
                    for i in range(arity))
    return Select(columns=columns,
                  tables=(TableRef(relation, None, arity=arity),))


# -- dialects and rendering -------------------------------------------------

class TestDialects:
    def test_unknown_dialect_is_rejected(self):
        with pytest.raises(ValueError, match="unknown SQL dialect"):
            get_dialect("postgres")

    def test_literal_quotes_are_doubled(self):
        assert get_dialect("sqlite").quote_literal("O'Brien") == "'O''Brien'"

    def test_in_list_rendering_escapes_values(self):
        condition = InList(ColumnRef("t0", "c0"),
                           (SQLLiteral("a"), SQLLiteral("o'x")))
        rendered = get_dialect("sqlite").render_condition(condition)
        assert rendered == "t0.c0 IN ('a', 'o''x')"

    def test_disjunction_rendering(self):
        condition = Disjunction((
            Comparison(ColumnRef("t0", "c0"), "=", SQLLiteral("a")),
            Comparison(ColumnRef("t0", "c0"), "=", ColumnRef("t1", "c1"))))
        rendered = get_dialect("sqlite").render_condition(condition)
        assert rendered == "(t0.c0 = 'a' OR t0.c0 = t1.c1)"

    def test_core_sql_is_dialect_portable(self):
        ndl = rewrite(OMQ(example11_tbox(), chain_cq("RS")), method="ucq")
        sqlite_form = compile_query(ndl, dialect="sqlite")
        assert sqlite_form.script() == compile_query(ndl).script()
        assert sqlite_form.dialect == "sqlite"


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

    @pytest.mark.parametrize("optimize", (False, True))
    def test_full_evaluation_with_hostile_predicate(self, optimize):
        query = self._hostile_query()
        extra = {self.HOSTILE: [("a", "b"), ("b", "c")]}
        result = evaluate_sql(query, ABox(), extra_relations=extra,
                              optimize_sql=optimize)
        assert result.answers == {("a", "b"), ("b", "c")}


# -- individual passes ------------------------------------------------------

class TestDedupBranches:
    def test_identical_clause_selects_collapse(self):
        # different variable names, identical compiled select
        clauses = [Clause(Literal("G", ("x",)), (Literal("A", ("x",)),)),
                   Clause(Literal("G", ("z",)), (Literal("A", ("z",)),))]
        ir = compile_query_ir(_query(clauses, "G", ("x",)))
        assert len(ir.definitions[0].union.selects) == 2
        deduped = dedup_branches(ir)
        assert len(deduped.definitions[0].union.selects) == 1

    def test_dedup_preserves_answers(self):
        clauses = [Clause(Literal("G", ("x",)), (Literal("A", ("x",)),)),
                   Clause(Literal("G", ("z",)), (Literal("A", ("z",)),))]
        query = _query(clauses, "G", ("x",))
        abox = ABox.parse("A(a), A(b)")
        assert evaluate_sql(query, abox, optimize_sql=True).answers \
            == evaluate(query, abox).answers == {("a",), ("b",)}


class TestPruneSubsumed:
    def _two_branch_query(self):
        # the second branch maps homomorphically into... rather: the
        # first branch R(x,y) subsumes the second R(x,y),S(y,z)
        clauses = [
            Clause(Literal("G", ("x",)), (Literal("R", ("x", "y")),)),
            Clause(Literal("G", ("x",)), (Literal("R", ("x", "y")),
                                          Literal("S", ("y", "z")))),
        ]
        return _query(clauses, "G", ("x",))

    def test_subsumed_branch_is_dropped(self):
        ir = compile_query_ir(self._two_branch_query())
        pruned = prune_subsumed(ir)
        union = pruned.definitions[0].union
        assert len(union.selects) == 1
        assert [t.relation for t in union.selects[0].tables] == ["p_R"]

    def test_pruning_preserves_answers(self):
        query = self._two_branch_query()
        abox = ABox.parse("R(a,b), S(b,c), R(c,d)")
        expected = evaluate(query, abox).answers
        assert evaluate_sql(query, abox, optimize_sql=True).answers \
            == expected

    def test_unrelated_branches_survive(self):
        clauses = [
            Clause(Literal("G", ("x",)), (Literal("R", ("x", "y")),)),
            Clause(Literal("G", ("x",)), (Literal("S", ("x", "y")),)),
        ]
        ir = compile_query_ir(_query(clauses, "G", ("x",)))
        assert len(prune_subsumed(ir).definitions[0].union.selects) == 2


class TestMergeOrChains:
    def _branch(self, value):
        return Select(
            columns=(OutputColumn(ColumnRef("t0", "c0"), "c0"),),
            tables=(TableRef("p_R", "t0", arity=2),),
            where=(Comparison(ColumnRef("t0", "c1"), "=",
                              SQLLiteral(value)),))

    def _ir(self, union):
        return QueryIR((Definition("G", "p_G", union),),
                       _goal_select(), False)

    def test_literal_equalities_merge_to_in(self):
        union = Union((self._branch("a"), self._branch("b"),
                       self._branch("c")))
        merged = merge_or_chains(self._ir(union)).definitions[0].union
        assert len(merged.selects) == 1
        (condition,) = merged.selects[0].where
        assert isinstance(condition, InList)
        assert [v.value for v in condition.values] == ["a", "b", "c"]

    def test_non_literal_right_merges_to_disjunction(self):
        other = Select(
            columns=(OutputColumn(ColumnRef("t0", "c0"), "c0"),),
            tables=(TableRef("p_R", "t0", arity=2),),
            where=(Comparison(ColumnRef("t0", "c1"), "=",
                              ColumnRef("t0", "c0")),))
        union = Union((self._branch("a"), other))
        merged = merge_or_chains(self._ir(union)).definitions[0].union
        assert len(merged.selects) == 1
        (condition,) = merged.selects[0].where
        assert isinstance(condition, Disjunction)

    def test_merge_preserves_results_on_data(self):
        union = Union((self._branch("a"), self._branch("b")))
        merged = merge_or_chains(self._ir(union)).definitions[0].union
        dialect = get_dialect("sqlite")
        connection = sqlite3.connect(":memory:")
        connection.execute('CREATE TABLE "p_R" (c0 TEXT, c1 TEXT)')
        connection.executemany('INSERT INTO "p_R" VALUES (?, ?)',
                               [("u", "a"), ("v", "b"), ("w", "c"),
                                ("x", "a")])
        before = set(connection.execute(
            dialect.render_union(union)).fetchall())
        after = set(connection.execute(
            dialect.render_union(merged)).fetchall())
        assert before == after == {("u",), ("v",), ("x",)}

    def test_branches_with_different_joins_do_not_merge(self):
        other = Select(
            columns=(OutputColumn(ColumnRef("t0", "c0"), "c0"),),
            tables=(TableRef("p_S", "t0", arity=2),),
            where=(Comparison(ColumnRef("t0", "c1"), "=",
                              SQLLiteral("b")),))
        union = Union((self._branch("a"), other))
        merged = merge_or_chains(self._ir(union)).definitions[0].union
        assert len(merged.selects) == 2


class TestHoistCommonSubqueries:
    def _shared_join_query(self):
        body = (Literal("R", ("x", "y")), Literal("S", ("y", "z")))
        clauses = [
            Clause(Literal("Q1", ("x", "z")), body),
            Clause(Literal("Q2", ("x", "z")), body),
            Clause(Literal("G", ("x", "z")), (Literal("Q1", ("x", "z")),)),
            Clause(Literal("G", ("x", "z")), (Literal("Q2", ("x", "z")),)),
        ]
        return _query(clauses, "G", ("x", "z"))

    def test_shared_join_becomes_synthetic_definition(self):
        ir = compile_query_ir(self._shared_join_query())
        hoisted = hoist_common_subqueries(ir)
        synthetic = [d for d in hoisted.definitions if d.synthetic]
        assert len(synthetic) == 1
        assert synthetic[0].predicate == "_cse0"
        # both former occurrences now scan the hoisted relation
        scans = [t.relation
                 for d in hoisted.definitions if not d.synthetic
                 for s in d.union.selects for t in s.tables]
        assert scans.count(synthetic[0].relation) == 2

    def test_hoisting_preserves_answers_and_sizes(self):
        query = self._shared_join_query()
        abox = ABox.parse("R(a,b), S(b,c), R(c,d), S(d,e)")
        expected = evaluate(query, abox)
        for materialised in (False, True):
            plain = evaluate_sql(query, abox, materialised=materialised)
            optimized = evaluate_sql(query, abox,
                                     materialised=materialised,
                                     optimize_sql=True)
            assert plain.answers == optimized.answers == expected.answers
            # synthetic relations are excluded from the size metric
            assert set(optimized.relation_sizes) \
                <= set(plain.relation_sizes)


class TestElideDistinct:
    def test_union_branches_lose_inner_distinct(self):
        clauses = [
            Clause(Literal("G", ("x",)), (Literal("A", ("x",)),)),
            Clause(Literal("G", ("x",)), (Literal("B", ("x",)),)),
        ]
        ir = compile_query_ir(_query(clauses, "G", ("x",)))
        elided = elide_distinct(ir)
        assert all(not s.distinct
                   for s in elided.definitions[0].union.selects)

    def test_key_covered_single_branch_loses_distinct(self):
        clause = Clause(Literal("G", ("x", "y")), (Literal("R", ("x", "y")),))
        ir = compile_query_ir(_query([clause], "G", ("x", "y")))
        elided = elide_distinct(ir)
        assert not elided.definitions[0].union.selects[0].distinct
        assert not elided.goal.distinct

    def test_projection_dropping_a_column_keeps_distinct(self):
        clause = Clause(Literal("G", ("x",)), (Literal("R", ("x", "y")),))
        ir = compile_query_ir(_query([clause], "G", ("x",)))
        elided = elide_distinct(ir)
        # y/c1 is not determined by the projection: R may repeat c0
        assert elided.definitions[0].union.selects[0].distinct

    def test_elision_is_safe_on_data(self):
        clause = Clause(Literal("G", ("x",)), (Literal("R", ("x", "y")),))
        query = _query([clause], "G", ("x",))
        abox = ABox.parse("R(a,b), R(a,c), R(b,c)")
        expected = evaluate(query, abox)
        optimized = evaluate_sql(query, abox, optimize_sql=True)
        assert optimized.answers == expected.answers
        assert optimized.generated_tuples == expected.generated_tuples


class TestPassLog:
    def test_one_entry_per_pass_in_order(self):
        ndl = rewrite(OMQ(example11_tbox(), chain_cq("RSR")),
                      method="perfectref")
        compilation = compile_query(ndl, optimize=True)
        assert [entry["pass"] for entry in compilation.passes] \
            == [name for name, _ in PASSES]
        for entry in compilation.passes:
            assert set(entry) == {"pass", "before", "after", "changed"}
            assert entry["after"] <= entry["before"]

    def test_unoptimized_compilation_has_empty_log(self):
        ndl = rewrite(OMQ(example11_tbox(), chain_cq("RS")), method="ucq")
        assert compile_query(ndl).passes == ()

    def test_node_count_counts_ir_nodes(self):
        ir = compile_query_ir(
            _query([Clause(Literal("G", ("x",)), (Literal("A", ("x",)),))],
                   "G", ("x",)))
        assert node_count(ir) == node_count(ir.definitions[0]) \
            + node_count(ir.goal) + 1


# -- plan / options / service threading ------------------------------------

class TestOptionThreading:
    def test_optimize_sql_partitions_the_cache_fingerprint(self):
        plain = AnswerOptions()
        optimized = AnswerOptions(optimize_sql=True)
        assert plain.rewrite_fingerprint() \
            != optimized.rewrite_fingerprint()

    def test_explain_reports_pass_log_on_sql_engines(self):
        omq = OMQ(example11_tbox(), chain_cq("RSR"))
        plan = compile_omq(omq, method="perfectref",
                           engine="sql-views", optimize_sql=True)
        report = plan.explain()
        assert report["optimize_sql"] is True
        sql = report["sql"]
        assert sql["dialect"] == "sqlite"
        assert [e["pass"] for e in sql["passes"]] \
            == [name for name, _ in PASSES]
        assert any(e["changed"] for e in sql["passes"])
        assert sql["statements"]
        text = format_explain(report)
        assert "pass prune-subsumed" in text

    def test_explain_has_no_sql_section_for_python_engine(self):
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        assert "sql" not in compile_omq(omq, engine="python").explain()

    def test_protocol_decodes_flat_optimize_sql_key(self):
        """The knob rides the ``"options"`` object; the flat key earlier
        protocol versions read is a structured 400."""
        options = Router.decode_options(
            {"options": {"optimize_sql": True, "engine": "sql-views"}})
        assert options.optimize_sql is True
        with pytest.raises(ProtocolError, match="'options'") as excinfo:
            Router.decode_options({"optimize_sql": True})
        assert (excinfo.value.status, excinfo.value.error_type) == (
            400, "bad_request")
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
                            {"start_method": "spawn"}, {"shards": 2}):
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

    def test_type_error_inside_optimized_evaluation_propagates(
            self, monkeypatch):
        """A ``TypeError`` raised while evaluating optimized SQL is the
        caller's to see — never a silent unoptimized re-run."""
        calls = []

        def broken(self, query, materialised=True, optimize_sql=False):
            calls.append(optimize_sql)
            raise TypeError("raised inside the evaluation")

        monkeypatch.setattr(SQLEngine, "evaluate", broken)
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        with AnswerSession(ABox.parse("R(a,b), S(b,c)")) as session:
            with pytest.raises(TypeError, match="inside the evaluation"):
                session.answer(omq, engine="sql", optimize_sql=True)
        assert calls == [True]

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

    def test_sql_engines_is_a_subset_of_engines(self):
        assert set(SQL_ENGINES) < set(ENGINES)
        assert "python" not in SQL_ENGINES


# -- differential: optimized == unoptimized == python -----------------------

class TestOptimizedDifferential:
    @pytest.fixture(scope="class")
    def setting(self):
        tbox = example11_tbox()
        query = chain_cq("RSRRSRR")
        abox = ABox.parse(
            "R(a,b), S(b,c), R(c,d), R(d,e), S(e,f), R(f,g), R(g,h), "
            "A_P(c), A_P-(d), R(h,a), S(a,a)").complete(tbox)
        return tbox, query, abox

    @pytest.mark.parametrize("method", REWRITERS)
    def test_every_rewriter_survives_optimization(self, setting, method):
        tbox, query, abox = setting
        ndl = rewrite(OMQ(tbox, query), method=method)
        expected = evaluate(ndl, abox)
        for materialised in (False, True):
            plain = evaluate_sql(ndl, abox, materialised=materialised)
            optimized = evaluate_sql(ndl, abox, materialised=materialised,
                                     optimize_sql=True)
            assert optimized.answers == plain.answers == expected.answers

    def test_perfectref_survives_optimization(self, setting):
        # perfectref's UCQ blows past SQLite's compound-SELECT limit on
        # the long chain; a 3-atom chain still exercises the
        # subsumption-heavy unions it produces
        tbox, _, abox = setting
        ndl = rewrite(OMQ(tbox, chain_cq("RSR")), method="perfectref")
        expected = evaluate(ndl, abox)
        for materialised in (False, True):
            optimized = evaluate_sql(ndl, abox, materialised=materialised,
                                     optimize_sql=True)
            assert optimized.answers == expected.answers

    @hypothesis_settings(max_examples=25)
    @given(query=_random_query(), abox=_random_abox())
    def test_random_programs_agree(self, query, abox):
        expected = evaluate(query, abox).answers
        for materialised in (False, True):
            optimized = evaluate_sql(query, abox,
                                     materialised=materialised,
                                     optimize_sql=True)
            assert optimized.answers == expected


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
            plain = engine.evaluate(query, optimize_sql=False)
            optimized = engine.evaluate(query, optimize_sql=True)
            assert plain.answers == optimized.answers \
                == {("a", "b"), ("b", "c"), ("c", "d")}
            # DISTINCT elision would expose duplicate rows here
            assert plain.generated_tuples == optimized.generated_tuples

    def test_update_sequences_agree_across_engines(self):
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RS"))
        options = AnswerOptions(optimize_sql=True)
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
                plan = session.compile(omq, options)
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
                    result = plan.execute(session, engine=engine,
                                          options=options)
                    assert result.answers == expected, \
                        (engine, op, sorted(state))
