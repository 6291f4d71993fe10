"""Tests for the SQL backend (repro.sql): the Section 6 question of
running NDL rewritings in a standard DBMS.

The central property is engine interchangeability: for every program
and data instance, ``evaluate_sql`` agrees with the native Python
engine ``repro.datalog.evaluate``.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ABox, OMQ, chain_cq, rewrite
from repro.datalog.evaluate import evaluate, evaluate_on
from repro.datalog.program import ADOM, Clause, Equality, Literal, NDLQuery, Program
from repro.engine.database import Database
from repro.sql import (
    SQLEngine,
    compile_clause_ir,
    compile_query,
    evaluate_sql,
    quote_identifier,
    table_name,
)
from repro.sql.ir import render_select
from repro.sql.schema import (
    abox_arities,
    merged_arities,
    predicate_arities,
)

from .helpers import example11_tbox


def _query(clauses, goal, answer_vars=()):
    return NDLQuery(Program(clauses), goal, tuple(answer_vars))


class TestIdentifiers:
    def test_plain_name_is_quoted(self):
        assert quote_identifier("G") == '"G"'

    def test_embedded_quote_is_doubled(self):
        assert quote_identifier('a"b') == '"a""b"'

    def test_table_name_has_prefix(self):
        assert table_name("G") == '"p_G"'

    def test_inverse_surrogate_names_are_safe(self):
        # surrogate concepts are called A_P- in the ontology layer
        name = table_name("A_P-")
        connection = sqlite3.connect(":memory:")
        connection.execute(f"CREATE TABLE {name} (c0 TEXT)")
        connection.execute(f"INSERT INTO {name} VALUES ('a')")
        rows = connection.execute(f"SELECT * FROM {name}").fetchall()
        assert rows == [("a",)]


class TestArities:
    def test_program_arities(self):
        query = _query(
            [Clause(Literal("G", ("x",)),
                    (Literal("R", ("x", "y")), Literal("A", ("y",))))],
            "G", ("x",))
        arities = predicate_arities(query)
        assert arities["G"] == 1
        assert arities["R"] == 2
        assert arities["A"] == 1
        assert arities[ADOM] == 1

    def test_conflicting_arity_is_rejected(self):
        query = _query(
            [Clause(Literal("G", ("x",)),
                    (Literal("R", ("x", "y")), Literal("R", ("y",))))],
            "G", ("x",))
        with pytest.raises(ValueError, match="arities"):
            predicate_arities(query)

    def test_abox_arities(self):
        abox = ABox.parse("A(a), P(a, b)")
        assert abox_arities(abox) == {"A": 1, "P": 2}

    def test_merged_conflict_between_program_and_data(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("A", ("x", "y")),))],
            "G", ("x",))
        abox = ABox.parse("A(a)")
        with pytest.raises(ValueError, match="arity"):
            merged_arities(query, abox)


class TestCompileClause:
    def test_single_atom(self):
        clause = Clause(Literal("G", ("x",)), (Literal("A", ("x",)),))
        sql = render_select(compile_clause_ir(clause))
        assert 'FROM "p_A" AS t0' in sql
        assert sql.startswith("SELECT DISTINCT t0.c0 AS c0")

    def test_join_condition_for_shared_variable(self):
        clause = Clause(Literal("G", ("x", "z")),
                        (Literal("R", ("x", "y")), Literal("S", ("y", "z"))))
        sql = render_select(compile_clause_ir(clause))
        assert "WHERE t0.c1 = t1.c0" in sql

    def test_repeated_variable_in_one_atom(self):
        clause = Clause(Literal("G", ("x",)), (Literal("R", ("x", "x")),))
        sql = render_select(compile_clause_ir(clause))
        assert "WHERE t0.c0 = t0.c1" in sql

    def test_equality_binds_head_variable(self):
        clause = Clause(Literal("G", ("y",)),
                        (Equality("y", "z"), Literal("A", ("z",))))
        sql = render_select(compile_clause_ir(clause))
        # y is renamed to the bound representative; no unbound reference
        assert "c0" in sql
        assert "=" not in sql.split("FROM")[0]  # no equality in SELECT

    def test_nullary_head_emits_marker(self):
        clause = Clause(Literal("G", ()), (Literal("A", ("x",)),))
        sql = render_select(compile_clause_ir(clause))
        assert sql.startswith("SELECT DISTINCT '1' AS c0")


class TestCompileQuery:
    def test_statements_in_dependence_order(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("Q", ("x",)),)),
             Clause(Literal("Q", ("x",)), (Literal("A", ("x",)),))],
            "G", ("x",))
        compilation = compile_query(query)
        assert list(compilation.idb_order).index("Q") < \
            list(compilation.idb_order).index("G")

    def test_script_is_runnable(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("A", ("x",)),))],
            "G", ("x",))
        compilation = compile_query(query)
        connection = sqlite3.connect(":memory:")
        connection.execute('CREATE TABLE "p_A" (c0 TEXT)')
        connection.execute('INSERT INTO "p_A" VALUES (\'a\')')
        connection.executescript(
            "\n".join(s + ";" for s in compilation.statements))
        rows = connection.execute(compilation.goal_select).fetchall()
        assert rows == [("a",)]

    def test_cte_query_is_runnable(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("Q", ("x",)),)),
             Clause(Literal("Q", ("x",)), (Literal("A", ("x",)),))],
            "G", ("x",))
        compilation = compile_query(query)
        connection = sqlite3.connect(":memory:")
        connection.execute('CREATE TABLE "p_A" (c0 TEXT)')
        connection.execute('INSERT INTO "p_A" VALUES (\'a\')')
        rows = connection.execute(compilation.cte_query()).fetchall()
        assert rows == [("a",)]

    def test_unreachable_predicates_are_dropped(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("A", ("x",)),)),
             Clause(Literal("Dead", ("x",)), (Literal("B", ("x",)),))],
            "G", ("x",))
        compilation = compile_query(query)
        assert "Dead" not in compilation.idb_order


class TestEvaluateSql:
    def test_simple_join(self):
        query = _query(
            [Clause(Literal("G", ("x", "z")),
                    (Literal("R", ("x", "y")), Literal("S", ("y", "z"))))],
            "G", ("x", "z"))
        abox = ABox.parse("R(a, b), S(b, c), S(b, d), R(e, f)")
        result = evaluate_sql(query, abox)
        assert result.answers == {("a", "c"), ("a", "d")}

    def test_union_of_clauses(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("A", ("x",)),)),
             Clause(Literal("G", ("x",)), (Literal("B", ("x",)),))],
            "G", ("x",))
        abox = ABox.parse("A(a), B(b), A(b)")
        result = evaluate_sql(query, abox)
        assert result.answers == {("a",), ("b",)}

    def test_boolean_query_true_and_false(self):
        query = _query(
            [Clause(Literal("G", ()), (Literal("A", ("x",)),))], "G")
        assert evaluate_sql(query, ABox.parse("A(a)")).answers == {()}
        assert evaluate_sql(query, ABox.parse("B(a)")).answers == frozenset()

    def test_empty_data(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("A", ("x",)),))],
            "G", ("x",))
        assert evaluate_sql(query, ABox()).answers == frozenset()

    def test_adom_atom(self):
        # a clause padded with __adom__ ranges over every individual
        query = _query(
            [Clause(Literal("G", ("x", "y")),
                    (Literal("A", ("x",)), Literal(ADOM, ("y",))))],
            "G", ("x", "y"))
        abox = ABox.parse("A(a), P(b, c)")
        result = evaluate_sql(query, abox)
        assert result.answers == {("a", "a"), ("a", "b"), ("a", "c")}

    def test_extra_relations_of_wide_arity(self):
        query = _query(
            [Clause(Literal("G", ("x",)),
                    (Literal("emp", ("x", "d", "s")),))],
            "G", ("x",))
        extra = {"emp": {("ann", "d1", "10"), ("bob", "d2", "20")}}
        result = evaluate_sql(query, ABox(), extra_relations=extra)
        assert result.answers == {("ann",), ("bob",)}

    def test_generated_tuples_counts_materialised_idbs(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("Q", ("x",)),)),
             Clause(Literal("Q", ("x",)), (Literal("A", ("x",)),))],
            "G", ("x",))
        abox = ABox.parse("A(a), A(b)")
        result = evaluate_sql(query, abox)
        assert result.relation_sizes == {"G": 2, "Q": 2}
        assert result.generated_tuples == 4

    def test_goal_is_edb_predicate(self):
        query = NDLQuery(Program([]), "A", ("x",))
        abox = ABox.parse("A(a)")
        assert evaluate_sql(query, abox).answers == {("a",)}


class TestEngineReuse:
    def test_two_queries_share_one_connection(self):
        abox = ABox.parse("A(a), R(a, b)")
        with SQLEngine(abox) as engine:
            first = _query(
                [Clause(Literal("G", ("x",)), (Literal("A", ("x",)),))],
                "G", ("x",))
            second = _query(
                [Clause(Literal("H", ("x", "y")),
                        (Literal("R", ("x", "y")),))],
                "H", ("x", "y"))
            assert engine.evaluate(first).answers == {("a",)}
            assert engine.evaluate(second).answers == {("a", "b")}

    def test_idb_objects_are_dropped_between_queries(self):
        abox = ABox.parse("A(a)")
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("A", ("x",)),))],
            "G", ("x",))
        with SQLEngine(abox) as engine:
            engine.evaluate(query)
            # would raise "table p_G already exists" if not dropped
            engine.evaluate(query)

    def test_edb_arity_clash_across_queries_names_the_predicate(self):
        """An EDB predicate the data lacks is loaded empty at the arity
        the first query gives it; a later query using it at another
        arity is refused by name, not left to SQLite."""
        with SQLEngine(ABox.parse("R(a,b)")) as engine:
            unary = _query(
                [Clause(Literal("G", ("x",)), (Literal("Q", ("x",)),))],
                "G", ("x",))
            binary = _query(
                [Clause(Literal("G", ("x", "y")),
                        (Literal("Q", ("x", "y")),))],
                "G", ("x", "y"))
            assert engine.evaluate(unary).answers == frozenset()
            with pytest.raises(ValueError, match="'Q'.*arity 1"):
                engine.evaluate(binary)


#: All rewriters exercised by the differential tests.
REWRITERS = ("lin", "log", "tw", "tw_star", "ucq", "presto")


class TestDifferentialAgainstPythonEngine:
    @pytest.fixture(scope="class")
    def setting(self):
        tbox = example11_tbox()
        query = chain_cq("RSRRSRR")
        abox = ABox.parse(
            "R(a,b), S(b,c), R(c,d), R(d,e), S(e,f), R(f,g), R(g,h), "
            "A_P(c), A_P-(d), R(h,a), S(a,a)").complete(tbox)
        return tbox, query, abox

    @pytest.mark.parametrize("method", REWRITERS)
    def test_rewriter_output_agrees(self, setting, method):
        tbox, query, abox = setting
        ndl = rewrite(OMQ(tbox, query), method=method)
        expected = evaluate(ndl, abox).answers
        assert evaluate_sql(ndl, abox).answers == expected

    @pytest.mark.parametrize("method", ("lin", "tw"))
    def test_arbitrary_instance_rewriting_agrees(self, setting, method):
        tbox, query, _ = setting
        abox = ABox.parse("P(a, b), P(b, c), P(c, d)")
        ndl = rewrite(OMQ(tbox, query), method=method, over="arbitrary")
        assert (evaluate_sql(ndl, abox).answers
                == evaluate(ndl, abox).answers)


# -- property-based: random programs agree across engines ----------------

_VARS = ("x", "y", "z", "u")
_EDB_UNARY = ("A", "B")
_EDB_BINARY = ("R", "S")


def _random_body(draw):
    atoms = []
    size = draw(st.integers(min_value=1, max_value=3))
    for _ in range(size):
        if draw(st.booleans()):
            predicate = draw(st.sampled_from(_EDB_UNARY))
            atoms.append(Literal(predicate, (draw(st.sampled_from(_VARS)),)))
        else:
            # R(x, x) now and then: a repeated variable, unbound when
            # the atom is the one the join starts from
            first = draw(st.sampled_from(_VARS))
            second = first if draw(st.booleans()) else draw(
                st.sampled_from(_VARS))
            atoms.append(Literal(draw(st.sampled_from(_EDB_BINARY)),
                                 (first, second)))
    if draw(st.booleans()):
        atoms.append(Equality(draw(st.sampled_from(_VARS)),
                              draw(st.sampled_from(_VARS))))
    return atoms


def _head_vars(draw, body, nullary_ok=False, repeat_ok=False):
    variables = sorted({v for a in body for v in a.variables})
    if nullary_ok and draw(st.booleans()):
        return ()
    if repeat_ok and variables and draw(st.integers(0, 3)) == 0:
        # Q(z, z): a call inlined from it must equate its arguments
        return (variables[0], variables[0])
    return tuple(variables[:2]) or ("x",)


def _idb_atom(draw, clause):
    return Literal(clause.head.predicate,
                   tuple(draw(st.sampled_from(_VARS))
                         for _ in clause.head.args))


@st.composite
def _random_query(draw):
    # a three-stratum NDL program: Q_i over EDBs; P over the Q_i alone,
    # so an IDB relation is the atom a join starts from; G over P, the
    # Q_i and EDBs, possibly nullary, sometimes a union of two clauses.
    # Atoms that share no variable make cross products; a Q_i or P head
    # sometimes repeats a variable.
    layer = []
    for i in range(draw(st.integers(min_value=1, max_value=2))):
        body = _random_body(draw)
        layer.append(Clause(Literal(f"Q{i}", _head_vars(draw, body,
                                                        repeat_ok=True)),
                            tuple(body)))
    middle = [_idb_atom(draw, clause) for clause in layer]
    layer.append(Clause(Literal("P", _head_vars(draw, middle, True, True)),
                        tuple(middle)))
    goal_body = _random_body(draw) + [
        _idb_atom(draw, clause) for clause in layer
        if draw(st.booleans())]
    goal_vars = _head_vars(draw, goal_body, True)
    clauses = layer + [Clause(Literal("G", goal_vars), tuple(goal_body))]
    if goal_vars and draw(st.booleans()):
        # a union whose first clause copies a stored relation verbatim,
        # so the join reads that relation itself and the union meets it
        edb = _EDB_UNARY if len(goal_vars) == 1 else _EDB_BINARY
        clauses.insert(len(layer), Clause(
            Literal("G", goal_vars),
            (Literal(draw(st.sampled_from(edb)), goal_vars),)))
    return NDLQuery(Program(clauses), "G", goal_vars)


@st.composite
def _random_abox(draw):
    abox = ABox()
    constants = ("a", "b", "c")
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        if draw(st.booleans()):
            abox.add(draw(st.sampled_from(_EDB_UNARY)),
                     draw(st.sampled_from(constants)))
        else:
            abox.add(draw(st.sampled_from(_EDB_BINARY)),
                     draw(st.sampled_from(constants)),
                     draw(st.sampled_from(constants)))
    return abox


class TestPropertyEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(query=_random_query(), abox=_random_abox())
    def test_sql_agrees_with_python_engine(self, query, abox):
        database = Database(abox)
        expected = evaluate_on(query, database)
        got = evaluate_sql(query, abox)
        assert got.answers == expected.answers
        assert got.relation_sizes == expected.relation_sizes
        # the python engine joins straight from the stored relations,
        # without copying them: none may have been written through
        fresh = Database(abox)
        assert database.predicates == fresh.predicates
        for predicate in fresh.predicates:
            assert (database.decode_rows(database.relation(predicate))
                    == fresh.decode_rows(fresh.relation(predicate)))
