"""Tests for repro.datalog.evaluate (the bottom-up engine)."""

import sys
import threading
from itertools import combinations

from repro.data import ABox
from repro.datalog import Clause, Equality, Literal, NDLQuery, Program, evaluate
from repro.datalog.evaluate import _kernel, evaluate_on
from repro.engine import create_engine
from repro.engine.database import Database


def clause(head, *body):
    return Clause(head, tuple(body))


def run(clauses, goal, answer_vars, data):
    query = NDLQuery(Program(clauses), goal, tuple(answer_vars))
    return evaluate(query, ABox.parse(data))


class TestBasicEvaluation:
    def test_single_join(self):
        result = run([clause(Literal("G", ("x", "z")),
                             Literal("R", ("x", "y")),
                             Literal("R", ("y", "z")))],
                     "G", ("x", "z"), "R(a,b), R(b,c), R(c,d)")
        assert result.answers == {("a", "c"), ("b", "d")}

    def test_idb_chaining(self):
        result = run([
            clause(Literal("G", ("x",)), Literal("Q", ("x",)),
                   Literal("A", ("x",))),
            clause(Literal("Q", ("x",)), Literal("R", ("x", "y"))),
        ], "G", ("x",), "R(a,b), R(b,c), A(a)")
        assert result.answers == {("a",)}

    def test_union_of_clauses(self):
        # the first clause's rows are A's stored relation itself, not a
        # copy: the union must not write B's rows into it
        database = Database(ABox.parse("A(a), B(b)"))
        result = evaluate_on(NDLQuery(Program([
            clause(Literal("G", ("x",)), Literal("A", ("x",))),
            clause(Literal("G", ("x",)), Literal("B", ("x",))),
        ]), "G", ("x",)), database)
        assert result.answers == {("a",), ("b",)}
        assert database.decode_rows(database.relation("A")) == {("a",)}

    def test_boolean_goal(self):
        result = run([clause(Literal("G", ()), Literal("A", ("x",)))],
                     "G", (), "A(a)")
        assert result.answers == {()}

    def test_boolean_goal_empty(self):
        result = run([clause(Literal("G", ()), Literal("A", ("x",)))],
                     "G", (), "B(a)")
        assert result.answers == frozenset()

    def test_nullary_fact(self):
        result = run([
            clause(Literal("G", ("x",)), Literal("A", ("x",)),
                   Literal("F", ())),
            clause(Literal("F", ())),
        ], "G", ("x",), "A(a)")
        assert result.answers == {("a",)}

    def test_missing_edb_predicate(self):
        result = run([clause(Literal("G", ("x",)),
                             Literal("Zzz", ("x",)))],
                     "G", ("x",), "A(a)")
        assert result.answers == frozenset()


class TestEqualities:
    def test_equality_join(self):
        result = run([clause(Literal("G", ("x",)),
                             Literal("R", ("x", "y")),
                             Equality("x", "y"))],
                     "G", ("x",), "R(a,a), R(a,b)")
        assert result.answers == {("a",)}

    def test_equality_between_atoms(self):
        result = run([clause(Literal("G", ("x", "z")),
                             Literal("A", ("x",)), Equality("x", "z"),
                             Literal("B", ("z",)))],
                     "G", ("x", "z"), "A(a), B(a), B(b)")
        assert result.answers == {("a", "a")}

    def test_repeated_variable_in_atom(self):
        result = run([clause(Literal("G", ("x",)),
                             Literal("R", ("x", "x")))],
                     "G", ("x",), "R(a,a), R(a,b)")
        assert result.answers == {("a",)}


class TestStatistics:
    def test_generated_tuples_counts_idb(self):
        result = run([
            clause(Literal("G", ("x",)), Literal("Q", ("x",))),
            clause(Literal("Q", ("x",)), Literal("R", ("x", "y"))),
        ], "G", ("x",), "R(a,b), R(a,c), R(b,c)")
        # Q = {a, b}, G = {a, b}
        assert result.generated_tuples == 4
        assert result.relation_sizes == {"Q": 2, "G": 2}

    def test_unreachable_predicates_not_evaluated(self):
        result = run([
            clause(Literal("G", ("x",)), Literal("A", ("x",))),
            clause(Literal("Huge", ("x", "y", "z")),
                   Literal("R", ("x", "y")), Literal("R", ("y", "z"))),
        ], "G", ("x",), "A(a), R(a,b)")
        assert "Huge" not in result.relation_sizes


class TestCartesianAndProjection:
    def test_cartesian_product(self):
        result = run([clause(Literal("G", ("x", "y")),
                             Literal("A", ("x",)), Literal("B", ("y",)))],
                     "G", ("x", "y"), "A(a), A(b), B(c)")
        assert result.answers == {("a", "c"), ("b", "c")}

    def test_long_chain_projection(self):
        clauses = [clause(
            Literal("G", ("x0", "x5")),
            *[Literal("R", (f"x{i}", f"x{i+1}")) for i in range(5)])]
        data = ", ".join(f"R(n{i}, n{i+1})" for i in range(5))
        result = run(clauses, "G", ("x0", "x5"), data)
        assert result.answers == {("n0", "n5")}


class TestKernelCache:
    def test_threads_compiling_distinct_shapes(self):
        # G(x, picked ys) <- A(x), T(x, y1..y9): the T step's kernel
        # shape is its pick of columns, so the 2^9 picks are 512 shapes,
        # more than the cache holds
        ys = [f"y{i}" for i in range(1, 10)]
        queries = []
        for size in range(len(ys) + 1):
            for picked in combinations(ys, size):
                head = Literal("G", ("x",) + picked)
                queries.append(NDLQuery(Program([clause(
                    head, Literal("A", ("x",)),
                    Literal("T", ("x",) + tuple(ys)))]),
                    "G", head.args))
        wide = [tuple(f"c{row + col}" for col in range(10))
                for row in range(4)]
        engine = create_engine("python", ABox.parse("A(c0), A(c1)"),
                               extra_relations={"T": wide})
        serial = [engine.evaluate(query).answers for query in queries]
        assert serial[-1] == {wide[0], wide[1]}
        _kernel.cache_clear()
        threaded = [None] * len(queries)

        def worker(first):
            for i in range(first, len(queries), 8):
                threaded[i] = engine.evaluate(queries[i]).answers

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(first,))
                       for first in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        info = _kernel.cache_info()
        assert info.misses >= len(queries) > info.maxsize >= info.currsize
