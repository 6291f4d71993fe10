"""Tests for repro.datalog.evaluate (the bottom-up engine)."""

import gc
import importlib
import sys
import threading
from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

import repro
from repro import OMQ, chain_cq
from repro.data import ABox
from repro.datalog import Clause, Equality, Literal, NDLQuery, Program, evaluate
from repro.datalog.evaluate import _kernel, evaluate_on
from repro.engine import create_engine
from repro.engine.database import Database

from .helpers import example11_tbox, hypothesis_settings, random_data


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


class TestCollectorPause:
    """Materialisation pauses the cyclic garbage collector and leaves
    its state as it found it."""

    QUERY = NDLQuery(Program([Clause(Literal("G", ("x",)),
                                     (Literal("A", ("x",)),))]), "G", ("x",))

    def test_paused_inside_and_restored(self, monkeypatch):
        module = sys.modules[evaluate_on.__module__]
        seen = []
        original = module._program

        def spying(query):
            seen.append(gc.isenabled())
            return original(query)

        monkeypatch.setattr(module, "_program", spying)
        assert gc.isenabled()
        evaluate(self.QUERY, ABox.parse("A(a)"))
        assert seen == [False] and gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            evaluate(self.QUERY, ABox.parse("A(a)"))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_concurrent_holders_share_one_pause(self):
        module = sys.modules[evaluate_on.__module__]
        inside, release = threading.Barrier(2), threading.Event()

        def hold():
            with module._cycle_collection_paused():
                inside.wait()
                release.wait()

        worker = threading.Thread(target=hold)
        worker.start()
        with module._cycle_collection_paused():
            inside.wait()
        # the other holder is still inside: the pause must outlast us
        assert not gc.isenabled()
        release.set()
        worker.join()
        assert gc.isenabled()


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


# -- the compiled program's join-order memo --------------------------------

_evaluate = importlib.import_module("repro.datalog.evaluate")
_CONSTANTS = tuple(f"c{i}" for i in range(6))


def _well_formed(clause, steps):
    """``steps`` is a complete prefix of one join order for ``clause``:
    each step probes with the variables the steps before it carry."""
    assert type(steps) is tuple and steps
    assert all(type(step) is _evaluate._Step for step in steps)
    assert len({step.atom for step in steps}) == len(steps)
    assert len(steps) <= len(clause.atoms)
    schema = ()
    for step in steps:
        atom = clause.atoms[step.atom]
        width, arity, probe, repeats, picks = step.shape
        assert (step.predicate, arity, width) == (
            atom.predicate, len(atom.args), len(schema))
        assert probe == tuple(schema.index(atom.args[i])
                              for i in step.positions)
        assert step.scan == (not schema and not repeats)
        assert len(picks) == len(step.schema)
        assert all(0 <= pick < width + arity for pick in picks)
        schema = step.schema
    if len(steps) == len(clause.atoms):
        assert schema == clause.head


def _memo(query):
    return [(clause, key, steps)
            for _, clauses in _evaluate._program(query)
            for clause in clauses for key, steps in clause.orders.items()]


@st.composite
def _memo_query(draw):
    """Q over EDB atoms, G over Q and EDB atoms, possibly a union;
    repeated variables, equalities and cross products come up."""
    variables = ("x", "y", "z")

    def body():
        atoms = []
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                atoms.append(Literal(draw(st.sampled_from("AB")),
                                     (draw(st.sampled_from(variables)),)))
            else:
                atoms.append(Literal(
                    draw(st.sampled_from("RS")),
                    tuple(draw(st.sampled_from(variables))
                          for _ in range(2))))
        if draw(st.booleans()):
            atoms.append(Equality(*draw(st.permutations(variables))[:2]))
        return atoms

    def head(name, atoms):
        seen = sorted({v for atom in atoms for v in atom.variables})
        return Literal(name, tuple(seen[:draw(st.integers(0, 2))]))

    inner = body()
    q = head("Q", inner)
    clauses = [Clause(q, tuple(inner))]
    for _ in range(draw(st.integers(1, 2))):
        goal_body = body() + [Literal("Q", tuple(
            draw(st.sampled_from(variables)) for _ in q.args))]
        clauses.append(Clause(head("G", goal_body), tuple(goal_body)))
    goal = clauses[1].head.args
    clauses[2:] = [c for c in clauses[2:] if len(c.head.args) == len(goal)]
    return NDLQuery(Program(clauses), "G", goal)


_FACT = st.one_of(
    st.tuples(st.sampled_from("AB"), st.tuples(st.sampled_from(_CONSTANTS))),
    st.tuples(st.sampled_from("RS"), st.tuples(
        st.sampled_from(_CONSTANTS), st.sampled_from(_CONSTANTS))))


def _grouped(facts):
    grouped = {}
    for predicate, args in facts:
        grouped.setdefault(predicate, []).append(args)
    return grouped


class TestCompiledPrograms:
    @hypothesis_settings(60)
    @given(query=_memo_query(), facts=st.sets(_FACT, max_size=12),
           updates=st.lists(st.tuples(st.booleans(),
                                      st.sets(_FACT, max_size=16)),
                            min_size=1, max_size=6))
    def test_warm_program_matches_a_fresh_one(self, query, facts, updates):
        """Batches of up to 16 facts move relations across size
        classes both ways; after each, the warm program answers as a
        fresh one (empty memo) over a freshly loaded database."""
        held = set(facts)
        database = Database(ABox(held))
        evaluate_on(query, database)
        for insert, batch in updates:
            before = {c for _, args in held for c in args}
            if insert:
                database.insert_facts(_grouped(batch - held))
                held |= batch
            else:
                held -= batch
                after = {c for _, args in held for c in args}
                database.delete_facts(_grouped(batch),
                                      removed_constants=before - after)
            warm = evaluate_on(query, database)
            fresh = evaluate_on(NDLQuery(query.program, query.goal,
                                         query.answer_vars),
                                Database(ABox(held)))
            assert warm.answers == fresh.answers
            assert warm.generated_tuples == fresh.generated_tuples
            assert warm.relation_sizes == fresh.relation_sizes
        for clause, _, steps in _memo(query):
            _well_formed(clause, steps)

    def test_orders_are_costed_once_per_size_class(self, monkeypatch):
        costed = []
        fanout = _evaluate._fanout
        monkeypatch.setattr(_evaluate, "_fanout", lambda atom, *rest: (
            costed.append(atom.predicate) or fanout(atom, *rest)))
        query = NDLQuery(Program([
            clause(Literal("G", ("x",)), Literal("A", ("x",)),
                   Literal("R", ("x", "y"))),
            clause(Literal("G", ("x",)), Literal("B", ("x",)),
                   Literal("S", ("x", "y")))]), "G", ("x",))
        database = Database(ABox.parse(
            "A(a), A(b), R(a, b), B(a), S(a, c), S(b, c)"))
        first = evaluate_on(query, database)
        assert set(costed) == {"A", "R", "B", "S"}
        costed.clear()
        # a third S row keeps S in size class 2 (2-3 rows); a third and
        # a fourth A row take A to class 3 (4-7 rows)
        database.insert_facts({"S": [("c", "a")]})
        assert evaluate_on(query, database).answers == first.answers
        assert costed == []
        database.insert_facts({"A": [("c",), ("d",)]})
        evaluate_on(query, database)
        assert costed and set(costed) <= {"A", "R"}
        costed.clear()
        evaluate_on(query, database)
        assert costed == []

    def test_databases_never_share_an_order(self):
        # R then S over the first database, S then R over the second:
        # both relations hold 5 or 6 rows, size class 3, in each
        query = NDLQuery(Program([clause(
            Literal("G", ("x", "z")), Literal("R", ("x", "y")),
            Literal("S", ("y", "z")))]), "G", ("x", "z"))
        five = [(f"a{i}", f"b{i}") for i in range(5)]
        six = five + [("a5", "b5")]
        first = Database(ABox.parse(""), {"R": five, "S": six})
        second = Database(ABox.parse(""), {"R": six, "S": five})
        for database in (first, second, first, second):
            evaluate_on(query, database)
        [clause_] = _evaluate._program(query)[0][1]
        starts = {token: steps[0].predicate
                  for (token, _), steps in clause_.orders.items()}
        assert starts == {first.token: "R", second.token: "S"}

    @hypothesis_settings(10)
    @given(seed=st.integers(0, 2**16))
    def test_threads_share_one_memo(self, seed):
        """8 threads run one plan over one engine while others drop
        its orders (what the memo's bound does): equal answers, and
        every entry left is a whole prefix of one order."""
        abox = random_data(seed, individuals=12, atoms=60)
        plan = repro.compile(OMQ(example11_tbox(), chain_cq("RSRS")),
                             method="tw")
        engine = create_engine("python", abox)
        expected = plan.execute(engine).answers
        query = plan.specialised(engine)
        clauses = [c for _, group in _evaluate._program(query)
                   for c in group]
        got = []

        def worker(first):
            for round_ in range(6):
                if (first + round_) % 3 == 0:
                    for clause_ in clauses:
                        clause_.orders.clear()
                got.append(plan.execute(engine).answers)

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
        assert got == [expected] * 48
        for clause_, _, steps in _memo(query):
            _well_formed(clause_, steps)
