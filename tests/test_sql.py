"""Tests for the SQL backend (repro.sql): the Section 6 question of
running NDL rewritings in a standard DBMS.

The central property is engine interchangeability: for every program
and data instance, ``evaluate_sql`` agrees with the native Python
engine ``repro.datalog.evaluate``.
"""

import hashlib
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ABox, OMQ, chain_cq, rewrite
from repro.datalog.evaluate import evaluate, evaluate_on
from repro.datalog.optimize import optimize
from repro.datalog.program import ADOM, Clause, Equality, Literal, NDLQuery, Program
from repro.engine.database import Database
from repro.experiments.figure2 import SEQUENCES
from repro.sql import (
    SQLEngine,
    compile_clause,
    compile_query,
    evaluate_sql,
    quote_identifier,
    table_name,
)
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
        sql = compile_clause(clause)
        assert 'FROM "p_A" AS t0' in sql
        assert sql.startswith("SELECT DISTINCT t0.c0 AS c0")

    def test_join_condition_for_shared_variable(self):
        clause = Clause(Literal("G", ("x", "z")),
                        (Literal("R", ("x", "y")), Literal("S", ("y", "z"))))
        sql = compile_clause(clause)
        assert "WHERE t0.c1 = t1.c0" in sql

    def test_repeated_variable_in_one_atom(self):
        clause = Clause(Literal("G", ("x",)), (Literal("R", ("x", "x")),))
        sql = compile_clause(clause)
        assert "WHERE t0.c0 = t0.c1" in sql

    def test_equality_binds_head_variable(self):
        clause = Clause(Literal("G", ("y",)),
                        (Equality("y", "z"), Literal("A", ("z",))))
        sql = compile_clause(clause)
        # y is renamed to the bound representative; no unbound reference
        assert "c0" in sql
        assert "=" not in sql.split("FROM")[0]  # no equality in SELECT

    def test_nullary_head_emits_marker(self):
        clause = Clause(Literal("G", ()), (Literal("A", ("x",)),))
        sql = compile_clause(clause)
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

    def test_specialised_clause_joins_a_repeated_atom_once(self):
        """Inlining can repeat a body atom, as in ``sequence1[:3]``'s
        ``lin``: ``G1_0(x1, x3) <- x1 = x2, A_P-(x2), x2 = x3,
        A_P-(x2)``.  The specialised program keeps it once, so its
        SELECT reads ``A_P-`` without a self-join."""
        ndl = rewrite(OMQ(example11_tbox(), chain_cq("RRS")), method="lin")
        specialised = optimize(ndl, ndl.program.edb_predicates)
        (clause,) = [clause for clause in specialised.program.clauses
                     if any(atom.predicate == "A_P-"
                            for atom in clause.body_literals)]
        sql = compile_clause(clause)
        assert sql.split(" FROM ")[1].split(" WHERE ")[0].count(
            '"p_A_P-"') == 1

    def test_unreachable_predicates_are_dropped(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("A", ("x",)),)),
             Clause(Literal("Dead", ("x",)), (Literal("B", ("x",)),))],
            "G", ("x",))
        compilation = compile_query(query)
        assert "Dead" not in compilation.idb_order


#: sha256 of ``script() + "\n--\n" + cte_query()`` for every query of
#: :func:`_sql_corpus`: the compiled text is pinned byte for byte, so a
#: change to any statement, even to its whitespace, shows here.
SQL_DIGESTS = {
    "sequence1[:5].lin":
        "e37a9f9c61883978a6de9a7d7dfa90321859eede538d5b9976e9f39277a37c07",
    "sequence1[:5].lin.specialised":
        "d55f85fcbe5ab9c32f920fdc6835b89105f5b6269f4839933ab9039c430bd7e7",
    "sequence1[:5].log":
        "37e738acd51f3ddfaa1cfc9f424e07b79c04ace24c7eb1a72334d0bbe7438524",
    "sequence1[:5].log.specialised":
        "745679592f854572701e7bca812f453ac94cb73663a3cae45ab80ee13fd2e6e4",
    "sequence1[:5].tw":
        "a57dd2564c60b5748e592f99bba35584e66921ab6fe200d042aa6fd18dcd730c",
    "sequence1[:5].tw.specialised":
        "a9a0a951ecd3179c69c44a423d58ed7003b7782b638a61d1af02c16787496aee",
    "sequence1[:9].lin":
        "a643428ed2f3bed0c6017f59e51c08ed44a6e50c6ead034b5211f6829eceffce",
    "sequence1[:9].lin.specialised":
        "438d29ae79db5c8ec20cd3ca6d28b169d5a46aa452e41f64b04ca10da0ce236d",
    "sequence1[:9].log":
        "7a0c684900b7fe89e0a7aee843bf9bc6afd2c824d8f20fa546ae8362eea6bcf5",
    "sequence1[:9].log.specialised":
        "f00b6058fecfb9dad89710b778758528751d2fbe11bed2ec43b3070b5f1ca61b",
    "sequence1[:9].tw":
        "9618e1aeb84ec396dc35404e95070bfbe4f870ec2bdf3a8bbd3a736541ba2848",
    "sequence1[:9].tw.specialised":
        "ee4115743939fda8c8d69e3303d719341d0b0b35ba843c8410f41e2c51b54b92",
    "sequence1[:15].lin":
        "f7180ef6309055b3f8bcb63dcc5da9a3ce3a3bfe2eda2a96f0bd9c253849dcb4",
    "sequence1[:15].lin.specialised":
        "2d21cd40324806aefd46d98541a4da79b11295c3c96548b70f344821052ee1df",
    "sequence1[:15].log":
        "675eb3dcf8924ba313c17ceca67d9e2bfa43d91736108acc9503dd332acfe33d",
    "sequence1[:15].log.specialised":
        "3c5710a1882dee6aee90bff19e8cf2a4f069f7d7f95c8674be7f10c2e4f54f3a",
    "sequence1[:15].tw":
        "5d2887245b434624a4242d363923a170abc068bcc7988d19da906c592f441911",
    "sequence1[:15].tw.specialised":
        "c61e375350fddef861c8d075cd10e6be6bae31859d6f880674b3f606ba42eff7",
    "sequence2[:5].lin":
        "b4ddb5d9fb624448e07602edf80b383bf3ddfab5acaa11aabaa57287b749560d",
    "sequence2[:5].lin.specialised":
        "44424f53a8fa0bb4b62de9a3c9fe224a123b5f1411ef58ac0f1a07e0f13515a8",
    "sequence2[:5].log":
        "5b7929c178b9306391bb075a433292834b451c40a00dd7bdc445e5bc3504d419",
    "sequence2[:5].log.specialised":
        "8d5075eb0ffd9a1ce81936949ad80a7df1ae16416b92f0700812d7628d918fcc",
    "sequence2[:5].tw":
        "7386092e01a2f763f10dd35ef6497a6cecbba24e37be4b7531c802636233f316",
    "sequence2[:5].tw.specialised":
        "1ec278a0af676690d534882451c2f508e9163f7b03043dc19912efb90b31ff21",
    "sequence2[:9].lin":
        "96582ba5ecb2db549c5626871e035ea02fd8e4e9ae57e2bb3c1429a5ec12b6e6",
    "sequence2[:9].lin.specialised":
        "f27a645a72920a3c42d536b804266032dadbf1b60bf8f3f321d308a6bdcca11b",
    "sequence2[:9].log":
        "5e67f8a660465cb693e47e4f11e5dfd2a3e28b188d35eacc5af00e8bca9034af",
    "sequence2[:9].log.specialised":
        "611bc1049849fbfed60938aab8330c2b09e32f7511d33f3a32b39fecb5f304f2",
    "sequence2[:9].tw":
        "e73240ff47a32677fbf209feb6e33fd74b92fe348d24a2e824783e30d94a292a",
    "sequence2[:9].tw.specialised":
        "762369960fa11b342defe95cf01642bae9a52e479ddebb6e40197784db20b497",
    "sequence2[:15].lin":
        "cd3859db2fc73f96285d293dd530cb941192a2e1d005131f033ffbcfb58dc96a",
    "sequence2[:15].lin.specialised":
        "5b039e973a6b3807dc706194fe55245ed4b01fc3e74eeb11d542fe4b85422a12",
    "sequence2[:15].log":
        "eedde6fc601fe30af010eaeff106775b7a214d88057f400f9fb297889ccb54d4",
    "sequence2[:15].log.specialised":
        "a92031be0d7f5581af4d67aca4771ea75138aedff41498e0bcf8b60ecc92d366",
    "sequence2[:15].tw":
        "ad406b7bae5fb5ccd024369ca7076513c082ba51e17425d175cf72c468ac2a6d",
    "sequence2[:15].tw.specialised":
        "4e2cdecf24770da44a088bfb98a99efdcab75bebc77d2e394a49a1ee50c3a2fe",
    "sequence3[:5].lin":
        "bfaa786915749034d7b812450d45dfcbf71e286ec4559a5f00bcdada64ef91e6",
    "sequence3[:5].lin.specialised":
        "0231dd9102e6925ab976cae52231a353f4ad59757069e6dc390cdb24b7740d9c",
    "sequence3[:5].log":
        "1234577c455b667647b51c62a52ef85cc7845afad02fe58212660e1807c73b1b",
    "sequence3[:5].log.specialised":
        "f2832ac5a84660db07b87db6fe779b6759aee2fb6c7b26b55e564229683925e6",
    "sequence3[:5].tw":
        "f0c9f34e98803acef73a1725dbdb810ee978d05eec4b713d235291b1655a96ce",
    "sequence3[:5].tw.specialised":
        "4e1a1b52a375f6aafa05ba001d3aeb3d21c874a5baf75be0665358ddbf05bbb3",
    "sequence3[:9].lin":
        "6fa67748eac60c19319cbc394f1cdcde5e2c9996df472e184d1429f86cdf7d61",
    "sequence3[:9].lin.specialised":
        "8d088ae62c7736793f22d909bfc4ea11a8eaf33a920dab2068a1d9dd456c361c",
    "sequence3[:9].log":
        "81f8b027af4e09dfb2a731c47fd6673ed8ba909db740daa307d7666f2e2fe801",
    "sequence3[:9].log.specialised":
        "ec227bdafe2b1d86f0d1fdb6ec76c5de588bd419c775ba10895e6bf418b480f3",
    "sequence3[:9].tw":
        "47d47afa7a8b5aba2103a289fbd10ec9d2678f61fb51d96c0706f5d359c2d137",
    "sequence3[:9].tw.specialised":
        "a1339dd7e35de85006892ecfd6ee7efe475d7dde190858bab6300fa6dc64825d",
    "sequence3[:15].lin":
        "a248aae8569986b5bf57d41ae9da5eac528dea31ad93b51b85ccfedf6d61baa1",
    "sequence3[:15].lin.specialised":
        "d4e48daf813a54c1a6255f8058a2a9ac392babfff61286774c8c154616bbad7e",
    "sequence3[:15].log":
        "b968bdc0b4b9a15bde81db4fa058b1a6164c5d5cb2b1d3068e5d86839a969b08",
    "sequence3[:15].log.specialised":
        "43765f1fdecc1fdffbc551be99e4afc12c08e34900b43b989a882f151be82b35",
    "sequence3[:15].tw":
        "c77c1202c655bb0d2d6b12fab533e338878c784472341117d7d862736a4410a3",
    "sequence3[:15].tw.specialised":
        "9cfd15d5335a9ca84fa5d0b2fb906b927b19163d50cc39373e88d347b76abf34",
    "hostile":
        "4491ae50011134e39edda364021e4b50315aefcdd93c742a3975fcdfd8b7fa02",
    "nullary":
        "17a7398660f9d0137dcacd4001fa2c136bde6a24be56f76b2050dfe7a9656e0c",
}

def _sql_corpus():
    """``(name, query)`` for the Section 6 chains at three prefixes
    under lin/log/tw, raw and specialised, plus a hostile predicate
    name and a nullary head."""
    tbox = example11_tbox()
    for sequence in ("sequence1", "sequence2", "sequence3"):
        for prefix in (5, 9, 15):
            for method in ("lin", "log", "tw"):
                labels = SEQUENCES[sequence][:prefix]
                ndl = rewrite(OMQ(tbox, chain_cq(labels)), method=method)
                name = f"{sequence}[:{prefix}].{method}"
                yield name, ndl
                yield (name + ".specialised",
                       optimize(ndl, ndl.program.edb_predicates))
    yield "hostile", _query(
        [Clause(Literal("G", ("x", "y")),
                (Literal('evil" AS\ntable', ("x", "y")),))],
        "G", ("x", "y"))
    yield "nullary", _query(
        [Clause(Literal("G", ()), (Literal("Q", ("x",)),)),
         Clause(Literal("Q", ("x",)),
                (Literal("A", ("x",)), Literal("R", ("x", "y"))))],
        "G")


class TestSQLDigests:
    def test_compiled_text_is_pinned(self):
        seen = {}
        for name, query in _sql_corpus():
            compilation = compile_query(query)
            text = compilation.script() + "\n--\n" + compilation.cte_query()
            seen[name] = hashlib.sha256(text.encode()).hexdigest()
        assert seen == SQL_DIGESTS


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
REWRITERS = ("lin", "log", "tw", "ucq", "presto")


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
