"""Tests for the NDL optimiser (repro.datalog.optimize): emptiness
pruning [59], duplicate removal and the generalised Tw* inlining of
Appendix D.4.  Every transformation must preserve answers."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ABox, OMQ, chain_cq, rewrite
from repro.datalog.evaluate import evaluate
from repro.datalog.optimize import (
    TW_STAR_USES,
    inline_edb_leaves,
    inline_single_definition,
    nonempty_signature,
    optimize,
    prune_empty_predicates,
    remove_duplicate_clauses,
)
from repro.datalog.program import ADOM, Clause, Equality, Literal, NDLQuery, Program

from .helpers import example11_tbox
from .test_sql import _random_abox, _random_body, _random_query


def _query(clauses, goal, answer_vars=()):
    return NDLQuery(Program(clauses), goal, tuple(answer_vars))


class TestNonemptySignature:
    def test_lists_data_predicates(self):
        abox = ABox.parse("A(a), P(a, b)")
        names = nonempty_signature(abox)
        assert "A" in names and "P" in names

    def test_adom_included_when_data_nonempty(self):
        assert ADOM in nonempty_signature(ABox.parse("A(a)"))

    def test_adom_excluded_for_empty_data(self):
        assert ADOM not in nonempty_signature(ABox())


class TestPruneEmpty:
    def test_clause_over_empty_edb_is_dropped(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("A", ("x",)),)),
             Clause(Literal("G", ("x",)), (Literal("Dead", ("x",)),))],
            "G", ("x",))
        pruned = prune_empty_predicates(query, {"A"})
        assert len(pruned.program) == 1
        assert pruned.program.clauses[0].body_literals[0].predicate == "A"

    def test_emptiness_propagates_through_idbs(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("Q", ("x",)),)),
             Clause(Literal("Q", ("x",)), (Literal("Dead", ("x",)),))],
            "G", ("x",))
        pruned = prune_empty_predicates(query, {"A"})
        assert len(pruned.program) == 0

    def test_goal_can_become_empty(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("Dead", ("x",)),))],
            "G", ("x",))
        pruned = prune_empty_predicates(query, set())
        assert evaluate(pruned, ABox.parse("A(a)")).answers == frozenset()

    def test_answers_preserved_on_matching_signature(self):
        tbox = example11_tbox()
        query = chain_cq("RSR")
        abox = ABox.parse("R(a,b), S(b,c), R(c,d)").complete(tbox)
        ndl = rewrite(OMQ(tbox, query), method="lin")
        pruned = prune_empty_predicates(ndl, nonempty_signature(abox))
        assert evaluate(pruned, abox).answers == evaluate(ndl, abox).answers

    def test_prunes_the_paper_s_empty_s_scenario(self):
        # Appendix D.2: the generated datasets intentionally have no
        # S-edges, which should kill every clause that joins S
        tbox = example11_tbox()
        query = chain_cq("RSR")
        abox = ABox.parse("R(a,b), R(b,c), A_P(b)").complete(tbox)
        ndl = rewrite(OMQ(tbox, query), method="ucq")
        pruned = prune_empty_predicates(ndl, nonempty_signature(abox))
        assert len(pruned.program) < len(ndl.program)
        assert evaluate(pruned, abox).answers == evaluate(ndl, abox).answers


class TestRemoveDuplicates:
    def test_renamed_duplicate_is_removed(self):
        query = _query(
            [Clause(Literal("G", ("x",)),
                    (Literal("R", ("x", "y")), Literal("A", ("y",)))),
             Clause(Literal("G", ("u",)),
                    (Literal("R", ("u", "v")), Literal("A", ("v",))))],
            "G", ("x",))
        deduped = remove_duplicate_clauses(query)
        assert len(deduped.program) == 1

    def test_body_order_is_ignored(self):
        query = _query(
            [Clause(Literal("G", ("x",)),
                    (Literal("A", ("x",)), Literal("B", ("x",)))),
             Clause(Literal("G", ("x",)),
                    (Literal("B", ("x",)), Literal("A", ("x",))))],
            "G", ("x",))
        assert len(remove_duplicate_clauses(query).program) == 1

    def test_different_clauses_are_kept(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("A", ("x",)),)),
             Clause(Literal("G", ("x",)), (Literal("B", ("x",)),))],
            "G", ("x",))
        assert len(remove_duplicate_clauses(query).program) == 2

    def test_equality_duplicates(self):
        query = _query(
            [Clause(Literal("G", ("x",)),
                    (Literal("R", ("x", "y")), Equality("x", "y"))),
             Clause(Literal("G", ("u",)),
                    (Literal("R", ("u", "v")), Equality("v", "u")))],
            "G", ("x",))
        assert len(remove_duplicate_clauses(query).program) == 1

    def test_repeated_variable_not_merged_with_distinct(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("R", ("x", "x")),)),
             Clause(Literal("G", ("x",)), (Literal("R", ("x", "y")),))],
            "G", ("x",))
        assert len(remove_duplicate_clauses(query).program) == 2


class TestInlining:
    def test_single_use_chain_collapses(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("Q1", ("x",)),)),
             Clause(Literal("Q1", ("x",)), (Literal("Q2", ("x",)),)),
             Clause(Literal("Q2", ("x",)), (Literal("A", ("x",)),))],
            "G", ("x",))
        inlined = inline_single_definition(query)
        assert len(inlined.program) == 1
        assert inlined.program.clauses[0].body_literals[0].predicate == "A"

    def test_goal_is_never_inlined(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("A", ("x",)),))],
            "G", ("x",))
        inlined = inline_single_definition(query)
        assert inlined.goal == "G"
        assert len(inlined.program) == 1

    def test_multi_clause_predicates_are_kept(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("Q", ("x",)),)),
             Clause(Literal("Q", ("x",)), (Literal("A", ("x",)),)),
             Clause(Literal("Q", ("x",)), (Literal("B", ("x",)),))],
            "G", ("x",))
        inlined = inline_single_definition(query)
        assert "Q" in inlined.program.idb_predicates

    def test_max_uses_threshold(self):
        clauses = [
            Clause(Literal("G", ("x",)),
                   (Literal("Q", ("x",)), Literal("B", ("x",)))),
            Clause(Literal("G", ("x",)),
                   (Literal("Q", ("x",)), Literal("C", ("x",)))),
            Clause(Literal("H", ("x",)), (Literal("Q", ("x",)),)),
            Clause(Literal("G", ("x",)), (Literal("H", ("x",)),)),
            Clause(Literal("Q", ("x",)), (Literal("A", ("x",)),)),
        ]
        query = _query(clauses, "G", ("x",))
        kept = inline_single_definition(query)
        assert "Q" in kept.program.idb_predicates

    def test_local_variables_are_freshened(self):
        query = _query(
            [Clause(Literal("G", ("x", "y")),
                    (Literal("Q", ("x",)), Literal("Q", ("y",)))),
             Clause(Literal("Q", ("x",)), (Literal("R", ("x", "w")),))],
            "G", ("x", "y"))
        inlined = inline_single_definition(query)
        clause = inlined.program.clauses[0]
        body_vars = {v for atom in clause.body_literals for v in atom.args}
        # the two copies of w must not be identified
        witnesses = body_vars - {"x", "y"}
        assert len(witnesses) == 2
        abox = ABox.parse("R(a, b), R(c, d)")
        assert evaluate(inlined, abox).answers == evaluate(query, abox).answers

    def test_one_call_reaches_the_fixpoint(self):
        # the loop runs until no predicate qualifies, so nothing in the
        # result is inlinable.  In the handcrafted program that takes
        # two passes: Q is used three times until the unused H goes.
        handcrafted = _query(
            [Clause(Literal("G", ("x",)),
                    (Literal("Q", ("x",)), Literal("B", ("x",)))),
             Clause(Literal("G", ("x",)),
                    (Literal("Q", ("x",)), Literal("C", ("x",)))),
             Clause(Literal("H", ("x",)), (Literal("Q", ("x",)),)),
             Clause(Literal("Q", ("x",)), (Literal("A", ("x",)),))],
            "G", ("x",))
        omq = OMQ(example11_tbox(), chain_cq("RSRRSRRSRRS"))
        queries = [handcrafted] + [rewrite(omq, method=method)
                                   for method in ("lin", "log", "tw")]
        for query in queries:
            inlined = inline_single_definition(query)
            program = inlined.program
            uses = Counter(atom.predicate for clause in program.clauses
                           for atom in clause.body_literals)
            assert not [predicate for predicate in program.idb_predicates
                        if predicate != inlined.goal
                        and len(program.clauses_for(predicate)) == 1
                        and uses[predicate] <= TW_STAR_USES]
            assert str(inline_single_definition(inlined)) == str(inlined)
        assert inline_single_definition(handcrafted).program.idb_predicates \
            == {"G"}

    def test_repeated_head_variable_equates_the_call_arguments(self):
        # Q(z, z) only holds on the diagonal: inlining it into
        # G(x, y) <- Q(x, y) must keep x = y, not drop it
        query = _query(
            [Clause(Literal("G", ("x", "y")), (Literal("Q", ("x", "y")),)),
             Clause(Literal("Q", ("z", "z")), (Literal("A", ("z",)),))],
            "G", ("x", "y"))
        abox = ABox.parse("A(a), A(b)")
        for inline in (inline_single_definition, inline_edb_leaves):
            inlined = inline(query)
            assert "Q" not in inlined.program.idb_predicates
            assert evaluate(inlined, abox).answers == \
                evaluate(query, abox).answers == {("a", "a"), ("b", "b")}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), abox=_random_abox())
    def test_property_repeated_head_variable_on_random_bodies(self, data,
                                                              abox):
        # the case above with Q's body drawn at random
        body = _random_body(data.draw)
        diagonal = data.draw(st.sampled_from(sorted(
            {var for atom in body for var in atom.variables})))
        query = _query(
            [Clause(Literal("G", ("x", "y")), (Literal("Q", ("x", "y")),)),
             Clause(Literal("Q", (diagonal, diagonal)), tuple(body))],
            "G", ("x", "y"))
        for inline in (inline_single_definition, inline_edb_leaves):
            assert evaluate(inline(query), abox).answers == \
                evaluate(query, abox).answers

    def test_answers_preserved_on_rewriter_output(self):
        tbox = example11_tbox()
        query = chain_cq("RSRRSRR")
        abox = ABox.parse(
            "R(a,b), S(b,c), R(c,d), R(d,e), S(e,f), R(f,g), R(g,h), "
            "A_P(c)").complete(tbox)
        ndl = rewrite(OMQ(tbox, query), method="tw")
        inlined = inline_single_definition(ndl)
        assert evaluate(inlined, abox).answers == evaluate(ndl, abox).answers


class TestPipeline:
    @pytest.mark.parametrize("method", ("lin", "log", "tw", "presto"))
    def test_optimize_preserves_answers(self, method):
        tbox = example11_tbox()
        query = chain_cq("RSRRSRR")
        abox = ABox.parse(
            "R(a,b), S(b,c), R(c,d), R(d,e), S(e,f), R(f,g), R(g,h), "
            "A_P(c), A_P-(f)").complete(tbox)
        ndl = rewrite(OMQ(tbox, query), method=method)
        optimized = optimize(ndl, nonempty_signature(abox))
        assert evaluate(optimized, abox).answers == evaluate(ndl, abox).answers

    def test_optimize_shrinks_on_sparse_data(self):
        tbox = example11_tbox()
        query = chain_cq("RSRRSRR")
        # no S edges at all, as in the paper's generated datasets
        abox = ABox.parse("R(a,b), R(b,c), R(c,d), A_P(b)").complete(tbox)
        ndl = rewrite(OMQ(tbox, query), method="lin")
        optimized = optimize(ndl, nonempty_signature(abox))
        assert len(optimized.program) < len(ndl.program)
        assert evaluate(optimized, abox).answers == evaluate(ndl, abox).answers

    @settings(max_examples=40, deadline=None)
    @given(query=_random_query(), abox=_random_abox())
    def test_property_optimize_preserves_answers(self, query, abox):
        optimized = optimize(query, nonempty_signature(abox))
        assert evaluate(optimized, abox).answers == \
            evaluate(query, abox).answers

    @settings(max_examples=40, deadline=None)
    @given(query=_random_query(), abox=_random_abox())
    def test_property_inline_preserves_answers_on_any_data(self, query, abox):
        # inlining (unlike pruning) is data-independent
        inlined = inline_single_definition(query)
        assert evaluate(inlined, abox).answers == \
            evaluate(query, abox).answers
