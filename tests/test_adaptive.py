"""Tests for the cost-based adaptive rewriter (repro.rewriting.adaptive),
the 'adaptable splitting strategy' proposed in Section 6."""

import math

import pytest

from repro import ABox, OMQ, chain_cq, rewrite
from repro.data.generator import erdos_renyi_abox
from repro.datalog.evaluate import evaluate
from repro.datalog.program import ADOM, Clause, Literal, NDLQuery, Program
from repro.rewriting.adaptive import (
    AdaptiveChoice,
    DataStatistics,
    PredicateStatistics,
    adaptive_rewrite,
    answer_adaptive,
    estimate_cost,
)
from repro.rewriting.api import answer

from .helpers import example11_tbox


def _query(clauses, goal, answer_vars=()):
    return NDLQuery(Program(clauses), goal, tuple(answer_vars))


class TestStatistics:
    def test_from_abox_counts_rows(self):
        abox = ABox.parse("A(a), A(b), P(a, b), P(a, c)")
        stats = DataStatistics.from_abox(abox)
        assert stats.predicate("A").size == 2
        assert stats.predicate("P").size == 2

    def test_distinct_counts_per_column(self):
        abox = ABox.parse("P(a, b), P(a, c)")
        stats = DataStatistics.from_abox(abox)
        assert stats.predicate("P").distinct == (1, 2)

    def test_missing_predicate_is_empty(self):
        stats = DataStatistics.from_abox(ABox.parse("A(a)"))
        assert stats.predicate("Nope").size == 0

    def test_adom_tracks_individuals(self):
        abox = ABox.parse("P(a, b), A(c)")
        stats = DataStatistics.from_abox(abox)
        assert stats.predicate(ADOM).size == 3
        assert stats.domain_size == 3

    def test_key_count_caps_at_size(self):
        info = PredicateStatistics(5, (4, 4))
        assert info.key_count([0, 1]) == 5
        assert info.key_count([0]) == 4
        assert info.key_count([]) == 1


class TestEstimateCost:
    def test_empty_predicate_gives_zero_output(self):
        query = _query(
            [Clause(Literal("G", ("x",)), (Literal("Nope", ("x",)),))],
            "G", ("x",))
        stats = DataStatistics.from_abox(ABox.parse("A(a)"))
        assert estimate_cost(query, stats) == 0.0

    def test_bigger_relations_cost_more(self):
        query = _query(
            [Clause(Literal("G", ("x", "z")),
                    (Literal("R", ("x", "y")), Literal("R", ("y", "z"))))],
            "G", ("x", "z"))
        small = DataStatistics.from_abox(
            ABox.parse("R(a, b), R(b, c)"))
        rows = ", ".join(f"R(a{i}, a{i + 1})" for i in range(30))
        big = DataStatistics.from_abox(ABox.parse(rows))
        assert estimate_cost(query, big) > estimate_cost(query, small)

    def test_equalities_do_not_look_like_cross_products(self):
        from repro.datalog.program import Equality

        joined = _query(
            [Clause(Literal("G", ("x",)),
                    (Literal("A", ("x",)), Literal("B", ("x",))))],
            "G", ("x",))
        equated = _query(
            [Clause(Literal("G", ("x",)),
                    (Literal("A", ("x",)), Equality("x", "y"),
                     Literal("B", ("y",))))],
            "G", ("x",))
        stats = DataStatistics.from_abox(
            ABox.parse("A(a), A(b), B(a), B(c)"))
        assert math.isclose(estimate_cost(joined, stats),
                            estimate_cost(equated, stats))

    def test_cost_is_finite_on_rewriter_outputs(self):
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RSR"))
        stats = DataStatistics.from_abox(
            ABox.parse("R(a,b), S(b,c), R(c,d)").complete(tbox))
        for method in ("lin", "log", "tw"):
            cost = estimate_cost(rewrite(omq, method=method), stats)
            assert cost >= 0 and math.isfinite(cost)


class TestAdaptiveRewrite:
    @pytest.fixture(scope="class")
    def omq(self):
        return OMQ(example11_tbox(), chain_cq("RSRRSRR"))

    def test_returns_a_candidate_with_costs(self, omq):
        completed = erdos_renyi_abox(60, 0.05, 0.05, seed=2).complete(
            omq.tbox)
        choice = adaptive_rewrite(omq, completed)
        assert isinstance(choice, AdaptiveChoice)
        assert choice.method in choice.costs
        assert choice.cost == min(choice.costs.values())

    def test_chosen_query_evaluates_correctly(self, omq):
        completed = erdos_renyi_abox(60, 0.05, 0.05, seed=2).complete(
            omq.tbox)
        choice = adaptive_rewrite(omq, completed)
        expected = evaluate(rewrite(omq, method="log"), completed).answers
        assert evaluate(choice.query, completed).answers == expected

    def test_accepts_precomputed_statistics(self, omq):
        completed = erdos_renyi_abox(60, 0.05, 0.05, seed=2).complete(
            omq.tbox)
        stats = DataStatistics.from_abox(completed)
        choice = adaptive_rewrite(omq, stats)
        assert choice.costs
        # statistics and the ABox they came from cost the same programs
        assert choice.costs == adaptive_rewrite(omq, completed).costs

    def test_inapplicable_methods_are_skipped(self):
        # a 4-cycle CQ is not tree-shaped: Lin and Tw must be skipped,
        # Log still applies
        from repro.queries.cq import CQ

        tbox = example11_tbox()
        cycle = CQ.parse("R(x,y), R(y,z), R(z,w), R(w,x)")
        choice = adaptive_rewrite(
            OMQ(tbox, cycle), ABox.parse("R(a,a)").complete(tbox),
            candidates=("lin", "log", "tw"))
        assert choice.method == "log"
        assert "lin" in choice.skipped and "tw" in choice.skipped

    def test_no_applicable_candidate_raises(self, omq):
        completed = ABox.parse("R(a,b)").complete(omq.tbox)
        from repro.queries.cq import CQ

        cycle = CQ.parse("R(x,y), R(y,z), R(z,x)")
        with pytest.raises(ValueError, match="no candidate"):
            adaptive_rewrite(OMQ(omq.tbox, cycle), completed,
                             candidates=("lin", "tw"))

    def test_adaptive_tracks_the_actual_winner(self, omq):
        # on the paper's Erdos-Renyi data (no S edges), the chosen
        # rewriting should materialise no more tuples than the worst
        # fixed strategy, and its estimate ranking should broadly agree
        # with the measured tuple counts
        completed = erdos_renyi_abox(150, 0.05, 0.05, seed=1).complete(
            omq.tbox)
        choice = adaptive_rewrite(omq, completed)
        actual = {}
        for method in choice.costs:
            ndl = rewrite(omq, method=method)
            actual[method] = evaluate(ndl, completed).generated_tuples
        chosen_actual = actual[choice.method]
        assert chosen_actual <= max(actual.values())
        best_actual = min(actual.values())
        # within a small factor of the true optimum
        assert chosen_actual <= 3 * max(best_actual, 1)


class TestAnswerAdaptive:
    def test_agrees_with_fixed_strategy_answer(self):
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RSR"))
        abox = ABox.parse("R(a,b), S(b,c), R(c,d), A_P(b)")
        adaptive = answer_adaptive(omq, abox)
        fixed = answer(omq, abox, method="tw")
        assert adaptive.answers == fixed.answers

    def test_empty_data(self):
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RSR"))
        assert answer_adaptive(omq, ABox()).answers == frozenset()
