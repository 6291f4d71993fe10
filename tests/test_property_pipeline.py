"""Property-based differential tests for the optimisation layer.

Random OWL 2 QL TBoxes, tree-shaped CQs and data instances (the
strategies of ``test_property_based``) are pushed through the SQL
backend, magic sets, the optimiser and the adaptive planner; every path
must agree with the chase-based certain-answer oracle.
"""

from hypothesis import given

from repro.chase import certain_answers
from repro.datalog import evaluate
from repro.datalog.magic import evaluate_magic
from repro.datalog.optimize import optimize
from repro.rewriting import OMQ, adaptive_rewrite, answer, tw_rewrite
from repro.sql import evaluate_sql

from .helpers import hypothesis_settings
from .test_property_based import aboxes, tboxes, tree_queries

SETTINGS = hypothesis_settings(20)


def _oracle(tbox, query, abox):
    return frozenset(certain_answers(tbox, abox, query))


class TestSqlBackendAgainstOracle:
    @SETTINGS
    @given(tbox=tboxes(), query=tree_queries(), abox=aboxes())
    def test_sql_tables(self, tbox, query, abox):
        ndl = tw_rewrite(tbox, query)
        completed = abox.complete(tbox)
        assert (evaluate_sql(ndl, completed).answers
                == _oracle(tbox, query, abox))

    @SETTINGS
    @given(tbox=tboxes(), query=tree_queries(), abox=aboxes())
    def test_sql_views(self, tbox, query, abox):
        ndl = tw_rewrite(tbox, query)
        completed = abox.complete(tbox)
        assert (evaluate_sql(ndl, completed, materialised=False).answers
                == _oracle(tbox, query, abox))


class TestMagicAgainstOracle:
    @SETTINGS
    @given(tbox=tboxes(), query=tree_queries(), abox=aboxes())
    def test_magic_all_answers(self, tbox, query, abox):
        ndl = tw_rewrite(tbox, query)
        completed = abox.complete(tbox)
        assert (evaluate_magic(ndl, completed).answers
                == _oracle(tbox, query, abox))

    @SETTINGS
    @given(tbox=tboxes(), query=tree_queries(), abox=aboxes())
    def test_magic_candidate_checks(self, tbox, query, abox):
        if not query.answer_vars:
            return
        ndl = tw_rewrite(tbox, query)
        completed = abox.complete(tbox)
        expected = _oracle(tbox, query, abox)
        individuals = sorted(abox.individuals)
        # check one known answer and one arbitrary candidate
        candidates = list(expected)[:1]
        if individuals:
            candidates.append(tuple(individuals[:1] * len(query.answer_vars)))
        for candidate in candidates:
            result = evaluate_magic(ndl, completed, candidate=candidate)
            assert (candidate in result.answers) == (candidate in expected)


class TestOptimizerAgainstOracle:
    @SETTINGS
    @given(tbox=tboxes(), query=tree_queries(), abox=aboxes())
    def test_optimized_program(self, tbox, query, abox):
        ndl = tw_rewrite(tbox, query)
        completed = abox.complete(tbox)
        optimized = optimize(ndl, completed)
        assert (evaluate(optimized, completed).answers
                == _oracle(tbox, query, abox))


class TestAdaptiveAgainstOracle:
    @SETTINGS
    @given(tbox=tboxes(), query=tree_queries(), abox=aboxes())
    def test_adaptive_choice(self, tbox, query, abox):
        completed = abox.complete(tbox)
        choice = adaptive_rewrite(OMQ(tbox, query), completed)
        assert (evaluate(choice.query, completed).answers
                == _oracle(tbox, query, abox))


class TestFacadeAgainstOracle:
    @SETTINGS
    @given(tbox=tboxes(), query=tree_queries(), abox=aboxes())
    def test_full_pipeline(self, tbox, query, abox):
        result = answer(OMQ(tbox, query), abox, method="tw",
                        engine="sql-views", optimize=True, magic=True)
        assert result.answers == _oracle(tbox, query, abox)
