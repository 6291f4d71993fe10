"""Property-based differential tests for the optimisation layer.

Random OWL 2 QL TBoxes, tree-shaped CQs and data instances (the
strategies of ``test_property_based``) are pushed through the SQL
backend, the optimiser, the adaptive planner and — across update
sequences that flip predicates between empty and nonempty — the
per-execute specialisation; every path must agree with the chase-based
certain-answer oracle.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.chase import certain_answers
from repro.data import ABox
from repro.datalog import evaluate
from repro.datalog.optimize import optimize
from repro.engine import ENGINES
from repro.rewriting import (
    OMQ,
    AnswerSession,
    adaptive_rewrite,
    answer,
    tw_rewrite,
)
from repro.rewriting.plan import compile_omq
from repro.sql import evaluate_sql

from .helpers import hypothesis_settings
from .test_property_based import (
    CONCEPT_NAMES,
    ROLE_NAMES,
    aboxes,
    tboxes,
    tree_queries,
)

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


@st.composite
def update_sequences(draw):
    """1-4 steps of ``(atoms to insert, predicates to empty)``: a step
    deletes *every* fact of the predicates it names, so it can empty
    one, and inserts a drawn instance, so it can give one its first
    fact — the two flips a data-specialised plan must follow."""
    predicates = ROLE_NAMES + CONCEPT_NAMES + ("A_P", "A_Q")
    return [(list(draw(aboxes()).atoms()) if draw(st.booleans()) else [],
             draw(st.lists(st.sampled_from(predicates), max_size=3,
                           unique=True)))
            for _ in range(draw(st.integers(1, 4)))]


class TestSpecialisationAgainstOracle:
    @SETTINGS
    @given(tbox=tboxes(), query=tree_queries(), abox=aboxes(),
           steps=update_sequences())
    def test_held_plan_follows_every_update(self, tbox, query, abox, steps):
        """One plan compiled up front, first run over no data at all
        (everything pruned) and held across the updates: after every
        step what ``execute`` runs (the specialised program) answers
        like the rewriting as written and like the oracle, on every
        engine."""
        plan = compile_omq(OMQ(tbox, query), method="tw")
        reference = ABox()
        with AnswerSession(ABox()) as session:
            for inserts, emptied in [([], []),
                                     (list(abox.atoms()), [])] + steps:
                deletes = [atom for atom in reference.atoms()
                           if atom[0] in emptied]
                session.apply_update(inserts=inserts, deletes=deletes)
                for predicate, args in deletes:
                    reference.discard(predicate, *args)
                for predicate, args in inserts:
                    reference.add(predicate, *args)
                expected = _oracle(tbox, query, reference)
                for engine in ENGINES:
                    backend = session.backend(engine, tbox)
                    assert (plan.execute(session, engine=engine).answers
                            == backend.evaluate(plan.ndl).answers
                            == expected), engine


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
                        engine="sql")
        assert result.answers == _oracle(tbox, query, abox)
