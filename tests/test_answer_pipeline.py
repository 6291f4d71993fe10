"""End-to-end tests of the extended ``answer`` pipeline: engines and
the adaptive method, in every combination.

The invariant: whatever engine and method are chosen, the certain
answers must equal the chase-based reference semantics.
"""

import pytest

from repro import ABox, CQ, OMQ, answer, certain_answers, chain_cq
from repro.engine import ENGINES

from .helpers import example11_tbox


@pytest.fixture(scope="module")
def setting():
    tbox = example11_tbox()
    query = chain_cq("RSRRSRR")
    abox = ABox.parse(
        "R(c0,c1), S(c1,c2), R(c2,c3), R(c3,c4), S(c4,c5), R(c5,c6), "
        "R(c6,c7), A_P-(d0), R(d0,d3), A_P-(d3), R(d3,d6), R(d6,d7)")
    expected = frozenset(certain_answers(tbox, abox, query))
    return tbox, query, abox, expected


class TestPipelineCombinations:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_all_stage_combinations_agree(self, setting, engine):
        tbox, query, abox, expected = setting
        result = answer(OMQ(tbox, query), abox, method="tw",
                        engine=engine)
        assert result.answers == expected

    @pytest.mark.parametrize("method", ("lin", "log", "tw", "adaptive"))
    def test_methods_with_sql_engine(self, setting, method):
        tbox, query, abox, expected = setting
        result = answer(OMQ(tbox, query), abox, method=method,
                        engine="sql")
        assert result.answers == expected

    def test_adaptive_method(self, setting):
        tbox, query, abox, expected = setting
        result = answer(OMQ(tbox, query), abox, method="adaptive")
        assert result.answers == expected

    def test_unknown_engine_is_rejected(self, setting):
        tbox, query, abox, _ = setting
        with pytest.raises(ValueError, match="unknown engine"):
            answer(OMQ(tbox, query), abox, engine="oracle")

    def test_perfectref_still_runs_on_raw_data(self, setting):
        tbox, query, abox, expected = setting
        result = answer(OMQ(tbox, query), abox, method="perfectref")
        assert result.answers == expected


class TestPipelineOnBooleanQueries:
    def test_boolean_query_through_every_engine(self):
        tbox = example11_tbox()
        query = CQ.parse("R(x, y), S(y, z)")
        abox = ABox.parse("R(a, b), A_P(b)")
        for engine in ENGINES:
            result = answer(OMQ(tbox, query), abox, engine=engine)
            assert result.answers == {()}

    def test_boolean_no_match(self):
        tbox = example11_tbox()
        query = CQ.parse("S(x, y), S(y, z)")
        abox = ABox.parse("R(a, b)")
        for engine in ENGINES:
            result = answer(OMQ(tbox, query), abox, engine=engine)
            assert result.answers == frozenset()


class TestPipelineOnAnonymousWitnesses:
    def test_answers_requiring_the_ontology(self):
        # the d-chain only matches thanks to A_P-/A_P surrogates: the
        # anonymous part of the canonical model provides the S edge
        tbox = example11_tbox()
        query = chain_cq("RSR")
        abox = ABox.parse("A_P-(d0), R(d0, d3)")
        for engine in ENGINES:
            result = answer(OMQ(tbox, query), abox, engine=engine)
            assert ("d0", "d3") in result.answers
