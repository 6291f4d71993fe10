"""Tests for the Tw rewriter (Section 3.4, Theorem 13)."""

import math

import pytest

from repro import OMQ, create_engine
from repro.chase import certain_answers
from repro.datalog import evaluate
from repro.datalog.optimize import inline_single_definition, optimize
from repro.experiments import SEQUENCES
from repro.queries import CQ, chain_cq
from repro.queries.cq import components
from repro.rewriting import splitting_vertex, tw_rewrite
from repro.rewriting.plan import compile_omq

from .helpers import deep_tbox, example11_tbox, infinite_tbox, random_data


class TestSplittingVertex:
    def test_path_centroid(self):
        query = chain_cq("RRRR")  # x0..x4
        assert splitting_vertex(query) == "x2"

    def test_two_vars_prefers_existential(self):
        query = CQ.parse("R(x, y)", answer_vars=["x"])
        assert splitting_vertex(query) == "y"

    def test_balance_bound(self):
        query = CQ.parse("R(c,x1), R(c,x2), R(x2,x3), R(x3,x4), R(x2,x5)")
        split = splitting_vertex(query)
        graph = query.gaifman()
        rest = set(query.variables) - {split}
        worst = max(len(c) for c in components(graph, rest))
        assert worst <= -(-len(query.variables) // 2)


class TestStructure:
    def test_logarithmic_depth(self):
        tbox = example11_tbox()
        for n in (4, 8, 16):
            query = chain_cq("RS" * n)
            ndl = tw_rewrite(tbox, query, simplify=False)
            assert ndl.depth() <= math.log2(len(query) + 1) + 3

    def test_width_bound(self):
        # w(Pi, G) <= leaves + 1
        tbox = example11_tbox()
        for labels in ("RSR", "RSRRSRR"):
            query = chain_cq(labels)
            ndl = tw_rewrite(tbox, query, simplify=False)
            assert ndl.width() <= len(query.variables)

    def test_matches_appendix_a64_size(self):
        # the worked example of Appendix A.6.4 has 10 clauses
        ndl = tw_rewrite(example11_tbox(), chain_cq("RSRRSRR"))
        assert len(ndl) == 10

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError):
            tw_rewrite(example11_tbox(),
                       CQ.parse("R(x, y), R(y, z), R(z, x)"))

    def test_infinite_depth_supported(self):
        ndl = tw_rewrite(infinite_tbox(), chain_cq("RR"))
        assert len(ndl) >= 1


class TestCorrectness:
    @pytest.mark.parametrize("labels", ["R", "RS", "RSR", "RRSRS"])
    def test_matches_oracle_example11(self, labels):
        tbox = example11_tbox()
        query = chain_cq(labels)
        ndl = tw_rewrite(tbox, query)
        for seed in range(6):
            abox = random_data(seed, binary=("P", "R", "S"),
                               unary=("A_P", "A_P-", "A_S"))
            expected = certain_answers(tbox, abox, query)
            got = evaluate(ndl, abox.complete(tbox)).answers
            assert got == expected, f"seed {seed}"

    def test_infinite_depth_ontology(self):
        tbox = infinite_tbox()
        query = chain_cq("RRR")
        ndl = tw_rewrite(tbox, query)
        for seed in range(6):
            abox = random_data(seed + 50, binary=("P", "R"),
                               unary=("A", "A_P", "A_P-"))
            expected = certain_answers(tbox, abox, query)
            got = evaluate(ndl, abox.complete(tbox)).answers
            assert got == expected, f"seed {seed}"

    def test_boolean_anonymous_match(self):
        # B <= EP, EP- <= B: P-chains exist below every B individual
        from repro.ontology import TBox

        tbox = TBox.parse("roles: P\nB <= EP\nEP- <= B")
        query = CQ.parse("P(x, y), P(y, z)")
        ndl = tw_rewrite(tbox, query)
        abox_yes = random_data(1, binary=(), unary=("B",))
        got = evaluate(ndl, abox_yes.complete(tbox)).answers
        assert bool(got) == bool(certain_answers(tbox, abox_yes, query))

    def test_tw_star_inlining_preserves_answers(self):
        """Appendix D.4's ``Tw*`` is what ``Plan.execute`` runs for a
        ``tw`` plan: its specialised program, with the same answers as
        the raw build."""
        tbox = example11_tbox()
        plan = compile_omq(OMQ(tbox, chain_cq("RSRRS")), method="tw")
        for seed in range(5):
            abox = random_data(seed + 90, binary=("P", "R", "S"),
                               unary=("A_P", "A_P-")).complete(tbox)
            with create_engine("python", abox) as engine:
                specialised = plan.specialised(engine)
                assert len(specialised) <= plan.rules
                assert (engine.evaluate(specialised).answers
                        == engine.evaluate(plan.ndl).answers), f"seed {seed}"

    def test_inlining_before_specialising_never_wins(self):
        """The retired ``tw_star`` method inlined the raw build before
        the specialisation ran.  On the 45 Section 6 chains, with every
        predicate nonempty and with ``S`` empty, that program is never
        smaller once specialised than the ``tw`` plan's."""
        tbox = example11_tbox()
        for labels in SEQUENCES.values():
            for size in range(1, len(labels) + 1):
                query = chain_cq(labels[:size])
                tw = tw_rewrite(tbox, query)
                inlined_first = inline_single_definition(
                    tw_rewrite(tbox, query, simplify=False))
                edb = set(tw.program.edb_predicates)
                for nonempty in (edb, edb - {"S"}):
                    assert (len(optimize(tw, nonempty))
                            <= len(optimize(inlined_first, nonempty))), \
                        (labels[:size], sorted(nonempty))

    def test_star_query(self):
        tbox = deep_tbox()
        query = CQ.parse("P(c, x), Q(x, y), P(c, z)", answer_vars=["c"])
        ndl = tw_rewrite(tbox, query)
        for seed in range(6):
            abox = random_data(seed + 140)
            expected = certain_answers(tbox, abox, query)
            got = evaluate(ndl, abox.complete(tbox)).answers
            assert got == expected, f"seed {seed}"

    def test_unary_only_boolean(self):
        tbox = deep_tbox()
        query = CQ.parse("B(x)")
        ndl = tw_rewrite(tbox, query)
        for seed in range(4):
            abox = random_data(seed + 180)
            expected = certain_answers(tbox, abox, query)
            got = evaluate(ndl, abox.complete(tbox)).answers
            assert got == expected, f"seed {seed}"

    def test_arbitrary_instance_form(self):
        tbox = example11_tbox()
        query = chain_cq("RSR")
        ndl = tw_rewrite(tbox, query, over="arbitrary")
        for seed in range(5):
            abox = random_data(seed + 220, binary=("P", "R", "S"),
                               unary=("A_P", "A_P-"))
            expected = certain_answers(tbox, abox, query)
            got = evaluate(ndl, abox).answers
            assert got == expected, f"seed {seed}"
