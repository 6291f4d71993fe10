"""Tests for repro.queries.cq (shape classification and helpers)."""

import pytest

from repro.queries import CQ, Atom, binary, chain_cq, unary


class TestConstruction:
    def test_parse(self):
        query = CQ.parse("R(x, y), A(y)", answer_vars=["x"])
        assert Atom("R", ("x", "y")) in query
        assert Atom("A", ("y",)) in query
        assert query.answer_vars == ("x",)

    def test_answer_var_must_occur(self):
        with pytest.raises(ValueError):
            CQ([binary("R", "x", "y")], ("z",))

    def test_atom_arity_check(self):
        with pytest.raises(ValueError):
            Atom("R", ("x", "y", "z"))

    def test_duplicate_atoms_collapse(self):
        query = CQ([binary("R", "x", "y"), binary("R", "x", "y")], ())
        assert len(query) == 1

    def test_equality_ignores_atom_order(self):
        first = CQ([binary("R", "x", "y"), unary("A", "x")], ("x",))
        second = CQ([unary("A", "x"), binary("R", "x", "y")], ("x",))
        assert first == second

    def test_chain_cq(self):
        query = chain_cq("RS")
        assert query.answer_vars == ("x0", "x2")
        assert Atom("R", ("x0", "x1")) in query
        assert Atom("S", ("x1", "x2")) in query


class TestShapes:
    def test_chain_is_linear(self):
        query = chain_cq("RSRR")
        assert query.is_tree_shaped
        assert query.is_linear
        assert query.number_of_leaves == 2
        assert query.treewidth() == 1

    def test_star_is_tree_not_linear(self):
        query = CQ.parse("R(c, x), R(c, y), R(c, z)")
        assert query.is_tree_shaped
        assert not query.is_linear
        assert query.number_of_leaves == 3

    def test_cycle_is_not_tree(self):
        query = CQ.parse("R(x, y), R(y, z), R(z, x)")
        assert not query.is_tree_shaped
        assert query.treewidth() == 2

    def test_single_variable(self):
        query = CQ.parse("A(x)")
        assert query.is_tree_shaped
        assert query.is_connected

    def test_disconnected(self):
        query = CQ.parse("R(x, y), R(u, v)")
        assert not query.is_connected
        assert len(query.connected_components()) == 2

    def test_self_loop_does_not_affect_shape(self):
        query = CQ.parse("R(x, y), P(y, y)")
        assert query.is_tree_shaped

    def test_existential_vars(self):
        query = CQ.parse("R(x, y), S(y, z)", answer_vars=["x"])
        assert query.existential_vars == {"y", "z"}


class TestHelpers:
    def test_distances(self):
        query = chain_cq("RSR")
        distances = query.distances_from("x0")
        assert distances == {"x0": 0, "x1": 1, "x2": 2, "x3": 3}

    def test_loop_atoms(self):
        query = CQ.parse("P(x, x), R(x, y)")
        assert query.loop_atoms("x") == [Atom("P", ("x", "x"))]

    def test_restrict_to(self):
        query = CQ.parse("R(x, y), S(y, z)", answer_vars=["x"])
        sub = query.restrict_to({"x", "y"}, ("x",))
        assert len(sub) == 1
        assert Atom("R", ("x", "y")) in sub
