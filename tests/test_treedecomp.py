"""Tests for repro.queries.treedecomp."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.queries import CQ, Atom, chain_cq, tree_decomposition
from repro.queries.treedecomp import subtree_components

from .helpers import hypothesis_settings


class TestTreeDecomposition:
    def test_chain_yields_width_one(self):
        decomposition = tree_decomposition(chain_cq("RSRRSRR"))
        assert decomposition.width == 1
        assert len(decomposition.tree) == 7  # one bag per edge

    def test_chain_bags_are_edges(self):
        query = chain_cq("RS")
        decomposition = tree_decomposition(query)
        bags = set(decomposition.bags.values())
        assert frozenset({"x0", "x1"}) in bags
        assert frozenset({"x1", "x2"}) in bags

    def test_validates_on_tree_query(self):
        query = CQ.parse("R(c, x), R(c, y), S(y, z)")
        decomposition = tree_decomposition(query)
        decomposition.validate(query)
        assert decomposition.width == 1

    def test_cycle_query(self):
        query = CQ.parse("R(x, y), R(y, z), R(z, x)")
        decomposition = tree_decomposition(query)
        decomposition.validate(query)
        assert decomposition.width == 2

    def test_grid_query(self):
        atoms = []
        for i in range(3):
            for j in range(3):
                if i < 2:
                    atoms.append(f"H(v{i}{j}, v{i+1}{j})")
                if j < 2:
                    atoms.append(f"V(v{i}{j}, v{i}{j+1})")
        query = CQ.parse(", ".join(atoms))
        decomposition = tree_decomposition(query)
        decomposition.validate(query)
        assert decomposition.width >= 2

    def test_single_variable_query(self):
        decomposition = tree_decomposition(CQ.parse("A(x)"))
        decomposition.validate(CQ.parse("A(x)"))

    def test_disconnected_query(self):
        query = CQ.parse("R(x, y), S(u, v)")
        decomposition = tree_decomposition(query)
        decomposition.validate(query)

    def test_validate_rejects_uncovered_edge(self):
        query = chain_cq("RS")
        decomposition = tree_decomposition(chain_cq("R"))
        with pytest.raises(ValueError):
            decomposition.validate(query)


def path_graph(size):
    """The path ``0 - 1 - ... - size-1`` as an adjacency dict."""
    return {i: {j for j in (i - 1, i + 1) if 0 <= j < size}
            for i in range(size)}


class TestSubtreeComponents:
    def test_path_split(self):
        tree = path_graph(5)
        parts = subtree_components(tree, frozenset(range(5)), 2)
        assert sorted(sorted(p) for p in parts) == [[0, 1], [3, 4]]

    def test_split_in_sub_subtree(self):
        tree = path_graph(5)
        parts = subtree_components(tree, frozenset({0, 1, 2}), 1)
        assert sorted(sorted(p) for p in parts) == [[0], [2]]

    def test_ordered_by_least_bag_past_a_wrapping_set(self):
        """Bag 8 hashes to slot 0 of a four-element set's table, so
        ``frozenset({5, 6, 7, 8})`` iterates 8 first; the components
        still come out by least bag number (the Log rewriter names its
        predicates in this order)."""
        tree = path_graph(9)
        subtree = frozenset({5, 6, 7, 8})
        for split, expected in ((6, [{5}, {7, 8}]), (7, [{5, 6}, {8}])):
            assert subtree_components(tree, subtree, split) == expected


def _cycle(size):
    return ", ".join(f"R(x{i}, x{(i + 1) % size})" for i in range(size))


def _grid(size):
    return ", ".join(
        [f"H(v{i}{j}, v{i + 1}{j})" for i in range(size - 1)
         for j in range(size)]
        + [f"V(v{i}{j}, v{i}{j + 1})" for i in range(size)
           for j in range(size - 1)])


#: the decomposition corpus: cycles of 3-6 variables, K4, a 3x3 grid,
#: a disconnected pair, ten draws of ``larger_queries(cyclic=True)``
#: (tests/test_witness_kernel.py) and three tree-shaped queries
DECOMPOSED = {f"cycle{size}": _cycle(size) for size in range(3, 7)}
DECOMPOSED.update({
    "K4": ", ".join(f"R(x{i}, x{j})" for i in range(4)
                    for j in range(i + 1, 4)),
    "grid3x3": _grid(3),
    "pair": "R(x, y), S(u, v)",
    "draw0": ('P(v0, v1), P(v1, v2), P(v2, v0), P(v2, v3), P(v3, v4), '
        'A(v0), A(v1), A(v2), A(v3), A(v4)'),
    "draw1": ('Q(v0, v1), Q(v1, v2), Q(v2, v3), Q(v3, v4), Q(v4, v0), Q(v5, '
        'v4)'),
    "draw2": ('Q(v0, v1), P(v1, v2), Q(v2, v0), P(v3, v2), P(v4, v3), B(v4)'),
    "draw3": ('Q(v0, v1), Q(v1, v2), Q(v2, v3), Q(v3, v4), Q(v4, v0), Q(v4, '
        'v5), P(v6, v5), B(v2), B(v3)'),
    "draw4": ('P(v0, v1), P(v1, v2), P(v2, v0), P(v2, v3), Q(v4, v3), P(v5, '
        'v4), B(v0)'),
    "draw5": ('P(v0, v1), P(v1, v2), P(v2, v0), P(v2, v3), P(v3, v4), P(v4, '
        'v5), P(v5, v6), A(v0), A(v1), A(v2), A(v3), A(v4), A(v5), '
        'A(v6)'),
    "draw6": ('Q(v0, v1), Q(v1, v2), Q(v2, v3), Q(v3, v4), Q(v4, v0), Q(v5, '
        'v4), P(v6, v5), B(v1), A(v2), B(v5)'),
    "draw7": ('Q(v0, v1), Q(v1, v2), Q(v2, v3), Q(v3, v0), P(v3, v4), P(v4, '
        'v5), Q(v6, v5), A(v3), B(v4), B(v6)'),
    "draw8": ('Q(v0, v1), Q(v1, v2), Q(v2, v3), Q(v3, v4), Q(v4, v0), Q(v5, '
        'v4), Q(v6, v5), B(v0), A(v1), A(v6)'),
    "draw9": ('P(v0, v1), P(v1, v2), P(v2, v3), P(v3, v0), P(v3, v4), P(v5, '
        'v4), B(v0), A(v1), A(v4), A(v5)'),
    "star": 'R(c, x), R(c, y), S(y, z), S(w, y), R(c, u)',
    "single": 'A(x)',
    "loops": 'R(x, x), R(x, y), S(y, z), R(z, x), A(y)',
})

#: label -> (width, bags by node, tree edges), as networkx 3.6's
#: min-fill-in decomposition (over the variables in sorted order) and
#: the edge decomposition gave them
PINNED_DECOMPOSITIONS = {
    "cycle3": (2, ["x0 x1 x2"], []),
    "cycle4": (2, ["x1 x2 x3", "x0 x1 x3"], [(0, 1)]),
    "cycle5": (2, ["x2 x3 x4", "x1 x2 x4", "x0 x1 x4"], [(0, 1), (1, 2)]),
    "cycle6": (
        2, ["x3 x4 x5", "x2 x3 x5", "x1 x2 x5", "x0 x1 x5"],
        [(0, 1), (1, 2), (2, 3)]),
    "K4": (3, ["x0 x1 x2 x3"], []),
    "grid3x3": (
        3,
        ["v10 v11 v12 v21", "v01 v10 v11 v12", "v12 v21 v22",
         "v10 v20 v21", "v01 v02 v12", "v00 v01 v10"],
        [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]),
    "pair": (1, ["x y", "v", "u v"], [(0, 1), (1, 2)]),
    "draw0": (2, ["v0 v1 v2", "v2 v3", "v3 v4"], [(0, 1), (1, 2)]),
    "draw1": (
        2, ["v2 v3 v4", "v1 v2 v4", "v0 v1 v4", "v4 v5"],
        [(0, 1), (0, 3), (1, 2)]),
    "draw2": (2, ["v0 v1 v2", "v2 v3", "v3 v4"], [(0, 1), (1, 2)]),
    "draw3": (
        2, ["v2 v3 v4", "v1 v2 v4", "v0 v1 v4", "v4 v5", "v5 v6"],
        [(0, 1), (0, 3), (1, 2), (3, 4)]),
    "draw4": (
        2, ["v0 v1 v2", "v2 v3", "v3 v4", "v4 v5"],
        [(0, 1), (1, 2), (2, 3)]),
    "draw5": (
        2, ["v0 v1 v2", "v2 v3", "v3 v4", "v4 v5", "v5 v6"],
        [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "draw6": (
        2, ["v2 v3 v4", "v1 v2 v4", "v0 v1 v4", "v4 v5", "v5 v6"],
        [(0, 1), (0, 3), (1, 2), (3, 4)]),
    "draw7": (
        2, ["v1 v2 v3", "v0 v1 v3", "v3 v4", "v4 v5", "v5 v6"],
        [(0, 1), (0, 2), (2, 3), (3, 4)]),
    "draw8": (
        2, ["v2 v3 v4", "v1 v2 v4", "v0 v1 v4", "v4 v5", "v5 v6"],
        [(0, 1), (0, 3), (1, 2), (3, 4)]),
    "draw9": (
        2, ["v1 v2 v3", "v0 v1 v3", "v3 v4", "v4 v5"],
        [(0, 1), (0, 2), (2, 3)]),
    "star": (
        1, ["c x", "c y", "c u", "y z", "w y"],
        [(0, 1), (0, 2), (1, 3), (1, 4)]),
    "single": (0, ["x"], []),
    "loops": (2, ["x y z"], []),
}


class TestPinnedDecompositions:
    @pytest.mark.parametrize("label", sorted(PINNED_DECOMPOSITIONS))
    def test_bags_and_tree_are_pinned(self, label):
        query = CQ.parse(DECOMPOSED[label])
        decomposition = tree_decomposition(query)
        decomposition.validate(query)
        tree = decomposition.tree
        width, bags, edges = PINNED_DECOMPOSITIONS[label]
        assert decomposition.width == width
        assert [" ".join(sorted(decomposition.bags[node]))
                for node in sorted(decomposition.bags)] == bags
        assert sorted({tuple(sorted((node, other)))
                       for node in tree for other in tree[node]}) == edges

    @hypothesis_settings(60)
    @given(data=st.data(), size=st.integers(1, 8))
    def test_valid_on_random_graphs(self, data, size):
        variables = [f"v{i}" for i in range(size)]
        pairs = [(u, v) for i, u in enumerate(variables)
                 for v in variables[i + 1:]]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                          if pairs else st.just([]))
        query = CQ([Atom("R", pair) for pair in edges]
                   + [Atom("A", (var,)) for var in variables])
        decomposition = tree_decomposition(query)
        decomposition.validate(query)
        assert decomposition.width <= size - 1
        if query.is_tree_shaped and size > 1:
            assert decomposition.width == 1
