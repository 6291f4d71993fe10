"""Tests for repro.data.generator."""

from repro.data import (
    TABLE2_SPECS,
    chain_abox,
    erdos_renyi_abox,
    multi_component_abox,
    paper_datasets,
    random_abox,
    workload_abox,
)


class TestErdosRenyi:
    def test_deterministic_for_seed(self):
        first = erdos_renyi_abox(50, 0.1, 0.2, seed=7)
        second = erdos_renyi_abox(50, 0.1, 0.2, seed=7)
        assert list(first.atoms()) == list(second.atoms())

    def test_different_seeds_differ(self):
        first = erdos_renyi_abox(50, 0.1, 0.2, seed=1)
        second = erdos_renyi_abox(50, 0.1, 0.2, seed=2)
        assert list(first.atoms()) != list(second.atoms())

    def test_edge_count_near_expectation(self):
        abox = erdos_renyi_abox(100, 0.05, 0.0, seed=3)
        edges = len(abox.binary("R"))
        expected = 100 * 99 * 0.05
        assert 0.6 * expected < edges < 1.4 * expected

    def test_no_self_loops(self):
        abox = erdos_renyi_abox(30, 0.3, 0.0, seed=4)
        assert all(a != b for a, b in abox.binary("R"))

    def test_marks_generated(self):
        abox = erdos_renyi_abox(200, 0.0, 0.5, seed=5)
        assert abox.unary("A_P")
        assert abox.unary("A_P-")

    def test_zero_probability_edges(self):
        abox = erdos_renyi_abox(20, 0.0, 1.0, seed=6)
        assert not abox.binary_predicates

    def test_probability_one_edges(self):
        abox = erdos_renyi_abox(5, 1.0, 0.0, seed=6)
        assert len(abox.binary("R")) == 5 * 4


class TestPaperDatasets:
    def test_four_datasets(self):
        datasets = paper_datasets(scale=0.02)
        assert set(datasets) == {spec.name for spec in TABLE2_SPECS}

    def test_scaling_preserves_degree(self):
        datasets = paper_datasets(scale=0.05, seed=1)
        # dataset 1: average degree 50 at any scale
        abox = datasets["1.ttl"]
        vertices = max(10, int(1000 * 0.05))
        edges = len(abox.binary("R"))
        assert 0.5 * 50 * vertices < edges < 1.5 * 50 * vertices


class TestOtherGenerators:
    def test_chain(self):
        abox = chain_abox("RSR")
        assert ("R", ("c0", "c1")) in abox
        assert ("S", ("c1", "c2")) in abox
        assert ("R", ("c2", "c3")) in abox

    def test_random_abox_bounded(self):
        abox = random_abox(5, 20, ["A"], ["P"], seed=9)
        assert len(abox.individuals) <= 5
        assert len(abox) <= 20


def _component_count(abox):
    """Connected components of the Gaifman graph, by union-find."""
    parent = {constant: constant for constant in abox.individuals}

    def root(constant):
        while parent[constant] != constant:
            parent[constant] = parent[parent[constant]]
            constant = parent[constant]
        return constant

    for _, args in abox.atoms():
        for other in args[1:]:
            parent[root(other)] = root(args[0])
    return len({root(constant) for constant in parent})


class TestWorkloadPresets:
    def test_deterministic_and_scaled(self):
        first = workload_abox("chain-small", seed=5)
        second = workload_abox("chain-small", seed=5)
        assert set(first.atoms()) == set(second.atoms())
        assert set(first.atoms()) != set(
            workload_abox("chain-small", seed=6).atoms())
        small = workload_abox("chain-large", scale=0.1, seed=5)
        assert len(small) < len(workload_abox("chain-large", seed=5))

    def test_component_structure(self):
        abox = multi_component_abox(8, 5, shape="star", seed=1)
        assert _component_count(abox) == 8
        chain = multi_component_abox(3, 4, shape="chain", seed=1,
                                     mark_probability=0.0)
        # a chain of n vertices has n-1 edges
        assert len(chain) == 3 * 3

    def test_unknown_preset(self):
        try:
            workload_abox("nope")
            raise AssertionError("unknown preset must raise")
        except ValueError as error:
            assert "nope" in str(error)
