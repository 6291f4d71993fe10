"""Tree decompositions of conjunctive queries (Section 3.2).

For tree-shaped CQs we build the natural width-1 decomposition whose
bags are the edges of the Gaifman graph (Example 8); for arbitrary CQs
we eliminate vertices by the min-fill-in heuristic and join the
elimination bags into a junction tree, which is exact on trees and a
good upper bound in general.  Both trees are adjacency dicts over bag
numbers ``0 .. n-1``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .cq import CQ, Graph, Variable, components, is_tree


class TreeDecomposition:
    """A pair ``(T, lambda)``: a tree with a bag of variables per node;
    ``tree`` maps every node to its neighbours, in node order."""

    def __init__(self, bags: Dict[int, FrozenSet[Variable]],
                 edges: Iterable[Tuple[int, int]] = ()):
        self.bags = dict(bags)
        self.tree: Dict[int, Set[int]] = {node: set()
                                          for node in sorted(self.bags)}
        for first, second in edges:
            self.tree[first].add(second)
            self.tree[second].add(first)

    @property
    def width(self) -> int:
        """``max |bag| - 1``."""
        return max((len(bag) for bag in self.bags.values()), default=0) - 1

    def neighbours(self, node: int) -> List[int]:
        return sorted(self.tree[node])

    def validate(self, query: CQ) -> None:
        """Check the three tree-decomposition conditions for ``query``.

        Raises ``ValueError`` on violation; used in tests and as a safety
        net in the Log rewriter.
        """
        if not is_tree(self.tree):
            raise ValueError("decomposition graph is not a tree")
        covered = set()
        for bag in self.bags.values():
            covered |= bag
        if not query.variables <= covered:
            raise ValueError("some variable occurs in no bag")
        for atom in query.binary_atoms():
            pair = set(atom.args)
            if not any(pair <= bag for bag in self.bags.values()):
                raise ValueError(f"edge of atom {atom} is in no bag")
        for variable in query.variables:
            nodes = {node for node, bag in self.bags.items()
                     if variable in bag}
            if len(components(self.tree, nodes)) > 1:
                raise ValueError(
                    f"bags containing {variable} are not connected")

    def __repr__(self) -> str:
        return (f"TreeDecomposition({len(self.tree)} nodes, "
                f"width={self.width})")


def tree_decomposition(query: CQ) -> TreeDecomposition:
    """A tree decomposition of the Gaifman graph of ``query``.

    Width 1 (the natural edge decomposition) for tree-shaped queries;
    min-fill-in elimination otherwise.
    """
    graph = query.gaifman()
    if len(graph) <= 1:
        return TreeDecomposition({0: frozenset(graph)})
    if is_tree(graph):
        return _edge_decomposition(query)
    decomposition = _min_fill_decomposition(graph)
    decomposition.validate(query)
    return decomposition


def _edge_decomposition(query: CQ) -> TreeDecomposition:
    """One bag per edge of a tree-shaped query, in breadth-first order
    from its least variable (neighbours in the order their atoms come),
    chained along the tree: the chain of bags in Example 8 for linear
    queries."""
    adjacent: Dict[Variable, Dict[Variable, None]] = {
        var: {} for var in query.gaifman()}
    for atom in query.binary_atoms():
        first, second = atom.args
        if first != second:
            adjacent[first][second] = adjacent[second][first] = None
    root = next(iter(adjacent))
    bags: Dict[int, FrozenSet[Variable]] = {}
    edges = []
    anchor_bag: Dict[Variable, int] = {}
    frontier = [root]
    for parent in frontier:
        for child in adjacent[parent]:
            if child == root or child in anchor_bag:  # seen
                continue
            node = len(bags)
            bags[node] = frozenset({parent, child})
            # the first bag containing the BFS root anchors it
            if parent in anchor_bag:
                edges.append((anchor_bag[parent], node))
            else:
                anchor_bag[parent] = node
            anchor_bag[child] = node
            frontier.append(child)
    return TreeDecomposition(bags, edges)


def _min_fill_decomposition(graph: Graph) -> TreeDecomposition:
    """The junction tree of min-fill-in elimination.

    While the graph is not a clique, eliminate a vertex whose
    neighbourhood needs the fewest fill edges to become one (on ties,
    the least degree, then graph order) and join its neighbours.  The
    vertices left form bag 0; then, last eliminated first, a vertex
    ``v`` with the neighbours ``N`` it had at elimination becomes the
    next bag ``N + {v}``, under the first bag so far that contains ``N``.
    """
    adjacent = {vertex: set(others) for vertex, others in graph.items()}
    eliminated = []
    while (vertex := _min_fill_vertex(adjacent)) is not None:
        neighbours = adjacent.pop(vertex)
        for other in neighbours:
            adjacent[other] |= neighbours
            adjacent[other] -= {other, vertex}
        eliminated.append((vertex, neighbours))
    bags = [frozenset(adjacent)]
    edges = []
    for vertex, neighbours in reversed(eliminated):
        edges.append((next((node for node, bag in enumerate(bags)
                            if neighbours <= bag), 0), len(bags)))
        bags.append(frozenset(neighbours | {vertex}))
    return TreeDecomposition(dict(enumerate(bags)), edges)


def _min_fill_vertex(adjacent: Dict[Variable, Set[Variable]]
                     ) -> Optional[Variable]:
    """The next vertex to eliminate, ``None`` once the graph is a
    clique (or empty)."""
    by_degree = sorted(adjacent, key=lambda vertex: len(adjacent[vertex]))
    if not by_degree or len(adjacent[by_degree[0]]) == len(adjacent) - 1:
        return None
    # twice the fill: per neighbour, the other neighbours it misses
    return min(by_degree, key=lambda vertex: sum(
        len(adjacent[vertex] - adjacent[other]) - 1
        for other in adjacent[vertex]))


def subtree_components(tree: Graph, nodes: FrozenSet[int],
                       split: int) -> List[FrozenSet[int]]:
    """The components of the subtree induced by ``nodes`` after removing
    ``split`` (the subtrees ``D_1, ..., D_k`` of Section 3.2), found in
    the iteration order of ``nodes - {split}``: the order the Log
    rewriter names its predicates in."""
    return components(tree, nodes - {split})
