"""The Log rewriter (Section 3.2): NDL-rewritings for ``OMQ(d, t, inf)``
— bounded-depth ontologies with bounded-treewidth CQs — evaluable in
LOGCFL (Theorem 9).

A tree decomposition of the CQ is split recursively at the nodes
provided by Lemma 10, halving subtree sizes; each subtree ``D`` and
boundary type ``w`` yields a predicate ``G^w_D`` defined from the types
``s`` of the splitting bag compatible with ``w``.  The resulting query
has width <= 3(t+1) and logarithmic skinny depth, so it falls in the
LOGCFL fragment of Section 3.1.

One build decides each thing once: a subtree's Lemma 10 split,
boundary and predicate arguments, a bag's atoms, a splitting bag's
types per boundary type, and each binary condition (in one
:class:`~.types.TypeSpace`).  The memos live on the one-call builder.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..datalog.optimize import inline_edb_leaves
from ..datalog.program import Clause, Literal, NDLQuery, Program
from ..datalog.transform import star_transform
from ..ontology.depth import chase_depth
from ..queries.cq import CQ, Atom, Variable
from ..queries.treedecomp import (
    TreeDecomposition,
    subtree_components,
    tree_decomposition,
)
from .types import Type, TypeSpace, at_atoms, type_key

Subtree = FrozenSet[int]


def log_rewrite(tbox, query: CQ,
                decomposition: Optional[TreeDecomposition] = None,
                over: str = "complete", simplify: bool = True) -> NDLQuery:
    """The NDL-rewriting of ``(T, q)`` of Theorem 9.

    ``decomposition`` defaults to the natural/min-fill decomposition of
    the query; ``over`` selects complete vs arbitrary data instances
    (the latter via the ``*`` transformation of Section 2).
    ``simplify`` applies the Appendix A.6.2 display simplification
    (leaf bags are inlined into their callers); pass ``False`` to get
    the verbatim construction whose width is bounded by ``3(t+1)``.
    """
    depth = chase_depth(tbox)
    if depth is math.inf:
        raise ValueError(
            "the Log rewriter needs an ontology of finite depth")
    if decomposition is None:
        decomposition = tree_decomposition(query)
    builder = _LogBuilder(tbox, query, decomposition, int(depth))
    result = builder.build()
    if simplify:
        result = inline_edb_leaves(result)
    if over == "arbitrary":
        result = star_transform(result, tbox)
    return result


class _LogBuilder:
    def __init__(self, tbox, query: CQ, decomposition: TreeDecomposition,
                 depth: int):
        self.tbox = tbox
        self.query = query
        self.decomposition = decomposition
        self.space = TypeSpace(tbox, query, depth)
        self.clauses: List[Clause] = []
        self.names: Dict[Tuple, str] = {}
        self.memo: Dict[Tuple, bool] = {}
        # per subtree: its split, dD and its predicate's arguments; per
        # (split, boundary type on the bag): the bag's types
        self.splits, self.boundaries, self.arguments, self.bag_types = (
            {}, {}, {}, {})
        self.bag_atoms: Dict[int, List[Atom]] = {
            node: [atom for atom in query.atoms if set(atom.args) <= bag]
            for node, bag in decomposition.bags.items()}

    # -- Lemma 10 splitting -------------------------------------------------

    def _degree(self, subtree: Subtree) -> int:
        tree = self.decomposition.tree
        return sum(
            1 for node in subtree
            if any(neigh not in subtree for neigh in tree[node]))

    def _split(self, subtree: Subtree) -> Tuple[int, List[Subtree]]:
        """A node satisfying Lemma 10 for ``subtree`` and the resulting
        components; existence is guaranteed for subtrees of degree <= 2.

        For degree <= 1 every component must halve; for degree 2 a
        single oversized component of degree <= 1 is tolerated (it is
        halved by the next recursion step), keeping the overall depth
        logarithmic.
        """
        if len(subtree) == 1:
            return next(iter(subtree)), []
        size = len(subtree)
        degree = self._degree(subtree)
        best: Optional[Tuple[int, List[Subtree]]] = None
        best_worst = None
        for node in sorted(subtree):
            components = subtree_components(self.decomposition.tree, subtree,
                                            node)
            if any(self._degree(part) > 2 for part in components):
                continue
            large = [part for part in components if len(part) > size / 2]
            if degree == 2:
                if len(large) > 1:
                    continue
                if large and (self._degree(large[0]) > 1
                              or len(large[0]) >= size - 1):
                    continue
            elif large:
                continue
            worst = max(len(part) for part in components)
            if best_worst is None or worst < best_worst:
                best, best_worst = (node, components), worst
        if best is None:
            raise AssertionError(
                "Lemma 10 split not found - decomposition degree invariant "
                "violated")
        return best

    # -- boundary, atoms and predicates ----------------------------------------

    def _boundary_vars(self, subtree: Subtree) -> Tuple[Variable, ...]:
        """``dD``: the variables shared between boundary bags of ``D`` and
        their outside neighbours."""
        if subtree not in self.boundaries:
            tree = self.decomposition.tree
            bags = self.decomposition.bags
            shared: Set[Variable] = set()
            for node in subtree:
                for neigh in tree[node]:
                    if neigh not in subtree:
                        shared |= bags[node] & bags[neigh]
            self.boundaries[subtree] = tuple(sorted(shared))
        return self.boundaries[subtree]

    def _predicate(self, subtree: Subtree, boundary_type: Type) -> Literal:
        """``G^w_D`` over ``dD`` and the answer variables of ``q_D`` (the
        atoms contained in some bag of ``D``)."""
        key = (subtree, type_key(boundary_type))
        if key not in self.names:
            self.names[key] = f"D{len(self.names)}"
        if subtree not in self.arguments:
            boundary = self._boundary_vars(subtree)
            occurring = {var for node in subtree
                         for atom in self.bag_atoms[node]
                         for var in atom.args}
            self.arguments[subtree] = boundary + tuple(
                v for v in self.query.answer_vars
                if v in occurring and v not in boundary)
        return Literal(self.names[key], self.arguments[subtree])

    # -- recursive construction ------------------------------------------------

    def build(self) -> NDLQuery:
        root: Subtree = frozenset(self.decomposition.tree)
        if self._construct(root, {}):
            goal_literal = self._predicate(root, {})
        else:
            # unsatisfiable rewriting: goal predicate with no defining clause
            goal_literal = Literal("D_empty", tuple(self.query.answer_vars))
        program = Program(self.clauses)
        return NDLQuery(program, goal_literal.predicate,
                        tuple(self.query.answer_vars))

    def _construct(self, subtree: Subtree, boundary_type: Type) -> bool:
        """Emit the clauses for ``G^w_D``; returns False when the
        predicate is unproductive (no definition — a "dead end")."""
        key = (subtree, type_key(boundary_type))
        if key in self.memo:
            return self.memo[key]
        self.memo[key] = False  # guards against re-entry; overwritten below
        if subtree not in self.splits:
            self.splits[subtree] = self._split(subtree)
        split, components = self.splits[subtree]
        productive = False
        for bag_type, bag_body in self._bag_types(split, boundary_type):
            merged = {**boundary_type, **bag_type}
            body: List[object] = list(bag_body)
            for part in components:
                child_type = {var: merged[var]
                              for var in self._boundary_vars(part)}
                if not self._construct(part, child_type):
                    break
                body.append(self._predicate(part, child_type))
            else:
                productive = True
                self.clauses.append(Clause(
                    self._predicate(subtree, boundary_type), tuple(body)))
        self.memo[key] = productive
        return productive

    def _bag_types(self, split: int, boundary_type: Type
                   ) -> List[Tuple[Type, List[object]]]:
        """Types ``s`` on the splitting bag compatible with the bag's
        atoms and agreeing with the boundary type ``w`` on the common
        domain, each with its ``At^s`` body atoms.

        Memoised per ``(split, w restricted to the bag)``, and that key
        is exact: a bag variable outside ``dom(w)`` ranges over its
        candidate words whatever ``w`` is, a bag variable inside it is
        fixed to its word in ``w``, and the bag's atoms mention no other
        variable, so ``w`` beyond the bag changes neither the types nor
        their ``At`` atoms.
        """
        bag = tuple(sorted(self.decomposition.bags[split]))
        key = (split, tuple((var, boundary_type[var]) for var in bag
                            if var in boundary_type))
        if key not in self.bag_types:
            atoms = self.bag_atoms[split]
            self.bag_types[key] = [
                (bag_type, at_atoms(self.tbox, atoms, bag_type))
                for bag_type in self.space.types(bag, atoms, boundary_type)]
        return self.bag_types[key]
