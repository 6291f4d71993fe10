"""The Log rewriter (Section 3.2): NDL-rewritings for ``OMQ(d, t, inf)``
— bounded-depth ontologies with bounded-treewidth CQs — evaluable in
LOGCFL (Theorem 9).

A tree decomposition of the CQ is split recursively at the nodes
provided by Lemma 10, halving subtree sizes; each subtree ``D`` and
boundary type ``w`` yields a predicate ``G^w_D`` defined from the types
``s`` of the splitting bag compatible with ``w``.  The resulting query
has width <= 3(t+1) and logarithmic skinny depth, so it falls in the
LOGCFL fragment of Section 3.1.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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
from .types import (
    Type,
    at_atoms,
    candidate_words,
    enumerate_words,
    type_compatible_with_atoms,
    type_key,
)

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
        self.words = enumerate_words(tbox, depth)
        self.candidates: Dict[Variable, List] = {
            var: candidate_words(tbox, query, var, self.words)
            for var in query.variables}
        self.clauses: List[Clause] = []
        self.names: Dict[Tuple, str] = {}
        self.memo: Dict[Tuple, bool] = {}

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

    # -- boundary and atoms --------------------------------------------------

    def _boundary_vars(self, subtree: Subtree) -> Tuple[Variable, ...]:
        """``dD``: the variables shared between boundary bags of ``D`` and
        their outside neighbours."""
        tree = self.decomposition.tree
        bags = self.decomposition.bags
        shared: Set[Variable] = set()
        for node in subtree:
            for neigh in tree[node]:
                if neigh not in subtree:
                    shared |= bags[node] & bags[neigh]
        return tuple(sorted(shared))

    def _atoms_of(self, subtree: Subtree) -> List[Atom]:
        """``q_D``: the atoms contained in some bag of ``D``."""
        bags = [self.decomposition.bags[node] for node in subtree]
        return [atom for atom in self.query.atoms
                if any(set(atom.args) <= bag for bag in bags)]

    def _answer_vars_of(self, subtree: Subtree) -> Tuple[Variable, ...]:
        occurring = {var for atom in self._atoms_of(subtree)
                     for var in atom.args}
        return tuple(v for v in self.query.answer_vars if v in occurring)

    def _bag_atoms(self, node: int) -> List[Atom]:
        bag = self.decomposition.bags[node]
        return [atom for atom in self.query.atoms
                if set(atom.args) <= bag]

    # -- predicates -----------------------------------------------------------

    def _predicate(self, subtree: Subtree, boundary_type: Type) -> Literal:
        key = (subtree, type_key(boundary_type))
        if key not in self.names:
            self.names[key] = f"D{len(self.names)}"
        boundary = self._boundary_vars(subtree)
        answers = self._answer_vars_of(subtree)
        args = boundary + tuple(v for v in answers if v not in boundary)
        return Literal(self.names[key], args)

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
        split, components = self._split(subtree)
        bag = tuple(sorted(self.decomposition.bags[split]))
        bag_atoms = self._bag_atoms(split)
        productive = False
        for bag_type in self._bag_types(bag, boundary_type, bag_atoms):
            merged = dict(boundary_type)
            merged.update(bag_type)
            body: List[object] = list(at_atoms(self.tbox, bag_atoms,
                                               bag_type))
            children_ok = True
            for part in components:
                child_boundary = self._boundary_vars(part)
                child_type = {var: merged[var] for var in child_boundary}
                if not self._construct(part, child_type):
                    children_ok = False
                    break
                body.append(self._predicate(part, child_type))
            if not children_ok:
                continue
            productive = True
            self.clauses.append(
                Clause(self._predicate(subtree, boundary_type), tuple(body)))
        self.memo[key] = productive
        return productive

    def _bag_types(self, bag: Sequence[Variable], boundary_type: Type,
                   bag_atoms: List[Atom]):
        """Types ``s`` on the splitting bag compatible with the bag and
        agreeing with the boundary type ``w`` on the common domain."""
        assignments: List[Type] = [{}]
        for var in bag:
            if var in boundary_type:
                options = [boundary_type[var]]
            else:
                options = self.candidates[var]
            assignments = [dict(assignment, **{var: word})
                           for assignment in assignments
                           for word in options]
        for assignment in assignments:
            if type_compatible_with_atoms(self.tbox, bag_atoms, assignment):
                yield assignment
