"""The Lin rewriter (Section 3.3): linear NDL-rewritings for
``OMQ(d, 1, l)`` — bounded-depth ontologies with bounded-leaf
tree-shaped CQs — evaluable in NL (Theorem 12).

The tree-shaped CQ is rooted and cut into *slices* ``z^0, ..., z^M`` by
distance from the root; one predicate ``G^w_n`` per slice ``n`` and
type ``w`` threads the slices in a linear chain.  Only *productive*
types (those that can be extended to a full match, cf. the "dead ends"
discussion of Appendix A.6.3) get predicates, keeping the program at
most ``|q| * |T|^(2 d l)`` large.

One call decides each binary condition once (in one
:class:`~.types.TypeSpace`) and each step from slice ``n`` once per
type of its parent variables; the backward pass records the successors
it finds for the forward pass and the emission to read.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..datalog.program import Clause, Literal, NDLQuery, Program
from ..datalog.transform import linear_star_transform
from ..ontology.depth import chase_depth
from ..queries.cq import CQ, Atom, Variable
from .types import Type, TypeSpace, at_atoms, type_key


def lin_rewrite(tbox, query: CQ, root: Optional[Variable] = None,
                over: str = "complete") -> NDLQuery:
    """The linear NDL-rewriting of ``(T, q)`` of Theorem 12.

    Parameters
    ----------
    root:
        the variable to root the tree at (defaults to an answer variable
        when one exists).
    over:
        ``"complete"`` for a rewriting over complete data instances,
        ``"arbitrary"`` to compose with the Lemma 3 transformation.
    """
    if not query.is_tree_shaped:
        raise ValueError("the Lin rewriter needs a tree-shaped CQ")
    if not query.is_connected:
        raise ValueError("the Lin rewriter needs a connected CQ")
    depth = chase_depth(tbox)
    if depth is math.inf:
        raise ValueError(
            "the Lin rewriter needs an ontology of finite depth")
    if root is None:
        root = (query.answer_vars[0] if query.answer_vars
                else min(query.variables))

    slices = _slices(query, root)
    space = TypeSpace(tbox, query, int(depth))

    # answer variables occurring in q_n (the atoms at distance >= n)
    answer_per_slice = _answer_vars_per_slice(query, slices)

    # slices of a rooted tree have no internal edges, so a slice's types
    # are the product of its variables' candidate words
    local_types: List[List[Type]] = [space.types(slice_vars)
                                     for slice_vars in slices]

    last = len(slices) - 1
    # backward pass: keep types that can be extended down to slice M;
    # successors[n][i]: the kept types of slice n + 1 that type i steps
    # to, found once per type of the parents (ends of crossing atoms)
    productive: List[List[int]] = [[] for _ in slices]
    productive[last] = list(range(len(local_types[last])))
    successors: List[Dict[int, List[int]]] = [{} for _ in slices]
    for n in range(last - 1, -1, -1):
        crossing = _crossing(query, slices[n], slices[n + 1])
        parents = sorted({upper for _, upper, _, _ in crossing})
        decided: Dict[Tuple, List[int]] = {}
        for i, current in enumerate(local_types[n]):
            key = tuple(current[var] for var in parents)
            if key not in decided:
                decided[key] = [
                    j for j in productive[n + 1]
                    if _step_ok(space, crossing, current,
                                local_types[n + 1][j])]
            if decided[key]:
                successors[n][i] = decided[key]
                productive[n].append(i)
    # forward pass: keep types reachable from slice 0 (prunes the
    # "dead ends" of Appendix A.6.3 in the other direction)
    for n in range(1, last + 1):
        reachable = {j for i in productive[n - 1]
                     for j in successors[n - 1][i]}
        productive[n] = [j for j in productive[n] if j in reachable]

    clauses: List[Clause] = []
    names: Dict[Tuple[int, Tuple], str] = {}

    def predicate(n: int, assignment: Type) -> Literal:
        key = (n, type_key(assignment))
        if key not in names:
            names[key] = f"G{n}_{len(names)}"
        existential = tuple(sorted(set(slices[n]) - set(query.answer_vars)))
        return Literal(names[key], existential + answer_per_slice[n])

    for n in range(last):
        crossing_atoms = _atoms_touching(query, slices[n], slices[n + 1])
        kept = set(productive[n + 1])
        for i in productive[n]:
            current = local_types[n][i]
            for j in successors[n][i]:
                if j not in kept:
                    continue
                succ = local_types[n + 1][j]
                body = at_atoms(tbox, crossing_atoms, {**current, **succ})
                body.append(predicate(n + 1, succ))
                clauses.append(Clause(predicate(n, current), tuple(body)))
    final_atoms = _atoms_touching(query, slices[last], slices[last])
    for j in productive[last]:
        assignment = local_types[last][j]
        body = at_atoms(tbox, final_atoms, assignment)
        clauses.append(Clause(predicate(last, assignment), tuple(body)))

    goal = Literal("G", tuple(query.answer_vars))
    for i in productive[0]:
        clauses.append(Clause(goal, (predicate(0, local_types[0][i]),)))

    result = NDLQuery(Program(clauses), "G", tuple(query.answer_vars))
    if over == "arbitrary":
        result = linear_star_transform(result, tbox)
    return result


def _slices(query: CQ, root: Variable) -> List[Tuple[Variable, ...]]:
    """``z^0, ..., z^M``: variables grouped by distance from the root."""
    distances = query.distances_from(root)
    if set(distances) != query.variables:
        raise ValueError("query must be connected to be sliced")
    deepest = max(distances.values())
    return [tuple(sorted(v for v, d in distances.items() if d == n))
            for n in range(deepest + 1)]


def _answer_vars_per_slice(query: CQ, slices) -> List[Tuple[Variable, ...]]:
    """``x^n``: the answer variables occurring in ``q_n``, which consists
    of the atoms whose variables all sit at distance >= n."""
    result = []
    for n in range(len(slices)):
        allowed = {var for far in slices[n:] for var in far}
        occurring = {var for atom in query.atoms
                     if set(atom.args) <= allowed for var in atom.args}
        result.append(tuple(v for v in query.answer_vars if v in occurring))
    return result


def _crossing(query: CQ, upper_slice, lower_slice) -> List[Tuple]:
    """The binary atoms between ``z^n`` and ``z^{n+1}``, each as
    ``(atom, its end in z^n, its end in z^{n+1}, whether P(z^n, z^{n+1}))``."""
    upper, lower = set(upper_slice), set(lower_slice)
    crossing = []
    for atom in query.binary_atoms():
        first, second = atom.args
        if first in upper and second in lower:
            crossing.append((atom, first, second, True))
        elif second in upper and first in lower:
            crossing.append((atom, second, first, False))
    return crossing


def _step_ok(space: TypeSpace, crossing, current: Type, succ: Type) -> bool:
    """Compatibility of ``(w, s)`` with ``(z^n, z^{n+1})``: the crossing
    binary atoms must satisfy the three-way condition."""
    for atom, upper, lower, downward in crossing:
        words = ((current[upper], succ[lower]) if downward
                 else (succ[lower], current[upper]))
        if not space.compatible(atom, *words):
            return False
    return True


def _atoms_touching(query: CQ, slice_vars, next_vars) -> List[Atom]:
    """Atoms with a variable in ``slice_vars`` and all variables within
    the two slices — the scope of ``At^{w u s}`` for one chain step."""
    scope = set(slice_vars) | set(next_vars)
    touch = set(slice_vars)
    return [atom for atom in query.atoms
            if set(atom.args) <= scope and set(atom.args) & touch]
