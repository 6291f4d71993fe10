"""Backtracking homomorphism search from CQs into canonical models.

``T, A |= q(a)`` iff there is a homomorphism ``h : q -> C_{T,A}`` with
``h(x) = a`` (Section 2), so this module is the semantic reference point
for every rewriting in the library.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..ontology.terms import Role
from ..queries.cq import CQ, Atom, Variable
from .canonical import CanonicalModel, Element


def _variable_order(query: CQ,
                    preassigned: Sequence[Variable]) -> List[Variable]:
    """Order variables so each (after the first of its component) is
    adjacent to an already-placed variable — keeps the search guided."""
    graph = query.gaifman()
    order: List[Variable] = [v for v in preassigned if v in query.variables]
    placed = set(order)
    frontier: List[Variable] = list(order)
    while len(placed) < len(query.variables):
        index = 0
        while index < len(frontier):
            for neighbour in sorted(graph[frontier[index]]):
                if neighbour not in placed:
                    placed.add(neighbour)
                    order.append(neighbour)
                    frontier.append(neighbour)
            index += 1
        if len(placed) < len(query.variables):
            # start a fresh connected component
            fresh = min(query.variables - placed)
            placed.add(fresh)
            order.append(fresh)
            frontier = [fresh]
    return order


class SearchPlan:
    """The backtracking search for one ``(query, fixed variables)``
    pair: the variable order and, per position, the atoms that become
    fully assigned there and the *guiding* atom whose already-assigned
    end supplies the candidates.  Built once, run against any number
    of models and fixed images."""

    def __init__(self, query: CQ, preassigned: Sequence[Variable] = ()):
        order = _variable_order(query, preassigned)
        position = {var: i for i, var in enumerate(order)}
        checks: List[List[Atom]] = [[] for _ in order]
        for atom in query.atoms:
            checks[max(position[arg] for arg in atom.args)].append(atom)
        binary = query.binary_atoms()
        self.steps = []
        for index, var in enumerate(order):
            guide = None
            for atom in binary:
                first, second = atom.args
                if first != second and var in atom.args:
                    source = second if first == var else first
                    if position[source] < index:
                        # candidates u with predicate(h(source), u), through
                        # the inverse when ``var`` is the first argument
                        guide = (Role(atom.predicate, first == var), source)
                        break
            self.steps.append((var, guide, checks[index]))

    def run(self, model: CanonicalModel, fixed: Dict[Variable, Element]
            ) -> Iterator[Dict[Variable, Element]]:
        """All homomorphisms into ``model`` extending ``fixed``; a
        variable that is neither fixed nor guided ranges over the whole
        (bounded) domain."""
        steps = self.steps
        assignment: Dict[Variable, Element] = {}

        def extend(position: int) -> Iterator[Dict[Variable, Element]]:
            if position == len(steps):
                yield dict(assignment)
                return
            var, guide, checks = steps[position]
            if var in fixed:
                candidates: Iterable[Element] = (fixed[var],)
            elif guide is None:
                candidates = model.elements()
            else:
                candidates = model.role_neighbours(guide[0],
                                                   assignment[guide[1]])
            for candidate in candidates:
                assignment[var] = candidate
                if all(_satisfied(model, atom, assignment)
                       for atom in checks):
                    yield from extend(position + 1)
                del assignment[var]

        return extend(0)


def _satisfied(model: CanonicalModel, atom: Atom,
               assignment: Dict[Variable, Element]) -> bool:
    if atom.is_unary:
        return model.satisfies_concept(atom.predicate,
                                       assignment[atom.args[0]])
    return model.satisfies_role(atom.predicate, assignment[atom.args[0]],
                                assignment[atom.args[1]])


def find_homomorphism(
        model: CanonicalModel, query: CQ,
        fixed: Optional[Dict[Variable, Element]] = None
) -> Optional[Dict[Variable, Element]]:
    """A homomorphism ``q -> C_{T,A}`` extending ``fixed``, or ``None``."""
    return next(homomorphisms(model, query, fixed), None)


def homomorphisms(
        model: CanonicalModel, query: CQ,
        fixed: Optional[Dict[Variable, Element]] = None
) -> Iterator[Dict[Variable, Element]]:
    """All homomorphisms ``q -> C_{T,A}`` extending ``fixed``."""
    fixed = dict(fixed or {})
    return SearchPlan(query, list(fixed)).run(model, fixed)
