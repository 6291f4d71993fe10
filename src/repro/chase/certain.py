"""The certain-answer oracle: textbook OMQ semantics via the chase.

``certain_answers`` and ``is_certain_answer`` implement the left-hand
side of reduction (1) of the paper directly, and are the ground truth
against which every rewriting is validated in the test suite.

A homomorphism of a connected CQ whose image touches an individual
stays within ``|var(q)|`` levels of the data, so a chase of depth
``min(depth(W_T), |var(q)|)`` suffices for it.  A Boolean connected CQ
may instead map entirely inside the anonymous tree; its topmost image
element is then a null whose subtree is homomorphically equivalent to
the canonical model of ``{A_{rho-}(b)}`` for the null's incoming letter
``rho`` — so those matches are decided by per-letter *state checks*
over single-individual models (again of depth ``|var(q)|``), see
:class:`BooleanMatcher`.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..data.abox import ABox, Constant, individual_concepts
from ..ontology.depth import chase_depth
from ..ontology.tbox import surrogate_name
from ..ontology.terms import Exists, Role
from ..queries.cq import CQ
from .canonical import CanonicalModel, individual
from .homomorphism import SearchPlan, find_homomorphism, homomorphisms


def depth_bound(tbox, query: CQ) -> int:
    """The chase depth sufficient for matches anchored at individuals:
    ``min(depth(W_T), |var(q)|)``."""
    depth = chase_depth(tbox)
    bound = max(1, len(query.variables))
    if depth is math.inf:
        return bound
    return min(int(depth), bound)


def canonical_model_for(tbox, abox: ABox, query: CQ,
                        max_depth: Optional[int] = None) -> CanonicalModel:
    """A canonical model deep enough for anchored matches of ``query``."""
    if max_depth is None:
        max_depth = depth_bound(tbox, query)
    return CanonicalModel(tbox, abox, max_depth=max_depth)


def reachable_letters(tbox, abox: ABox) -> FrozenSet[Role]:
    """The letters that can occur in a null of ``C_{T,A}``: initial
    letters forced at some individual, closed under the successor
    relation of ``W_T``."""
    table = tbox.witnesses
    forced = set().union(*individual_concepts(tbox, abox).values())
    stack = [letter for letter in table.letters if Exists(letter) in forced]
    seen = set(stack)
    while stack:
        for succ in table.successors[stack.pop()]:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return frozenset(seen)


class BooleanMatcher:
    """``T, A |= q`` for one Boolean connected CQ over any number of
    data instances.

    The image of a match is a connected part of the forest, so some
    variable lies on its topmost element: an individual, or a null whose
    incoming letter ``rho`` alone determines its subtree (the root of
    the state model over ``{A_{rho-}(_state)}``).  Every search is
    therefore anchored there — one plan per variable, one state model
    and one verdict per letter — instead of scanning the domain.
    """

    def __init__(self, tbox, query: CQ):
        self.tbox = tbox
        self.bound = max(1, len(query.variables))
        self.plans = {var: SearchPlan(query, (var,))
                      for var in sorted(query.variables)}
        self.unary = {var: frozenset(atom.predicate
                                     for atom in query.unary_atoms(var))
                      for var in self.plans}
        self._below: Dict[Role, bool] = {}

    def _anchored(self, model: CanonicalModel, root, variables) -> bool:
        """A match into ``model`` with one of ``variables`` on ``root``."""
        return any(
            next(self.plans[var].run(model, {var: root}), None) is not None
            for var in variables)

    def below(self, letter: Role) -> bool:
        """A fully anonymous match whose topmost element is a null with
        incoming ``letter``."""
        if letter not in self._below:
            names = self.tbox.witnesses.names[letter]
            state = ABox([(surrogate_name(letter.inverse()), ("_state",))])
            self._below[letter] = self._anchored(
                CanonicalModel(self.tbox, state, max_depth=self.bound),
                individual("_state"),
                [var for var, unary in self.unary.items() if unary <= names])
        return self._below[letter]

    def holds(self, model: CanonicalModel) -> bool:
        """``T, A |= q`` for the data ``model`` is the chase of."""
        return (any(self._anchored(model, individual(constant), self.plans)
                    for constant in sorted(model.individuals))
                or any(self.below(letter) for letter in sorted(
                    reachable_letters(self.tbox, model.abox))))


def is_certain_answer(tbox, abox: ABox, query: CQ,
                      candidate: Tuple[Constant, ...],
                      max_depth: Optional[int] = None) -> bool:
    """``T, A |= q(candidate)``."""
    if len(candidate) != len(query.answer_vars):
        raise ValueError("candidate arity mismatch")
    if any(constant not in abox.individuals for constant in candidate):
        return False
    assignment = dict(zip(query.answer_vars, candidate))
    model = canonical_model_for(tbox, abox, query, max_depth)
    for component in query.connected_components():
        sub_answers = tuple(v for v in query.answer_vars if v in component)
        sub = query.restrict_to(component, sub_answers)
        if sub_answers:
            fixed = {var: individual(assignment[var])
                     for var in sub_answers}
            if find_homomorphism(model, sub, fixed) is None:
                return False
        elif not BooleanMatcher(tbox, sub).holds(model):
            return False
    return True


def certain_answers(tbox, abox: ABox, query: CQ,
                    max_depth: Optional[int] = None
                    ) -> FrozenSet[Tuple[Constant, ...]]:
    """All certain answers to ``(T, q)`` over ``A``.

    For a Boolean query the result is ``{()}`` when ``T, A |= q`` and
    the empty set otherwise.
    """
    model = canonical_model_for(tbox, abox, query, max_depth)
    per_component: List[Tuple[Tuple[str, ...], Set[Tuple[Constant, ...]]]] = []
    for component in query.connected_components():
        sub_answers = tuple(v for v in query.answer_vars if v in component)
        sub = query.restrict_to(component, sub_answers)
        if not sub_answers:
            if not BooleanMatcher(tbox, sub).holds(model):
                return frozenset()
            continue
        tuples: Set[Tuple[Constant, ...]] = set()
        for hom in homomorphisms(model, sub):
            image = tuple(hom[var] for var in sub_answers)
            if all(not word for _, word in image):
                tuples.add(tuple(constant for constant, _ in image))
        if not tuples:
            return frozenset()
        per_component.append((sub_answers, tuples))
    if not per_component:
        # fully Boolean query, all components satisfied
        return frozenset({()})
    answers: Set[Tuple[Constant, ...]] = set()
    order = {var: i for i, var in enumerate(query.answer_vars)}
    for combo in itertools.product(*(t for _, t in per_component)):
        merged: List[Optional[Constant]] = [None] * len(query.answer_vars)
        for (variables, _), values in zip(per_component, combo):
            for var, value in zip(variables, values):
                merged[order[var]] = value
        answers.add(tuple(merged))  # type: ignore[arg-type]
    return frozenset(answers)
