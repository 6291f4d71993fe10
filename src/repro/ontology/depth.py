"""Generating words ``W_T`` and the existential depth of an ontology.

The canonical model of ``(T, A)`` (Section 2) is built from labelled
nulls ``a . rho_1 ... rho_n`` whose tails ``rho_1 ... rho_n`` range over
the set ``W_T`` of words satisfying

* ``T |/= rho_i(x, x)`` for every ``i``, and
* ``T |= Exists(rho_i-) <= Exists(rho_{i+1})`` but
  ``T |/= rho_i <= rho_{i+1}-`` for every ``i < n``.

The *depth* of ``T`` is 0 when no user axiom has an existential on the
right-hand side, the maximal length of a word in ``W_T`` when that set
is finite, and infinity otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterator, List, Mapping, Tuple

from .axioms import ConceptInclusion
from .terms import Atomic, Concept, Exists, Role

#: A word of ``W_T`` — a tuple of roles (the empty tuple is ``epsilon``).
Word = Tuple[Role, ...]

EPSILON: Word = ()


@dataclass(frozen=True)
class WitnessTable:
    """The anonymous part of every canonical model of one ``TBox``,
    indexed by letter and derived once from the saturation.

    A null ``a . w . rho`` is determined up to isomorphism by its last
    letter: it satisfies the atomic concepts ``names[rho]``, its edge to
    the parent carries the roles ``supers[rho]`` and its children are
    ``successors[rho]``; ``initial[tau]`` are the first letters forced
    at an element satisfying ``tau``.  Roles are kept in sorted order.
    """

    roles: Tuple[Role, ...]
    letters: Tuple[Role, ...]
    initial: Mapping[Concept, Tuple[Role, ...]]
    successors: Mapping[Role, Tuple[Role, ...]]
    names: Mapping[Role, FrozenSet[str]]
    supers: Mapping[Role, FrozenSet[Role]]
    depth: object  # int or math.inf: the longest word of W_T

    @classmethod
    def build(cls, tbox) -> "WitnessTable":
        saturation = tbox.saturation
        roles = tuple(sorted(tbox.roles))
        letters = tuple(role for role in roles
                        if not saturation.is_reflexive(role))
        forced = [(Exists(letter), letter) for letter in letters]
        initial = {}
        for concept in saturation.concepts:
            supers = saturation.concept_supers(concept)
            initial[concept] = tuple(letter for concept_of, letter in forced
                                     if concept_of in supers)
        successors = {letter: _successors(saturation, initial, letter)
                      for letter in letters}
        names = {letter: frozenset(
            concept.name
            for concept in saturation.concept_supers(Exists(letter.inverse()))
            if isinstance(concept, Atomic)) for letter in letters}
        supers = {letter: saturation.role_supers(letter) for letter in letters}
        return cls(roles, letters, MappingProxyType(initial),
                   MappingProxyType(successors), MappingProxyType(names),
                   MappingProxyType(supers), _longest_word(successors))


def _successors(saturation, initial, letter: Role) -> Tuple[Role, ...]:
    """Letters ``sigma`` with ``T |= Exists(letter-) <= Exists(sigma)``
    but ``T |/= letter <= sigma-`` (the parent is no witness)."""
    supers = saturation.role_supers(letter)
    return tuple(candidate
                 for candidate in initial[Exists(letter.inverse())]
                 if candidate.inverse() not in supers)


def _longest_word(successors):
    order, on_cycle = _topological_order(successors)
    if on_cycle:
        return math.inf
    longest: Dict[Role, int] = {}
    for role in reversed(order):
        longest[role] = 1 + max(
            (longest[succ] for succ in successors[role]), default=0)
    return max(longest.values(), default=0)


def successor_roles(tbox, role: Role) -> Tuple[Role, ...]:
    """Letters that may follow ``role`` inside a word of ``W_T``."""
    return tbox.witnesses.successors.get(role, ())


def initial_roles(tbox, concept: Concept) -> Tuple[Role, ...]:
    """Roles ``rho`` with ``T |= concept <= Exists(rho)`` usable as a
    first letter (``rho`` not entailed reflexive)."""
    return tbox.witnesses.initial.get(concept, ())


def successor_graph(tbox) -> Mapping[Role, Tuple[Role, ...]]:
    """The one-step successor relation on letters of ``W_T``."""
    return tbox.witnesses.successors


def _has_existential_rhs(tbox) -> bool:
    for axiom in tbox.user_axioms:
        if isinstance(axiom, ConceptInclusion) and isinstance(
                axiom.rhs, Exists):
            return True
    return False


def chase_depth(tbox):
    """The longest generating word in ``W_T`` (an ``int`` or ``math.inf``).

    Unlike :func:`ontology_depth`, this has no special case for depth-0
    ontologies: normalisation axioms ``A_rho <= Exists(rho)`` introduce
    words of length 1, which the canonical model must contain.
    """
    return tbox.witnesses.depth


def letter_count(tbox) -> int:
    """The number of letters available to ``W_T`` words."""
    return len(tbox.witnesses.letters)


def ontology_depth(tbox):
    """The existential depth of ``tbox`` (an ``int`` or ``math.inf``).

    Computed as the longest path in the letter-successor graph; any cycle
    makes ``W_T`` infinite.  Per the paper's convention, an ontology whose
    user axioms have no existential right-hand sides has depth 0 even
    though normalisation may introduce words of length 1.
    """
    if not _has_existential_rhs(tbox):
        return 0
    return chase_depth(tbox)


def _topological_order(graph: Mapping[Role, Tuple[Role, ...]]):
    """Topological order of ``graph``; also reports whether it has a cycle."""
    state: Dict[Role, int] = {}
    order: List[Role] = []
    has_cycle = False

    def visit(node: Role) -> None:
        nonlocal has_cycle
        stack = [(node, iter(graph.get(node, ())))]
        state[node] = 1
        while stack:
            current, successors = stack[-1]
            advanced = False
            for succ in successors:
                mark = state.get(succ, 0)
                if mark == 1:
                    has_cycle = True
                elif mark == 0:
                    state[succ] = 1
                    stack.append((succ, iter(graph.get(succ, ()))))
                    advanced = True
                    break
            if not advanced:
                state[current] = 2
                order.append(current)
                stack.pop()

    for node in graph:
        if state.get(node, 0) == 0:
            visit(node)
    order.reverse()
    return order, has_cycle


def words(tbox, max_length) -> Iterator[Word]:
    """Enumerate the words of ``W_T`` of length at most ``max_length``,
    including the empty word ``epsilon``."""
    yield EPSILON
    if max_length <= 0:
        return
    graph = successor_graph(tbox)
    stack: List[Word] = [(role,) for role in graph]
    while stack:
        word = stack.pop()
        yield word
        if len(word) < max_length:
            for succ in graph[word[-1]]:
                stack.append(word + (succ,))


def word_str(word: Word) -> str:
    """Human-readable form of a word (``'eps'`` for the empty word)."""
    if not word:
        return "eps"
    return ".".join(str(role) for role in word)
