"""Types (partial maps from variables to generating words) and their
compatibility conditions, shared by the Log (Section 3.2) and Lin
(Section 3.3) rewriters.

A type ``w`` records how variables are mapped into the canonical model:
``w(z) = eps`` means ``z`` goes to an individual constant, and
``w(z) = word`` that it goes to a labelled null ``a . word``.  The
``At`` atoms (a)-(c) of Section 3.2 translate a type into NDL body
atoms over the data.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..datalog.program import Equality, Literal
from ..ontology.depth import EPSILON, Word, successor_graph
from ..ontology.terms import Atomic, Exists
from ..queries.cq import CQ, Atom, Variable

#: A type: a mapping from (some) variables to words of ``W_T``.
Type = Dict[Variable, Word]


def enumerate_words(tbox, max_length: int) -> List[Word]:
    """All words of ``W_T`` of length at most ``max_length`` plus ``eps``."""
    words: List[Word] = [EPSILON]
    graph = successor_graph(tbox)
    stack: List[Word] = [(role,) for role in graph]
    while stack:
        word = stack.pop()
        words.append(word)
        if len(word) < max_length:
            stack.extend(word + (succ,) for succ in graph[word[-1]])
    return words


def candidate_words(tbox, query: CQ, var: Variable,
                    words: Sequence[Word]) -> List[Word]:
    """The words usable as ``w(var)``: the *local* compatibility
    conditions of Sections 3.2-3.3 that mention only ``var``."""
    if var in query.answer_vars:
        return [EPSILON]
    result: List[Word] = []
    for word in words:
        if word:
            last = word[-1]
            if not all(tbox.entails_concept(Exists(last.inverse()),
                                            Atomic(atom.predicate))
                       for atom in query.unary_atoms(var)):
                continue
            if any(not tbox.is_reflexive(_as_role(tbox, atom.predicate))
                   for atom in query.loop_atoms(var)):
                continue
        result.append(word)
    return result


def _as_role(tbox, predicate: str):
    from ..ontology.terms import Role

    return Role(predicate)


def pair_compatible(tbox, atom: Atom, first_word: Word,
                    second_word: Word) -> bool:
    """Condition for a binary atom ``P(y, z)`` given ``w(y)`` and ``w(z)``
    (the three-way disjunction of Sections 3.2-3.3):

    (i) both ``eps``; (ii) equal words with ``T |= P(x, x)``;
    (iii) one word extends the other by a letter entailing ``P`` in the
    appropriate direction.
    """
    from ..ontology.terms import Role

    role = Role(atom.predicate)
    if first_word == EPSILON and second_word == EPSILON:
        return True
    if first_word == second_word and tbox.is_reflexive(role):
        return True
    if (len(second_word) == len(first_word) + 1
            and second_word[:-1] == first_word):
        # h(z) = h(y) . rho with T |= rho <= P
        return tbox.entails_role(second_word[-1], role)
    if (len(first_word) == len(second_word) + 1
            and first_word[:-1] == second_word):
        # h(y) = h(z) . rho- with T |= rho <= P, i.e. last letter <= P-
        return tbox.entails_role(first_word[-1], role.inverse())
    return False


def type_compatible_with_atoms(tbox, atoms: Iterable[Atom],
                               assignment: Type) -> bool:
    """Joint (binary-atom) compatibility of a type over a set of atoms
    whose variables all lie in ``dom(assignment)``."""
    for atom in atoms:
        if atom.is_binary:
            first, second = atom.args
            if not pair_compatible(tbox, atom, assignment[first],
                                   assignment[second]):
                return False
    return True


def at_atoms(tbox, atoms: Iterable[Atom], assignment: Type) -> List[object]:
    """The conjunction ``At^w`` of Section 3.2 for the given query atoms.

    (a) data atoms for all-``eps`` atoms, (b) equalities gluing the
    anchors of binary atoms with a non-``eps`` end, (c) surrogate atoms
    ``A_rho(z)`` asserting the existence of the witness ``z . rho ...``.
    """
    from ..ontology.tbox import surrogate_name

    body: List[object] = []
    for atom in atoms:
        if atom.is_unary:
            var = atom.args[0]
            if assignment[var] == EPSILON:
                body.append(Literal(atom.predicate, (var,)))
        else:
            first, second = atom.args
            if (assignment[first] == EPSILON
                    and assignment[second] == EPSILON):
                body.append(Literal(atom.predicate, (first, second)))
            elif first != second:
                body.append(Equality(first, second))
    for var in sorted(assignment):
        word = assignment[var]
        if word != EPSILON:
            body.append(Literal(surrogate_name(word[0]), (var,)))
    return _dedupe(body)


def _dedupe(body: List[object]) -> List[object]:
    seen = []
    for atom in body:
        if atom not in seen:
            seen.append(atom)
    return seen


def type_key(assignment: Type) -> Tuple:
    """A canonical hashable key for a type (used for predicate naming)."""
    return tuple(sorted(assignment.items()))
