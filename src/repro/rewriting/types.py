"""Types (partial maps from variables to generating words) and their
compatibility conditions, shared by the Log (Section 3.2) and Lin
(Section 3.3) rewriters.

A type ``w`` records how variables are mapped into the canonical model:
``w(z) = eps`` means ``z`` goes to an individual constant, and
``w(z) = word`` that it goes to a labelled null ``a . word``.  The
``At`` atoms (a)-(c) of Section 3.2 translate a type into NDL body
atoms over the data.

A :class:`TypeSpace` holds what one rewrite asks again and again.  Each
rewrite call builds its own and drops it on return: its memos are keyed
by predicate names and words, which mean something only for the TBox it
was built from, so nothing is shared between calls, even on equal TBoxes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..datalog.program import Equality, Literal
from ..ontology.depth import EPSILON, Word, successor_graph
from ..ontology.tbox import surrogate_name
from ..ontology.terms import Atomic, Exists, Role
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


class TypeSpace:
    """The types of one rewrite of ``(T, q)``, over the words of ``W_T``
    up to ``depth``.  ``candidates[z]`` are the words usable as ``w(z)``
    (the *local* conditions of Sections 3.2-3.3, on ``z``'s unary atoms
    and loops); :meth:`compatible` decides the binary ones."""

    def __init__(self, tbox, query: CQ, depth: int):
        self.tbox = tbox
        self.words = enumerate_words(tbox, depth)
        concepts = {var: [] for var in query.variables}
        loops = {var: [] for var in query.variables}
        for atom in query.atoms:
            if atom.is_unary:
                concepts[atom.args[0]].append(Atomic(atom.predicate))
            elif atom.args[0] == atom.args[1]:
                loops[atom.args[0]].append(Role(atom.predicate))
        self.candidates: Dict[Variable, List[Word]] = {
            var: ([EPSILON] if var in query.answer_vars
                  else self._candidates(concepts[var], loops[var]))
            for var in query.variables}
        self._pairs: Dict[Tuple[str, Word, Word], bool] = {}

    def _candidates(self, concepts: List[Atomic],
                    loops: List[Role]) -> List[Word]:
        if not all(map(self.tbox.is_reflexive, loops)):
            return [EPSILON]
        # A(z) holds at a null a . w . rho iff T |= exists rho- <= A
        fits = {letter: all(self.tbox.entails_concept(
                    Exists(letter.inverse()), concept) for concept in concepts)
                for letter in {word[-1] for word in self.words if word}}
        return [word for word in self.words if not word or fits[word[-1]]]

    def compatible(self, atom: Atom, first_word: Word,
                   second_word: Word) -> bool:
        """:func:`pair_compatible`, decided once per key."""
        key = (atom.predicate, first_word, second_word)
        known = self._pairs.get(key)
        if known is None:
            known = self._pairs[key] = pair_compatible(
                self.tbox, atom, first_word, second_word)
        return known

    def types(self, variables: Sequence[Variable], atoms: Iterable[Atom] = (),
              fixed: Optional[Type] = None) -> List[Type]:
        """The types on ``variables`` that agree with ``fixed``, take
        candidate words elsewhere and satisfy the binary ``atoms`` (over
        ``variables``), in the order of the full product (first variable
        slowest).  Depth-first: an atom is checked once both ends are set.
        """
        fixed = fixed or {}
        options = [[fixed[var]] if var in fixed else self.candidates[var]
                   for var in variables]
        position = {var: index for index, var in enumerate(variables)}
        checks: List[List[Tuple[Atom, int, int]]] = [[] for _ in variables]
        for atom in atoms:
            if atom.is_binary:
                first, second = (position[var] for var in atom.args)
                checks[max(first, second)].append((atom, first, second))
        found: List[Type] = []
        words: List[Word] = [EPSILON] * len(variables)

        def extend(index: int) -> None:
            if index == len(variables):
                found.append(dict(zip(variables, words)))
                return
            for word in options[index]:
                words[index] = word
                if all(self.compatible(atom, words[first], words[second])
                       for atom, first, second in checks[index]):
                    extend(index + 1)

        extend(0)
        return found


def pair_compatible(tbox, atom: Atom, first_word: Word,
                    second_word: Word) -> bool:
    """Condition for a binary atom ``P(y, z)`` given ``w(y)`` and ``w(z)``
    (the three-way disjunction of Sections 3.2-3.3):

    (i) both ``eps``; (ii) equal words with ``T |= P(x, x)``;
    (iii) one word extends the other by a letter entailing ``P`` in the
    appropriate direction.
    """
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


def at_atoms(tbox, atoms: Iterable[Atom], assignment: Type) -> List[object]:
    """The conjunction ``At^w`` of Section 3.2 for the given query atoms.

    (a) data atoms for all-``eps`` atoms, (b) equalities gluing the
    anchors of binary atoms with a non-``eps`` end, (c) surrogate atoms
    ``A_rho(z)`` asserting the existence of the witness ``z . rho ...``.
    """
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
    return list(dict.fromkeys(body))


def type_key(assignment: Type) -> Tuple:
    """A canonical hashable key for a type (used for predicate naming)."""
    return tuple(sorted(assignment.items()))
