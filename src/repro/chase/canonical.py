"""The canonical model (chase) ``C_{T,A}`` of Section 2.

Elements are the individuals of ``A`` plus labelled nulls
``a . rho_1 ... rho_n`` where ``rho_1 ... rho_n`` ranges over the
generating words ``W_T`` whose first letter is forced at ``a``
(``T, A |= Exists(rho_1)(a)``).  Since ``W_T`` may be infinite, the
model is explored lazily up to a *depth bound*; for answering a CQ
``q`` a bound of ``|var(q)|`` suffices, because a homomorphic image of
a connected component of ``q`` inside a tree of nulls spans at most
``|var(q)|`` consecutive levels.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union

from ..data.abox import ABox, Constant, individual_concepts
from ..ontology.depth import Word
from ..ontology.terms import Atomic, Exists, Role

#: An element of the canonical model: an individual with a (possibly
#: empty) word of roles attached.  Individuals are ``(a, ())``.
Element = Tuple[Constant, Word]


def individual(constant: Constant) -> Element:
    return (constant, ())


def element_str(element: Element) -> str:
    constant, word = element
    if not word:
        return constant
    return constant + "." + ".".join(str(role) for role in word)


class CanonicalModel:
    """A lazily explored canonical model ``C_{T,A}``.

    Parameters
    ----------
    tbox, abox:
        the knowledge base.
    max_depth:
        longest word of nulls to explore.  ``None`` uses the ontology
        depth when finite and must be supplied otherwise (callers use
        ``|var(q)|``).
    """

    def __init__(self, tbox, abox: ABox, max_depth: Optional[int] = None):
        self.tbox = tbox
        self.abox = abox
        self.witnesses = tbox.witnesses
        if max_depth is None:
            depth = self.witnesses.depth
            if depth is math.inf:
                raise ValueError(
                    "an explicit max_depth is required for infinite-depth "
                    "ontologies")
            max_depth = int(depth)
        self.max_depth = max_depth
        self._entailed_concepts = individual_concepts(tbox, abox)
        self._root_letters: Dict[Constant, Tuple[Role, ...]] = {}

    # -- individual-level entailments ------------------------------------

    # -- elements ----------------------------------------------------------

    @property
    def individuals(self) -> FrozenSet[Constant]:
        return self.abox.individuals

    def is_individual(self, element: Element) -> bool:
        return not element[1]

    def children(self, element: Element) -> List[Element]:
        """The witnesses ``element . rho`` present in the model."""
        constant, word = element
        if len(word) >= self.max_depth:
            return []
        if word:
            letters = self.witnesses.successors[word[-1]]
        else:
            letters = self._root_letters.get(constant)
            if letters is None:
                concepts = self._entailed_concepts.get(constant, ())
                letters = self._root_letters[constant] = tuple(
                    letter for letter in self.witnesses.letters
                    if Exists(letter) in concepts)
        return [(constant, word + (letter,)) for letter in letters]

    def parent(self, element: Element) -> Optional[Element]:
        constant, word = element
        if not word:
            return None
        return (constant, word[:-1])

    def elements(self) -> Iterator[Element]:
        """All elements up to the depth bound (individuals first)."""
        stack: List[Element] = []
        for constant in sorted(self.abox.individuals):
            root = individual(constant)
            yield root
            stack.extend(self.children(root))
        while stack:
            element = stack.pop()
            yield element
            stack.extend(self.children(element))

    def size(self) -> int:
        return sum(1 for _ in self.elements())

    # -- satisfaction --------------------------------------------------------

    def satisfies_concept(self, name: str, element: Element) -> bool:
        """``C_{T,A} |= name(element)``."""
        constant, word = element
        if not word:
            return Atomic(name) in self._entailed_concepts.get(constant, ())
        return name in self.witnesses.names[word[-1]]

    def satisfies_role(self, predicate: str, first: Element,
                       second: Element) -> bool:
        """``C_{T,A} |= predicate(first, second)``."""
        role = Role(predicate)
        if self.is_individual(first) and self.is_individual(second):
            if self._data_role_holds(role, first[0], second[0]):
                return True
        if first == second and self.tbox.is_reflexive(role):
            return True
        # child edge: second = first . sigma
        if (second[0] == first[0] and len(second[1]) == len(first[1]) + 1
                and second[1][:-1] == first[1]):
            return role in self.witnesses.supers[second[1][-1]]
        # parent edge: first = second . sigma
        if (first[0] == second[0] and len(first[1]) == len(second[1]) + 1
                and first[1][:-1] == second[1]):
            return role.inverse() in self.witnesses.supers[first[1][-1]]
        return False

    def _data_role_holds(self, role: Role, first: Constant,
                         second: Constant) -> bool:
        for sub in self.tbox.role_subs(role):
            if self.abox.has_role(sub, first, second):
                return True
        # data predicates outside the ontology signature
        return self.abox.has_role(role, first, second)

    def role_neighbours(self, predicate: Union[str, Role],
                        element: Element) -> Iterator[Element]:
        """All ``v`` with ``C_{T,A} |= predicate(element, v)``; a
        :class:`Role` may be passed to follow an inverse."""
        role = predicate if isinstance(predicate, Role) else Role(predicate)
        tbox, supers = self.tbox, self.witnesses.supers
        seen: Set[Element] = set()
        if self.is_individual(element):
            constant = element[0]
            for sub in tbox.role_subs(role):
                for first, second in self.abox.role_pairs(sub):
                    if first == constant:
                        candidate = individual(second)
                        if candidate not in seen:
                            seen.add(candidate)
                            yield candidate
            if role not in tbox.roles:
                for first, second in self.abox.role_pairs(role):
                    if first == constant:
                        candidate = individual(second)
                        if candidate not in seen:
                            seen.add(candidate)
                            yield candidate
        if tbox.is_reflexive(role) and element not in seen:
            seen.add(element)
            yield element
        for child in self.children(element):
            if role in supers[child[1][-1]] and child not in seen:
                seen.add(child)
                yield child
        parent = self.parent(element)
        if parent is not None and parent not in seen:
            if role.inverse() in supers[element[1][-1]]:
                yield parent

    def __repr__(self) -> str:
        return (f"CanonicalModel({len(self.abox.individuals)} individuals, "
                f"max_depth={self.max_depth})")
