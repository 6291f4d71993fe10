"""Saturation-based reasoning for OWL 2 QL TBoxes.

OWL 2 QL has no conjunction on the left-hand side of (positive) axioms,
so positive entailments between basic concepts and between roles reduce
to graph reachability over the axiom-induced hierarchies:

* the *role hierarchy* is closed under inverses
  (``rho <= sigma`` entails ``rho- <= sigma-``);
* the *concept hierarchy* contains, besides the stated concept
  inclusions, the edge ``Exists(rho) <= Exists(sigma)`` for every
  entailed role inclusion ``rho <= sigma`` and ``Top <= Exists(rho)``
  for every entailed-reflexive role ``rho``.

These are exactly the entailment queries used throughout the paper:
``T |= tau -> tau'``, ``T |= rho -> rho'`` and ``T |= rho(x, x)``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set

from .axioms import (
    Axiom,
    ConceptDisjointness,
    ConceptInclusion,
    Irreflexivity,
    Reflexivity,
    RoleDisjointness,
    RoleInclusion,
)
from .terms import TOP, Atomic, Concept, Exists, Role


def _closure(adjacency: Dict) -> Dict:
    """Reflexive-transitive closure of an adjacency dict (BFS per node)."""
    closed = {}
    for start in adjacency:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for succ in adjacency.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        closed[start] = frozenset(seen)
    return closed


def _inverted(closed: Dict) -> Dict:
    """The converse of a closure: every node's set of sub-nodes."""
    subs: Dict = {}
    for sub, supers in closed.items():
        for sup in supers:
            subs.setdefault(sup, set()).add(sub)
    return {node: frozenset(below) for node, below in subs.items()}


class Saturation:
    """Precomputed entailment relations for a set of axioms.

    The universe of roles and concepts is fixed at construction time; all
    entailment queries are then dictionary lookups.
    """

    def __init__(self, axioms: Iterable[Axiom], roles: Iterable[Role],
                 atomic_names: Iterable[str]):
        self.axioms = list(axioms)
        self.roles: FrozenSet[Role] = frozenset(roles)
        self._build_role_hierarchy()
        self._build_reflexive()
        self._build_concept_hierarchy(atomic_names)
        self._build_disjointness()

    # -- role hierarchy ------------------------------------------------

    def _build_role_hierarchy(self) -> None:
        adjacency: Dict[Role, Set[Role]] = {role: set() for role in self.roles}
        for axiom in self.axioms:
            if isinstance(axiom, RoleInclusion):
                adjacency.setdefault(axiom.lhs, set()).add(axiom.rhs)
                adjacency.setdefault(axiom.lhs.inverse(), set()).add(
                    axiom.rhs.inverse())
                adjacency.setdefault(axiom.rhs, set())
                adjacency.setdefault(axiom.rhs.inverse(), set())
        self._role_supers = _closure(adjacency)
        self._role_subs = _inverted(self._role_supers)

    def role_supers(self, role: Role) -> FrozenSet[Role]:
        """All roles ``sigma`` with ``T |= role <= sigma``."""
        return self._role_supers.get(role, frozenset({role}))

    def entails_role(self, sub: Role, sup: Role) -> bool:
        """``T |= sub(x, y) -> sup(x, y)``."""
        return sup in self.role_supers(sub)

    def role_subs(self, role: Role) -> FrozenSet[Role]:
        """All roles ``sigma`` with ``T |= sigma <= role``."""
        return self._role_subs.get(role, frozenset())

    # -- reflexivity ----------------------------------------------------

    def _build_reflexive(self) -> None:
        base: Set[Role] = set()
        for axiom in self.axioms:
            if isinstance(axiom, Reflexivity):
                base.add(axiom.role)
                base.add(axiom.role.inverse())
        reflexive: Set[Role] = set()
        for role in base:
            reflexive |= self.role_supers(role)
            reflexive |= {sup.inverse() for sup in self.role_supers(role)}
        self._reflexive = frozenset(reflexive)

    def is_reflexive(self, role: Role) -> bool:
        """``T |= role(x, x)``."""
        return role in self._reflexive

    # -- concept hierarchy ----------------------------------------------

    def _build_concept_hierarchy(self, atomic_names: Iterable[str]) -> None:
        universe: Set[Concept] = {TOP}
        universe.update(Atomic(name) for name in atomic_names)
        universe.update(Exists(role) for role in self.roles)
        adjacency: Dict[Concept, Set[Concept]] = {c: set() for c in universe}
        for axiom in self.axioms:
            if isinstance(axiom, ConceptInclusion):
                adjacency.setdefault(axiom.lhs, set()).add(axiom.rhs)
                adjacency.setdefault(axiom.rhs, set())
        for role in self.roles:
            for sup in self.role_supers(role):
                adjacency.setdefault(Exists(role), set()).add(Exists(sup))
        for role in self._reflexive:
            adjacency.setdefault(TOP, set()).add(Exists(role))
        for concept in list(adjacency):
            adjacency[concept].add(TOP)
        self._concept_supers = _closure(adjacency)
        self._concept_subs = _inverted(self._concept_supers)
        self._concept_universe = frozenset(adjacency)

    @property
    def concepts(self) -> FrozenSet[Concept]:
        """All basic concepts over the ontology signature."""
        return self._concept_universe

    def concept_supers(self, concept: Concept) -> FrozenSet[Concept]:
        """All basic concepts ``tau'`` with ``T |= concept <= tau'``."""
        return self._concept_supers.get(concept, frozenset({concept, TOP}))

    def entails_concept(self, sub: Concept, sup: Concept) -> bool:
        """``T |= sub(x) -> sup(x)``."""
        if sup == TOP:
            return True
        return sup in self.concept_supers(sub)

    def concept_subs(self, concept: Concept) -> FrozenSet[Concept]:
        """All basic concepts ``tau`` with ``T |= tau <= concept``."""
        return self._concept_subs.get(concept, frozenset())

    # -- disjointness ----------------------------------------------------

    def _build_disjointness(self) -> None:
        self.concept_disjointness = [
            ax for ax in self.axioms if isinstance(ax, ConceptDisjointness)]
        self.role_disjointness = [
            ax for ax in self.axioms if isinstance(ax, RoleDisjointness)]
        self.irreflexivities = [
            ax for ax in self.axioms if isinstance(ax, Irreflexivity)]

    def concepts_clash(self, entailed: Set[Concept]) -> bool:
        """True if the set of concepts satisfied by one element clashes."""
        for axiom in self.concept_disjointness:
            if axiom.lhs in entailed and axiom.rhs in entailed:
                return True
        return False

    def roles_clash(self, entailed: Set[Role]) -> bool:
        """True if the set of roles holding of one pair clashes."""
        for axiom in self.role_disjointness:
            if axiom.lhs in entailed and axiom.rhs in entailed:
                return True
        return False

    def loop_clash(self, entailed: Set[Role]) -> bool:
        """True if a loop ``(u, u)`` satisfying these roles clashes."""
        if self.roles_clash(entailed):
            return True
        for axiom in self.irreflexivities:
            if axiom.role in entailed or axiom.role.inverse() in entailed:
                return True
        return False
