"""KB consistency checking (the ``bottom`` remark of Section 2).

The paper assumes w.l.o.g. that ontologies contain no ``bottom`` and
notes that rewritings can incorporate subqueries detecting that the
left-hand side of a disjointness axiom fires, outputting *all* tuples
in that case.  This module provides both pieces:

* :func:`is_consistent` — decides ``T, A |= bottom`` by checking
  clashes on the completed data and, via the letter-state analysis, on
  the anonymous part of the canonical model;
* :func:`inconsistency_clauses` — NDL clauses deriving a 0-ary ``Bot``
  predicate exactly when the data is inconsistent with ``T``.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..data.abox import ABox, Constant, individual_concepts
from ..datalog.program import Clause, Literal
from ..ontology.terms import Atomic, Concept, Exists, Role
from .certain import reachable_letters


def _pair_roles(tbox, abox: ABox) -> Dict[Tuple[Constant, Constant],
                                          Set[Role]]:
    pairs: Dict[Tuple[Constant, Constant], Set[Role]] = {}
    for predicate in abox.binary_predicates:
        role = Role(predicate)
        supers = tbox.role_supers(role)
        inverse_supers = tbox.role_supers(role.inverse())
        for first, second in abox.binary(predicate):
            pairs.setdefault((first, second), set()).update(supers)
            pairs.setdefault((second, first), set()).update(inverse_supers)
    return pairs


def is_consistent(tbox, abox: ABox) -> bool:
    """``True`` iff ``(T, A)`` has a model (no disjointness or
    irreflexivity axiom fires in the canonical model)."""
    saturation = tbox.saturation
    if not abox.individuals:
        return True
    # global: an entailed-reflexive role clashing with irreflexivity (or
    # a disjoint pair of reflexive roles) poisons every individual
    reflexive = {role for role in tbox.roles if tbox.is_reflexive(role)}
    if reflexive and saturation.loop_clash(reflexive):
        return False
    # concept clashes at individuals
    for concepts in individual_concepts(tbox, abox).values():
        if saturation.concepts_clash(concepts):
            return False
    # role clashes on data pairs (loops also trigger irreflexivity)
    for (first, second), roles in _pair_roles(tbox, abox).items():
        if first == second:
            if saturation.loop_clash(roles | reflexive):
                return False
        elif saturation.roles_clash(roles | reflexive):
            return False
    # the anonymous part: a null with incoming letter ``s`` satisfies
    # the concepts above Exists(s-) and the edge to its parent carries
    # the roles above ``s``
    for letter in reachable_letters(tbox, abox):
        concepts = set(saturation.concept_supers(Exists(letter.inverse())))
        if saturation.concepts_clash(concepts):
            return False
        if saturation.roles_clash(
                set(saturation.role_supers(letter)) | reflexive):
            return False
        if saturation.roles_clash(
                set(saturation.role_supers(letter.inverse())) | reflexive):
            return False
    return True


BOT = "Bot"


def inconsistency_clauses(tbox) -> List[Clause]:
    """NDL clauses over *complete* data instances deriving ``Bot()``
    exactly when ``T, A |= bottom``.

    Over a completed ABox every entailed ground atom is materialised,
    so each disjointness axiom turns into one clause; anonymous-part
    clashes are detected through the surrogate atoms ``A_rho``.
    """
    from ..ontology.tbox import surrogate_name

    clauses: List[Clause] = []
    head = Literal(BOT, ())

    def concept_literal(concept: Concept, var: str):
        if isinstance(concept, Atomic):
            return Literal(concept.name, (var,))
        if isinstance(concept, Exists):
            return Literal(surrogate_name(concept.role), (var,))
        return Literal("__adom__", (var,))

    saturation = tbox.saturation
    for axiom in saturation.concept_disjointness:
        clauses.append(Clause(head, (concept_literal(axiom.lhs, "x"),
                                     concept_literal(axiom.rhs, "x"))))
    for axiom in saturation.role_disjointness:
        first = (Literal(axiom.lhs.name, ("x", "y"))
                 if not axiom.lhs.inverted
                 else Literal(axiom.lhs.name, ("y", "x")))
        second = (Literal(axiom.rhs.name, ("x", "y"))
                  if not axiom.rhs.inverted
                  else Literal(axiom.rhs.name, ("y", "x")))
        clauses.append(Clause(head, (first, second)))
    for axiom in saturation.irreflexivities:
        clauses.append(Clause(head,
                              (Literal(axiom.role.name, ("x", "x")),)))
    # anonymous-part clashes: if an inherently clashing letter state is
    # reachable from Exists(rho), Bot fires as soon as some individual
    # entails Exists(rho) (i.e. carries A_rho in the completed data)
    from ..ontology.depth import successor_graph

    graph = successor_graph(tbox)
    bad_states = set()
    for letter in graph:
        concepts = set(saturation.concept_supers(Exists(letter.inverse())))
        if (saturation.concepts_clash(concepts)
                or saturation.roles_clash(
                    set(saturation.role_supers(letter)))
                or saturation.roles_clash(
                    set(saturation.role_supers(letter.inverse())))):
            bad_states.add(letter)
    for letter in graph:
        closure = {letter}
        stack = [letter]
        while stack:
            current = stack.pop()
            for succ in graph.get(current, ()):
                if succ not in closure:
                    closure.add(succ)
                    stack.append(succ)
        if closure & bad_states:
            clauses.append(Clause(head, (Literal(
                surrogate_name(letter), ("x",)),)))
    return clauses
