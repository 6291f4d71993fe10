"""OWL 2 QL ontologies (TBoxes) in normal form.

Following Section 2 of the paper, every TBox is put into *normal form*:
for every role ``rho`` in ``R_T`` (the binary predicates of ``T`` and
their inverses) a fresh surrogate atomic concept ``A_rho`` is introduced
together with the two inclusions of ``A_rho <-> Exists(rho)``.  The
surrogates are what the NDL rewritings of Section 3 use to test, inside
the data, whether an individual has a (possibly anonymous)
``rho``-successor.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .axioms import (
    Axiom,
    ConceptDisjointness,
    ConceptInclusion,
    Irreflexivity,
    Reflexivity,
    RoleDisjointness,
    RoleInclusion,
)
from .depth import WitnessTable, initial_roles, ontology_depth, successor_roles
from .reasoning import Saturation
from .terms import TOP, Atomic, Concept, Exists, Role


def surrogate_name(role: Role) -> str:
    """The name of the surrogate concept ``A_rho`` for a role."""
    return f"A_{role}"


def _roles_of(axiom: Axiom) -> List[Role]:
    roles: List[Role] = []
    if isinstance(axiom, (RoleInclusion, RoleDisjointness)):
        roles.extend([axiom.lhs, axiom.rhs])
    elif isinstance(axiom, (Reflexivity, Irreflexivity)):
        roles.append(axiom.role)
    elif isinstance(axiom, (ConceptInclusion, ConceptDisjointness)):
        for concept in (axiom.lhs, axiom.rhs):
            if isinstance(concept, Exists):
                roles.append(concept.role)
    return roles


def _atomics_of(axiom: Axiom) -> List[str]:
    names: List[str] = []
    if isinstance(axiom, (ConceptInclusion, ConceptDisjointness)):
        for concept in (axiom.lhs, axiom.rhs):
            if isinstance(concept, Atomic):
                names.append(concept.name)
    return names


class TBox:
    """An OWL 2 QL ontology, normalised on construction.

    Parameters
    ----------
    axioms:
        the user-supplied axioms (any of the six forms of Section 2).

    Attributes
    ----------
    user_axioms:
        the axioms as supplied.
    axioms:
        user axioms plus the normalisation axioms ``A_rho <-> Exists rho``.
    roles:
        ``R_T``: every binary predicate of the ontology and its inverse.
    """

    def __init__(self, axioms: Iterable[Axiom]):
        self.user_axioms: List[Axiom] = list(axioms)
        role_names = {role.name for ax in self.user_axioms
                      for role in _roles_of(ax)}
        self.roles: FrozenSet[Role] = frozenset(
            Role(name, inverted) for name in role_names
            for inverted in (False, True))
        self._surrogates: Dict[Role, Atomic] = {
            role: Atomic(surrogate_name(role)) for role in self.roles}
        normalisation = []
        for role in sorted(self.roles):
            surrogate = self._surrogates[role]
            normalisation.append(ConceptInclusion(surrogate, Exists(role)))
            normalisation.append(ConceptInclusion(Exists(role), surrogate))
        self.normalisation_axioms: List[Axiom] = normalisation
        self.axioms: List[Axiom] = self.user_axioms + normalisation
        atomic_names = {name for ax in self.axioms for name in _atomics_of(ax)}
        self._saturation = Saturation(self.axioms, self.roles, atomic_names)
        self._witnesses: Optional[WitnessTable] = None

    # -- vocabulary -----------------------------------------------------

    @property
    def atomic_concept_names(self) -> FrozenSet[str]:
        """All atomic concept names, including the surrogates ``A_rho``."""
        return frozenset(
            concept.name for concept in self._saturation.concepts
            if isinstance(concept, Atomic))

    @property
    def role_names(self) -> FrozenSet[str]:
        """All binary predicate names (without inverses)."""
        return frozenset(role.name for role in self.roles)

    def surrogate(self, role: Role) -> Atomic:
        """The surrogate concept ``A_rho`` with ``A_rho <-> Exists rho``."""
        return self._surrogates[role]

    # -- entailment -----------------------------------------------------

    def entails_concept(self, sub: Concept, sup: Concept) -> bool:
        """``T |= sub(x) -> sup(x)`` for basic concepts."""
        return self._saturation.entails_concept(sub, sup)

    def entails_role(self, sub: Role, sup: Role) -> bool:
        """``T |= sub(x, y) -> sup(x, y)``."""
        return self._saturation.entails_role(sub, sup)

    def is_reflexive(self, role: Role) -> bool:
        """``T |= role(x, x)``."""
        return self._saturation.is_reflexive(role)

    def concept_supers(self, concept: Concept) -> FrozenSet[Concept]:
        return self._saturation.concept_supers(concept)

    def concept_subs(self, concept: Concept) -> FrozenSet[Concept]:
        return self._saturation.concept_subs(concept)

    def role_supers(self, role: Role) -> FrozenSet[Role]:
        return self._saturation.role_supers(role)

    def role_subs(self, role: Role) -> FrozenSet[Role]:
        return self._saturation.role_subs(role)

    @property
    def saturation(self) -> Saturation:
        return self._saturation

    # -- witness structure ----------------------------------------------

    @property
    def witnesses(self) -> WitnessTable:
        """The letter-indexed witness table of ``W_T``, built on first
        use and never changed afterwards."""
        if self._witnesses is None:
            self._witnesses = WitnessTable.build(self)
        return self._witnesses

    def successor_roles(self, role: Role) -> Tuple[Role, ...]:
        """Roles ``sigma`` that may follow ``role`` in a word of ``W_T``.

        ``sigma`` may follow ``rho`` iff ``T |= Exists(rho-) <= Exists(sigma)``
        but not ``T |= rho <= sigma-`` and not ``T |= sigma(x, x)``
        (Section 2, definition of the canonical model).
        """
        return successor_roles(self, role)

    def initial_roles(self, concept: Concept) -> Tuple[Role, ...]:
        """Roles ``rho`` such that ``concept(a)`` forces a witness ``a.rho``."""
        return initial_roles(self, concept)

    def depth(self):
        """The existential depth of the ontology (Section 2).

        Returns an ``int`` or ``math.inf``; depth 0 means no user axiom
        has an existential quantifier on the right-hand side.
        """
        return ontology_depth(self)

    # -- parsing and display ----------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "TBox":
        """Parse a newline/semicolon-separated list of axioms.

        Syntax (whitespace-insensitive; ``#`` starts a comment)::

            roles: P, S, R   declares role names (bare names default to
                             concepts, so declare every role up front)
            A <= EP          concept inclusion  A(x) -> exists y P(x,y)
            EP- <= B         concept inclusion  (exists y P(y,x)) -> B(x)
            P <= S-          role inclusion
            A & B <= bottom  concept disjointness
            P & S <= bottom  role disjointness
            refl(P)          reflexivity
            irrefl(P)        irreflexivity

        Besides the ``roles:`` declaration, role names are also inferred
        from ``refl``/``irrefl`` and trailing ``-`` inverses.  A token
        ``E<name>`` denotes the existential restriction over ``<name>``
        only when ``<name>`` is a known role; otherwise the whole token
        is an atomic concept (so names like ``Employee`` are safe).
        """
        axioms: List[Axiom] = []
        statements = [part.strip()
                      for chunk in text.splitlines()
                      for part in chunk.split(";")]
        role_names = set()
        pending: List[str] = []
        for statement in statements:
            statement = statement.split("#", 1)[0].strip()
            if not statement:
                continue
            if statement.startswith("roles:"):
                names = re.split(r"[\s,]+", statement[len("roles:"):].strip())
                role_names.update(name for name in names if name)
                continue
            pending.append(statement)
            # discover further role names from refl/irrefl and explicit
            # inverses
            for match in re.findall(r"(?:refl|irrefl)\(\s*([\w']+-?)\s*\)",
                                    statement):
                role_names.add(Role.parse(match).name)
            for match in re.findall(r"(?<![\w'])([A-Za-z_][\w']*)-",
                                    statement):
                if not match.startswith("E"):
                    role_names.add(match)
        for statement in pending:
            axioms.extend(cls._parse_statement(statement, role_names))
        return cls(axioms)

    @staticmethod
    def _parse_statement(statement: str, role_names) -> List[Axiom]:
        match = re.fullmatch(r"refl\(\s*([\w']+-?)\s*\)", statement)
        if match:
            return [Reflexivity(Role.parse(match.group(1)))]
        match = re.fullmatch(r"irrefl\(\s*([\w']+-?)\s*\)", statement)
        if match:
            return [Irreflexivity(Role.parse(match.group(1)))]
        if "<=" not in statement:
            raise ValueError(f"cannot parse axiom: {statement!r}")
        lhs_text, rhs_text = (part.strip()
                              for part in statement.split("<=", 1))

        def is_role(token: str) -> bool:
            if token == "T" or token == "bottom":
                return False
            return Role.parse(token).name in role_names

        def concept(token: str) -> Concept:
            # "E<role>" is an existential restriction only for known
            # roles; any other token is an atomic concept
            if token == "T":
                return TOP
            if token.startswith("E") and len(token) > 1:
                candidate = Role.parse(token[1:])
                if candidate.name in role_names:
                    return Exists(candidate)
            return Atomic(token)

        if rhs_text == "bottom":
            parts = [part.strip() for part in lhs_text.split("&")]
            if len(parts) == 1:
                parts = [parts[0], parts[0]]
            if all(is_role(part) for part in parts):
                return [RoleDisjointness(Role.parse(parts[0]),
                                         Role.parse(parts[1]))]
            return [ConceptDisjointness(concept(parts[0]),
                                        concept(parts[1]))]
        if is_role(lhs_text) and is_role(rhs_text):
            return [RoleInclusion(Role.parse(lhs_text),
                                  Role.parse(rhs_text))]
        return [ConceptInclusion(concept(lhs_text), concept(rhs_text))]

    def __len__(self) -> int:
        return len(self.axioms)

    def __str__(self) -> str:
        lines = [str(ax) for ax in self.user_axioms]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"TBox({len(self.user_axioms)} axioms, "
                f"{len(self.role_names)} roles, depth={self.depth()})")
