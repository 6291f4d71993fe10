"""Vocabulary terms of OWL 2 QL ontologies.

The paper (Section 2) works with unary predicates ``A`` and binary
predicates ``P`` together with their inverses ``P-``.  *Roles* are binary
predicates or inverses thereof, and *basic concepts* ``tau`` are either
atomic concepts ``A(x)``, existential restrictions ``exists y rho(x, y)``
or the top concept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, order=True)
class Role:
    """A binary predicate or its inverse (``P`` or ``P-``).

    ``Role('P').inverse()`` is ``P-`` and taking the inverse twice gives
    back ``P`` (the paper's convention ``P-- = P``).
    """

    name: str
    inverted: bool = False

    def inverse(self) -> "Role":
        """The inverse role ``rho-``."""
        return Role(self.name, not self.inverted)

    def __str__(self) -> str:
        return self.name + ("-" if self.inverted else "")

    def __repr__(self) -> str:
        return f"Role({self})"

    @staticmethod
    def parse(text: str) -> "Role":
        """Parse ``"P"`` or ``"P-"`` into a :class:`Role`."""
        text = text.strip()
        if text.endswith("-"):
            return Role(text[:-1], True)
        return Role(text)


@dataclass(frozen=True, order=True)
class Atomic:
    """An atomic concept ``A(x)``."""

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Atomic({self.name})"


@dataclass(frozen=True, order=True)
class Exists:
    """The basic concept ``exists y rho(x, y)`` for a role ``rho``."""

    role: Role

    def __str__(self) -> str:
        return f"E{self.role}"

    def __repr__(self) -> str:
        return f"Exists({self.role})"


@dataclass(frozen=True, order=True)
class Top:
    """The top concept, true of every element of the active domain."""

    def __str__(self) -> str:
        return "T"

    def __repr__(self) -> str:
        return "Top()"


TOP = Top()

#: A basic concept as defined by the grammar in Section 2 of the paper.
Concept = Union[Atomic, Exists, Top]


def parse_concept(text: str) -> Concept:
    """Parse ``"A"``, ``"EP"``, ``"EP-"`` or ``"T"`` into a concept.

    The ``E`` prefix stands for the existential quantifier (``EP`` is
    ``exists y P(x, y)``).
    """
    text = text.strip()
    if text == "T":
        return TOP
    if text.startswith("E"):
        return Exists(Role.parse(text[1:]))
    return Atomic(text)
