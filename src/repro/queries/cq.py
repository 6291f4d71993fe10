"""Conjunctive queries, their Gaifman graphs and shape classification.

A CQ ``q(x) = exists y phi(x, y)`` is a set of unary and binary atoms
over variables (the paper assumes, w.l.o.g., no constants in queries).
The *Gaifman graph* has the variables as vertices and an edge ``{u, v}``
for every binary atom ``P(u, v)``; a CQ is *tree-shaped* when this graph
is a tree and *linear* when it is a tree with at most two leaves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from ..ontology.terms import Role

Variable = str


@dataclass(frozen=True, order=True)
class Atom:
    """A query atom ``A(z)`` or ``P(z, z')``."""

    predicate: str
    args: Tuple[Variable, ...]

    def __post_init__(self):
        if len(self.args) not in (1, 2):
            raise ValueError(
                f"atoms must be unary or binary, got {self.predicate}/"
                f"{len(self.args)}")

    @property
    def is_unary(self) -> bool:
        return len(self.args) == 1

    @property
    def is_binary(self) -> bool:
        return len(self.args) == 2

    @property
    def variables(self) -> FrozenSet[Variable]:
        return frozenset(self.args)

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(self.args)})"


def unary(predicate: str, var: Variable) -> Atom:
    """Shorthand for a unary atom."""
    return Atom(predicate, (var,))


def binary(predicate: str, first: Variable, second: Variable) -> Atom:
    """Shorthand for a binary atom."""
    return Atom(predicate, (first, second))


def role_atom(role: Role, first: Variable, second: Variable) -> Atom:
    """The atom asserting ``role(first, second)``; inverse roles swap the
    arguments so that only direct predicates appear in queries."""
    if role.inverted:
        return Atom(role.name, (second, first))
    return Atom(role.name, (first, second))


class CQ:
    """A conjunctive query with a fixed tuple of answer variables.

    Regarded, as in the paper, as the set of its atoms; two CQs are equal
    when they have the same atoms and the same answer-variable tuple.
    """

    def __init__(self, atoms: Iterable[Atom],
                 answer_vars: Sequence[Variable] = ()):
        self.atoms: Tuple[Atom, ...] = tuple(dict.fromkeys(atoms))
        self.answer_vars: Tuple[Variable, ...] = tuple(answer_vars)
        all_vars = set()
        for atom in self.atoms:
            all_vars.update(atom.args)
        missing = set(self.answer_vars) - all_vars
        if missing:
            raise ValueError(
                f"answer variables {sorted(missing)} do not occur in the "
                "query body")
        self._variables = frozenset(all_vars)
        self._gaifman: Optional[nx.Graph] = None

    # -- vocabulary -----------------------------------------------------

    @property
    def variables(self) -> FrozenSet[Variable]:
        """``var(q)``: all variables of the query."""
        return self._variables

    @property
    def existential_vars(self) -> FrozenSet[Variable]:
        return self._variables - set(self.answer_vars)

    @property
    def is_boolean(self) -> bool:
        return not self.answer_vars

    def unary_atoms(self, var: Optional[Variable] = None) -> List[Atom]:
        atoms = [atom for atom in self.atoms if atom.is_unary]
        if var is not None:
            atoms = [atom for atom in atoms if atom.args[0] == var]
        return atoms

    def binary_atoms(self) -> List[Atom]:
        return [atom for atom in self.atoms if atom.is_binary]

    def loop_atoms(self, var: Variable) -> List[Atom]:
        """Binary atoms ``P(z, z)`` at ``var``."""
        return [atom for atom in self.binary_atoms()
                if atom.args == (var, var)]

    # -- Gaifman graph and shape ------------------------------------------

    def gaifman(self) -> nx.Graph:
        """The Gaifman graph of the query (self-loops are ignored, as the
        paper's graph has edges only between distinct variables); built
        once per CQ and frozen."""
        if self._gaifman is None:
            graph = nx.Graph()
            graph.add_nodes_from(self._variables)
            for atom in self.binary_atoms():
                first, second = atom.args
                if first != second:
                    graph.add_edge(first, second)
            self._gaifman = nx.freeze(graph)
        return self._gaifman

    @property
    def is_connected(self) -> bool:
        graph = self.gaifman()
        if graph.number_of_nodes() == 0:
            return True
        return nx.is_connected(graph)

    @property
    def is_tree_shaped(self) -> bool:
        """True when the Gaifman graph is a tree (acyclic and connected)."""
        graph = self.gaifman()
        if graph.number_of_nodes() == 0:
            return True
        return nx.is_tree(graph)

    def leaves(self) -> List[Variable]:
        """Degree-<=1 vertices of the Gaifman graph (for tree-shaped CQs)."""
        graph = self.gaifman()
        return sorted(v for v in graph.nodes if graph.degree(v) <= 1)

    @property
    def number_of_leaves(self) -> int:
        return len(self.leaves())

    @property
    def is_linear(self) -> bool:
        """A tree with at most two leaves (a chain)."""
        return self.is_tree_shaped and self.number_of_leaves <= 2

    def treewidth(self) -> int:
        """The treewidth of the Gaifman graph (exact for trees, min-fill
        upper bound otherwise)."""
        from .treedecomp import tree_decomposition
        return tree_decomposition(self).width

    # -- structural helpers ------------------------------------------------

    def distances_from(self, root: Variable) -> Dict[Variable, int]:
        """Graph distance of every variable from ``root``."""
        graph = self.gaifman()
        return dict(nx.single_source_shortest_path_length(graph, root))

    def restrict_to(self, variables: Iterable[Variable],
                    answer_vars: Sequence[Variable]) -> "CQ":
        """The sub-CQ of all atoms whose variables lie within ``variables``."""
        keep = set(variables)
        atoms = [atom for atom in self.atoms if set(atom.args) <= keep]
        return CQ(atoms, answer_vars)

    def connected_components(self) -> List[FrozenSet[Variable]]:
        graph = self.gaifman()
        return [frozenset(component)
                for component in nx.connected_components(graph)]

    # -- parsing and display ------------------------------------------------

    _ATOM_RE = re.compile(r"([A-Za-z_][\w'\-]*)\(\s*([\w']+)\s*"
                          r"(?:,\s*([\w']+)\s*)?\)")

    @classmethod
    def parse(cls, body: str, answer_vars: Sequence[Variable] = ()) -> "CQ":
        """Parse a comma/ampersand-separated list of atoms, e.g.
        ``CQ.parse("R(x0,x1), S(x1,x2)", answer_vars=["x0"])``."""
        atoms = []
        for match in cls._ATOM_RE.finditer(body):
            predicate, first, second = match.groups()
            args = (first,) if second is None else (first, second)
            atoms.append(Atom(predicate, args))
        if not atoms:
            raise ValueError(f"no atoms found in {body!r}")
        return cls(atoms, answer_vars)

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def __eq__(self, other) -> bool:
        if not isinstance(other, CQ):
            return NotImplemented
        return (frozenset(self.atoms) == frozenset(other.atoms)
                and self.answer_vars == other.answer_vars)

    def __hash__(self) -> int:
        return hash((frozenset(self.atoms), self.answer_vars))

    def __str__(self) -> str:
        head = f"q({', '.join(self.answer_vars)})"
        body = " & ".join(str(atom) for atom in self.atoms)
        return f"{head} :- {body}"

    def __repr__(self) -> str:
        return f"CQ({self})"


def chain_cq(labels: Sequence[str], prefix: str = "x",
             answer_ends: bool = True) -> CQ:
    """The linear CQ ``L0(x0,x1) & L1(x1,x2) & ...`` used by the paper's
    experiments (Section 6), e.g. ``chain_cq("RSR")``.

    With ``answer_ends`` the two endpoints are answer variables, matching
    the running example ``q(x0, x7)`` of Example 8.
    """
    atoms = [binary(label, f"{prefix}{i}", f"{prefix}{i + 1}")
             for i, label in enumerate(labels)]
    if not atoms:
        raise ValueError("chain_cq needs at least one label")
    answer = (f"{prefix}0", f"{prefix}{len(labels)}") if answer_ends else ()
    return CQ(atoms, answer)
