"""Nonrecursive datalog (NDL) programs and queries (Section 2).

A datalog program is a finite set of clauses
``gamma_0 <- gamma_1 & ... & gamma_m`` whose ``gamma_i`` are predicate
atoms or equalities; it is *nonrecursive* when the dependence graph of
its IDB predicates is acyclic.  An *NDL query* is a pair
``(Pi, G(x))``; following Section 3.1 all our queries are *ordered*,
with the answer variables ``x`` acting as parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

ADOM = "__adom__"  # the active-domain EDB predicate (the paper's ``T(x)``)


@dataclass(frozen=True)
class Literal:
    """An atom ``Q(args)`` in a clause (args are variable names)."""

    predicate: str
    args: Tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(self.args)})"

    @property
    def variables(self) -> FrozenSet[str]:
        return frozenset(self.args)

    def rename(self, mapping: Dict[str, str]) -> "Literal":
        return Literal(self.predicate,
                       tuple(mapping.get(arg, arg) for arg in self.args))


@dataclass(frozen=True)
class Equality:
    """An equality body atom ``left = right``."""

    left: str
    right: str

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"

    @property
    def variables(self) -> FrozenSet[str]:
        return frozenset((self.left, self.right))

    def rename(self, mapping: Dict[str, str]) -> "Equality":
        return Equality(mapping.get(self.left, self.left),
                        mapping.get(self.right, self.right))


BodyAtom = object  # Literal | Equality


@dataclass(frozen=True)
class Clause:
    """A Horn clause ``head <- body``.

    Every head variable must occur in the body (range restriction); the
    :class:`Program` constructor adds active-domain atoms for head
    variables that would otherwise be unbound.
    """

    head: Literal
    body: Tuple[BodyAtom, ...]

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} <- " + " & ".join(str(b) for b in self.body)

    @property
    def body_literals(self) -> List[Literal]:
        return [atom for atom in self.body if isinstance(atom, Literal)]

    @property
    def body_equalities(self) -> List[Equality]:
        return [atom for atom in self.body if isinstance(atom, Equality)]

    @property
    def variables(self) -> FrozenSet[str]:
        names: Set[str] = set(self.head.args)
        for atom in self.body:
            names |= atom.variables
        return frozenset(names)


class Program:
    """An NDL program: clauses plus the induced IDB/EDB split.

    Construction checks nonrecursiveness and repairs range restriction
    by adding ``__adom__`` atoms for unbound head variables.
    """

    def __init__(self, clauses: Iterable[Clause]):
        self.clauses: List[Clause] = [self._range_restrict(clause)
                                      for clause in clauses]
        self._by_head: Dict[str, List[Clause]] = {}
        for clause in self.clauses:
            self._by_head.setdefault(clause.head.predicate, []).append(clause)
        self._check_nonrecursive()

    @staticmethod
    def _range_restrict(clause: Clause) -> Clause:
        bound: Set[str] = set()
        for atom in clause.body:
            if isinstance(atom, Literal):
                bound |= atom.variables
        # an equality binds a variable when its other side is bound; close off
        changed = True
        while changed:
            changed = False
            for eq in clause.body:
                if isinstance(eq, Equality):
                    if eq.left in bound and eq.right not in bound:
                        bound.add(eq.right)
                        changed = True
                    elif eq.right in bound and eq.left not in bound:
                        bound.add(eq.left)
                        changed = True
        unbound = [v for v in dict.fromkeys(clause.head.args)
                   if v not in bound]
        for eq in clause.body_equalities:
            for v in (eq.left, eq.right):
                if v not in bound and v not in unbound:
                    unbound.append(v)
        if not unbound:
            return clause
        extra = tuple(Literal(ADOM, (v,)) for v in unbound)
        return Clause(clause.head, clause.body + extra)

    # -- structure ---------------------------------------------------------

    @property
    def idb_predicates(self) -> FrozenSet[str]:
        return frozenset(self._by_head)

    @cached_property
    def edb_predicates(self) -> FrozenSet[str]:
        # cached (clauses never change after construction): every
        # ``Plan.execute`` asks the engine about exactly these
        used = {atom.predicate
                for clause in self.clauses
                for atom in clause.body_literals}
        return frozenset(used - self.idb_predicates)

    def clauses_for(self, predicate: str) -> List[Clause]:
        return list(self._by_head.get(predicate, ()))

    def dependence_graph(self) -> Dict[str, Set[str]]:
        """``Q -> {P : Q depends on P}`` restricted to IDB predicates."""
        graph: Dict[str, Set[str]] = {p: set() for p in self._by_head}
        for clause in self.clauses:
            for atom in clause.body_literals:
                if atom.predicate in self._by_head:
                    graph[clause.head.predicate].add(atom.predicate)
        return graph

    def _check_nonrecursive(self) -> None:
        order = self.topological_order()
        if order is None:
            raise ValueError("program is recursive (dependence cycle)")

    def topological_order(self) -> Optional[List[str]]:
        """IDB predicates ordered so dependencies come first, or ``None``
        if the dependence graph has a cycle."""
        graph = self.dependence_graph()
        state: Dict[str, int] = {}
        order: List[str] = []
        for start in sorted(graph):
            if state.get(start, 0):
                continue
            stack = [(start, iter(sorted(graph[start])))]
            state[start] = 1
            while stack:
                node, successors = stack[-1]
                advanced = False
                for succ in successors:
                    mark = state.get(succ, 0)
                    if mark == 1:
                        return None
                    if mark == 0:
                        state[succ] = 1
                        stack.append((succ, iter(sorted(graph[succ]))))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 2
                    order.append(node)
                    stack.pop()
        return order

    def depth(self, goal: str) -> int:
        """``d(Pi, G)``: the longest dependence path from ``goal``."""
        graph = self.dependence_graph()
        memo: Dict[str, int] = {}

        def longest(node: str) -> int:
            if node not in memo:
                memo[node] = 1 + max(
                    (longest(succ) for succ in graph.get(node, ())),
                    default=-1)
            return memo[node]

        if goal not in graph:
            return 0
        return longest(goal)

    def restrict_to(self, goal: str) -> "Program":
        """The subprogram of clauses reachable from ``goal``."""
        graph = self.dependence_graph()
        reachable = {goal}
        stack = [goal]
        while stack:
            node = stack.pop()
            for succ in graph.get(node, ()):
                if succ not in reachable:
                    reachable.add(succ)
                    stack.append(succ)
        return Program([clause for clause in self.clauses
                        if clause.head.predicate in reachable])

    # -- equality elimination ------------------------------------------------

    def normalize_equalities(self) -> "Program":
        """An equivalent program without equality atoms, obtained by
        unifying the variables each equality identifies (clause-local)."""
        new_clauses = []
        for clause in self.clauses:
            equalities = clause.body_equalities
            if not equalities:
                new_clauses.append(clause)
                continue
            parent: Dict[str, str] = {}

            def find(v: str) -> str:
                parent.setdefault(v, v)
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            for eq in equalities:
                left, right = find(eq.left), find(eq.right)
                if left != right:
                    # prefer keeping head variables as representatives
                    if right in clause.head.args and (
                            left not in clause.head.args):
                        left, right = right, left
                    parent[right] = left
            mapping = {v: find(v) for v in clause.variables}
            head = clause.head.rename(mapping)
            body = tuple(atom.rename(mapping)
                         for atom in clause.body
                         if isinstance(atom, Literal))
            new_clauses.append(Clause(head, body))
        return Program(new_clauses)

    # -- sizes -----------------------------------------------------------------

    def __len__(self) -> int:
        """The number of clauses (the size measure of Figure 2/Table 1)."""
        return len(self.clauses)

    def symbol_size(self) -> int:
        """``|Pi|``: the number of predicate/variable symbols."""
        total = 0
        for clause in self.clauses:
            total += 1 + len(clause.head.args)
            for atom in clause.body:
                if isinstance(atom, Literal):
                    total += 1 + len(atom.args)
                else:
                    total += 2
        return total

    def __str__(self) -> str:
        return "\n".join(str(clause) for clause in self.clauses)

    def __repr__(self) -> str:
        return (f"Program({len(self.clauses)} clauses, "
                f"{len(self.idb_predicates)} IDB predicates)")


@dataclass(frozen=True)
class NDLQuery:
    """An NDL query ``(Pi, G(x))`` with the parameter (answer) variables.

    ``answer_vars`` are the parameters of the goal predicate in the
    paper's sense of *ordered* NDL queries; rewriters use the CQ's
    answer variables here.
    """

    program: Program
    goal: str
    answer_vars: Tuple[str, ...] = ()

    @cached_property
    def strata(self) -> Tuple[Tuple[str, Tuple[Clause, ...]], ...]:
        """``(predicate, its clauses)`` for every IDB predicate the
        goal depends on, dependencies first — what an evaluator walks.

        Computed once per (immutable) query and kept in the instance
        ``__dict__``.
        """
        program = self.program.restrict_to(self.goal)
        return tuple((predicate, tuple(program.clauses_for(predicate)))
                     for predicate in program.topological_order())

    def width(self) -> int:
        """``w(Pi, G)``: maximal number of non-parameter variables in a
        clause (parameters are the answer variables)."""
        parameters = set(self.answer_vars)
        return max((len(clause.variables - parameters)
                    for clause in self.program.clauses), default=0)

    def depth(self) -> int:
        return self.program.depth(self.goal)

    def __len__(self) -> int:
        return len(self.program)

    def __str__(self) -> str:
        head = f"{self.goal}({', '.join(self.answer_vars)})"
        return f"goal {head}\n{self.program}"
