"""Structural analysis of NDL queries (Section 3.1).

Implements the notions behind the NL and LOGCFL membership results:
linearity (Theorem 2), weight functions, skinniness and the *skinny
depth* ``sd(Pi, G) = 2 d(Pi, G) + log nu(G) + log e_Pi`` (Lemmas 4-5,
Theorem 6).
"""

from __future__ import annotations

import math
from typing import Dict

from .program import NDLQuery, Program


def is_linear(program: Program) -> bool:
    """True if every clause body has at most one IDB atom."""
    idb = program.idb_predicates
    for clause in program.clauses:
        idb_atoms = [atom for atom in clause.body_literals
                     if atom.predicate in idb]
        if len(idb_atoms) > 1:
            return False
    return True


def is_skinny(program: Program) -> bool:
    """True if every clause body has at most two atoms (the NDL analogue
    of semi-unbounded fan-in circuits)."""
    return all(len(clause.body) <= 2 for clause in program.clauses)


def max_edb_atoms(program: Program) -> int:
    """``e_Pi``: the maximal number of EDB atoms in a clause body."""
    idb = program.idb_predicates
    best = 0
    for clause in program.clauses:
        count = sum(1 for atom in clause.body_literals
                    if atom.predicate not in idb)
        count += len(clause.body_equalities)
        best = max(best, count)
    return best


def minimal_weight_function(program: Program) -> Dict[str, int]:
    """The pointwise-minimal weight function ``nu``.

    ``nu`` maps EDB predicates to 0 and satisfies
    ``nu(Q) >= max(1, sum of nu over each clause body)``; minimality
    follows by induction over the dependence order.
    """
    order = program.topological_order()
    assert order is not None
    nu: Dict[str, int] = {}
    for predicate in program.edb_predicates:
        nu[predicate] = 0
    for predicate in order:
        best = 1
        for clause in program.clauses_for(predicate):
            total = sum(nu.get(atom.predicate, 0)
                        for atom in clause.body_literals)
            best = max(best, total)
        nu[predicate] = max(1, best)
    return nu


def skinny_depth(query: NDLQuery) -> float:
    """``sd(Pi, G)``: ``2 d(Pi, G) + log2 nu(G) + log2 e_Pi``.

    Computed with the minimal weight function, which minimises the
    expression among all weight functions.
    """
    program = query.program
    nu = minimal_weight_function(program)
    goal_weight = max(1, nu.get(query.goal, 1))
    edb = max(1, max_edb_atoms(program))
    return (2 * program.depth(query.goal) + math.log2(goal_weight)
            + math.log2(edb))
