"""Program transformations from Sections 2 and 3.1.

* :func:`star_transform` — the ``*`` construction of Section 2 turning a
  rewriting over *complete* data instances into one over arbitrary data
  instances (adds one derivation layer below every EDB predicate).
* :func:`linear_star_transform` — the Lemma 3 variant that preserves
  linearity (and hence NL evaluability), at the cost of width +1.
* :func:`skinny_transform` — the Lemma 5 Huffman-coding construction
  producing an equivalent *skinny* program (bodies of at most two
  atoms) of depth at most ``sd(Pi, G)``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Sequence, Set

from ..ontology.terms import Atomic, Exists, Role, Top
from .program import ADOM, Clause, Equality, Literal, NDLQuery, Program


def _role_literal(role: Role, first: str, second: str) -> Literal:
    if role.inverted:
        return Literal(role.name, (second, first))
    return Literal(role.name, (first, second))


def _unary_derivations(tbox, predicate: str, var: str,
                       fresh: "itertools.count") -> List[List[object]]:
    """Bodies deriving ``predicate(var)`` over arbitrary data: one per
    basic concept ``tau`` with ``T |= tau <= predicate``."""
    bodies: List[List[object]] = []
    subs = set(tbox.concept_subs(Atomic(predicate)))
    subs.add(Atomic(predicate))
    for concept in sorted(subs, key=str):
        if isinstance(concept, Atomic):
            bodies.append([Literal(concept.name, (var,))])
        elif isinstance(concept, Exists):
            witness = f"_w{next(fresh)}"
            bodies.append([_role_literal(concept.role, var, witness)])
        elif isinstance(concept, Top):
            bodies.append([Literal(ADOM, (var,))])
    return bodies


def _binary_derivations(tbox, predicate: str, first: str, second: str
                        ) -> List[List[object]]:
    """Bodies deriving ``predicate(first, second)`` over arbitrary data."""
    bodies: List[List[object]] = []
    role = Role(predicate)
    subs = set(tbox.role_subs(role))
    subs.add(role)
    for sub in sorted(subs):
        bodies.append([_role_literal(sub, first, second)])
    if tbox.is_reflexive(role):
        bodies.append([Equality(first, second), Literal(ADOM, (first,))])
    return bodies


def star_transform(query: NDLQuery, tbox) -> NDLQuery:
    """The ``Pi*`` construction of Section 2.

    Every EDB predicate ``S`` is replaced by an IDB predicate ``S*``
    axiomatised by its T-derivations, making the query a rewriting over
    arbitrary (not necessarily complete) data instances.
    ``|Pi*| <= |Pi| + |T|^2`` as in the paper.
    """
    program = query.program
    idb = program.idb_predicates
    starred: Dict[str, str] = {}
    fresh = itertools.count()
    new_clauses: List[Clause] = []
    for clause in program.clauses:
        body: List[object] = []
        for atom in clause.body:
            if isinstance(atom, Literal) and (
                    atom.predicate not in idb and atom.predicate != ADOM):
                name = f"{atom.predicate}__star"
                starred[atom.predicate] = name
                body.append(Literal(name, atom.args))
            else:
                body.append(atom)
        new_clauses.append(Clause(clause.head, tuple(body)))
    for predicate, name in sorted(starred.items()):
        arity = _edb_arity(program, predicate)
        if arity == 1:
            head = Literal(name, ("x",))
            for derivation in _unary_derivations(tbox, predicate, "x", fresh):
                new_clauses.append(Clause(head, tuple(derivation)))
        else:
            head = Literal(name, ("x", "y"))
            for derivation in _binary_derivations(tbox, predicate, "x", "y"):
                new_clauses.append(Clause(head, tuple(derivation)))
    return NDLQuery(Program(new_clauses), query.goal, query.answer_vars)


def _edb_arity(program: Program, predicate: str) -> int:
    for clause in program.clauses:
        for atom in clause.body_literals:
            if atom.predicate == predicate:
                return len(atom.args)
    raise KeyError(predicate)


def linear_star_transform(query: NDLQuery, tbox) -> NDLQuery:
    """The Lemma 3 transformation: a *linear* rewriting over arbitrary
    data instances from a linear rewriting over complete ones.

    Each clause ``Q(z) <- I & EQ & E_1 & ... & E_n`` becomes a chain of
    clauses threading one EDB atom at a time, with each ``E_i`` replaced
    by every atom that T-derives it; the chain keeps exactly the
    variables still needed downstream, so the width grows by at most 1
    (the fresh witness variable).
    """
    program = query.program
    idb = program.idb_predicates
    fresh = itertools.count()
    fresh_pred = itertools.count()
    new_clauses: List[Clause] = []
    for clause in program.clauses:
        idb_atoms = [atom for atom in clause.body_literals
                     if atom.predicate in idb]
        if len(idb_atoms) > 1:
            raise ValueError("linear_star_transform needs a linear program")
        edb_atoms = [atom for atom in clause.body_literals
                     if atom.predicate not in idb]
        equalities = clause.body_equalities
        if not edb_atoms:
            new_clauses.append(clause)
            continue
        # variables needed strictly after step i (for the chain heads)
        tail_vars: List[Set[str]] = []
        future: Set[str] = set(clause.head.args)
        for eq in equalities:
            future |= eq.variables
        tail_vars_rev: List[Set[str]] = []
        for atom in reversed(edb_atoms):
            tail_vars_rev.append(set(future))
            future |= atom.variables
        tail_vars = list(reversed(tail_vars_rev))

        seen: Set[str] = set(idb_atoms[0].variables) if idb_atoms else set()
        previous: object = idb_atoms[0] if idb_atoms else None
        for i, atom in enumerate(edb_atoms):
            seen |= atom.variables
            carried = tuple(sorted(seen & (tail_vars[i] | set(
                v for later in edb_atoms[i + 1:] for v in later.variables))))
            is_last = i == len(edb_atoms) - 1
            if is_last and not equalities:
                head = clause.head
            else:
                head = Literal(f"_chain{next(fresh_pred)}", carried)
            if atom.predicate == ADOM:
                variants: List[List[object]] = [[atom]]
            elif len(atom.args) == 1:
                variants = _unary_derivations(tbox, atom.predicate,
                                              atom.args[0], fresh)
            else:
                variants = _binary_derivations(tbox, atom.predicate,
                                               atom.args[0], atom.args[1])
            for variant in variants:
                body: List[object] = []
                if previous is not None:
                    body.append(previous)
                body.extend(variant)
                new_clauses.append(Clause(head, tuple(body)))
            previous = head
        if equalities:
            new_clauses.append(Clause(
                clause.head, (previous,) + tuple(equalities)))
    return NDLQuery(Program(new_clauses), query.goal, query.answer_vars)


# -- Lemma 5: skinny transformation -------------------------------------


def skinny_transform(query: NDLQuery) -> NDLQuery:
    """An equivalent skinny NDL query (bodies of at most two atoms).

    EDB atoms of a clause are combined along a balanced binary tree
    (depth ``log e_Pi``) and IDB atoms along a Huffman tree for the
    minimal weight function (depth ``d + log nu``), realising the
    Lemma 5 bound ``d(Pi', G) <= sd(Pi, G)``.
    """
    from .analysis import minimal_weight_function

    program = query.program.normalize_equalities()
    nu = minimal_weight_function(program)
    idb = program.idb_predicates
    fresh = itertools.count()
    new_clauses: List[Clause] = []

    def combine(literals: Sequence[Literal], weights: Sequence[int],
                outside: Set[str]) -> Literal:
        """Huffman-merge ``literals`` into a single literal via fresh
        predicates, emitting skinny clauses along the way.

        ``outside`` are the variables visible elsewhere in the clause;
        each interface predicate keeps exactly the variables shared with
        the rest of the heap or with ``outside``.
        """
        if len(literals) == 1:
            return literals[0]
        heap = [(weights[i], i, literals[i]) for i in range(len(literals))]
        heapq.heapify(heap)
        tiebreak = itertools.count(len(literals))
        while len(heap) > 1:
            weight_a, _, literal_a = heapq.heappop(heap)
            weight_b, _, literal_b = heapq.heappop(heap)
            remaining: Set[str] = set()
            for _, _, other in heap:
                remaining |= set(other.args)
            merged_vars = set(literal_a.args) | set(literal_b.args)
            args = tuple(sorted(merged_vars & (remaining | outside)))
            head = Literal(f"_sk{next(fresh)}", args)
            new_clauses.append(Clause(head, (literal_a, literal_b)))
            heapq.heappush(heap,
                           (weight_a + weight_b, next(tiebreak), head))
        return heap[0][2]

    for clause in program.clauses:
        atoms = clause.body_literals
        if len(atoms) <= 2:
            new_clauses.append(clause)
            continue
        edb_atoms = [a for a in atoms if a.predicate not in idb]
        idb_atoms = [a for a in atoms if a.predicate in idb]
        head_vars = set(clause.head.args)
        parts: List[Literal] = []
        if edb_atoms:
            other_vars = {v for a in idb_atoms for v in a.args} | head_vars
            parts.append(combine(
                edb_atoms, [1] * len(edb_atoms), other_vars))
        if idb_atoms:
            other_vars = {v for a in edb_atoms for v in a.args} | head_vars
            parts.append(combine(
                idb_atoms, [max(1, nu.get(a.predicate, 1))
                            for a in idb_atoms], other_vars))
        new_clauses.append(Clause(clause.head, tuple(parts)))
    return NDLQuery(Program(new_clauses), query.goal, query.answer_vars)
