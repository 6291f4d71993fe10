"""NDL program optimisation.

Section 6 points to "optimisation techniques for removing redundant
rules or sub-queries from rewritings [53, 50, 28, 39] or exploiting the
emptiness of certain predicates [59]"; Appendix D.4 hand-optimises the
Tw rewriting into ``Tw*`` by inlining predicates "defined by a single
rule and [occurring] not more than twice in the bodies of the rules",
noting that "this substitution could be done automatically by a clever
NDL engine, but [is] not performed by RDFox".  This module is that
clever layer:

* :func:`prune_empty_predicates` — emptiness-aware pruning: clauses
  using a predicate that is provably empty for a given data signature
  are dropped (the [59] optimisation);
* :func:`remove_duplicate_clauses` — syntactic duplicates modulo
  variable renaming and body reordering;
* :func:`inline_single_definition` — the generalised Tw* inlining;
* :func:`optimize` — the full pipeline.

All transformations preserve the answers over every data instance
(checked by differential property tests in ``tests/test_optimize.py``);
``prune_empty_predicates`` preserves answers over every instance
*within the given signature*.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..data.abox import ABox
from .program import ADOM, Clause, Literal, NDLQuery, Program


def nonempty_signature(abox: ABox, include_adom: bool = True
                       ) -> FrozenSet[str]:
    """The predicates with at least one fact in ``abox``.

    ``__adom__`` is included whenever the data has any individual at
    all (any atom names one) — it is never empty then, whatever the
    program.
    """
    names: Set[str] = set(abox.unary_predicates) | set(abox.binary_predicates)
    if include_adom and names:
        names.add(ADOM)
    return frozenset(names)


def prune_empty_predicates(query: NDLQuery,
                           nonempty_edb: Iterable[str]) -> NDLQuery:
    """Drop every clause that mentions a provably empty predicate.

    ``nonempty_edb`` lists the EDB predicates that may hold facts (use
    :func:`nonempty_signature`); an IDB predicate is possibly nonempty
    iff at least one of its clauses survives.  Over any data instance
    whose nonempty predicates are within ``nonempty_edb``, the pruned
    query has exactly the same answers.
    """
    program = query.program
    idb = program.idb_predicates
    available: Set[str] = set(nonempty_edb)
    order = program.topological_order()
    assert order is not None
    kept: List[Clause] = []
    for predicate in order:
        survivors = [
            clause for clause in program.clauses_for(predicate)
            if all(atom.predicate in available
                   for atom in clause.body_literals)]
        if survivors:
            available.add(predicate)
            kept.extend(survivors)
    if query.goal not in available and query.goal not in idb:
        # goal is an EDB predicate: nothing to prune
        return query
    pruned = NDLQuery(Program(kept), query.goal, query.answer_vars)
    return _restrict(pruned)


def _restrict(query: NDLQuery) -> NDLQuery:
    return NDLQuery(query.program.restrict_to(query.goal),
                    query.goal, query.answer_vars)


# -- duplicate elimination ------------------------------------------------


def _canonical_clause(clause: Clause) -> Tuple:
    """A renaming- and body-order-invariant key for a clause.

    Variables are renamed in order of first occurrence along the head
    followed by the body sorted on a renaming-independent skeleton;
    equalities are normalised as unordered pairs.  Two clauses with the
    same key are identical up to variable names and body order.
    """
    literals = sorted(
        clause.body_literals,
        key=lambda atom: (atom.predicate, len(atom.args),
                          tuple(clause.head.args.index(a)
                                if a in clause.head.args else -1
                                for a in atom.args)))
    naming: Dict[str, int] = {}

    def rank(variable: str) -> int:
        if variable not in naming:
            naming[variable] = len(naming)
        return naming[variable]

    head_key = (clause.head.predicate,
                tuple(rank(v) for v in clause.head.args))
    body_key = tuple((atom.predicate, tuple(rank(v) for v in atom.args))
                     for atom in literals)
    eq_key = frozenset(
        frozenset((rank(eq.left), rank(eq.right)))
        for eq in clause.body_equalities)
    return (head_key, body_key, eq_key)


def remove_duplicate_clauses(query: NDLQuery) -> NDLQuery:
    """Remove clauses that duplicate an earlier clause of the same
    predicate up to variable renaming and body reordering."""
    seen: Set[Tuple] = set()
    kept: List[Clause] = []
    for clause in query.program.clauses:
        key = _canonical_clause(clause)
        if key in seen:
            continue
        seen.add(key)
        kept.append(clause)
    return NDLQuery(Program(kept), query.goal, query.answer_vars)


# -- Tw*-style inlining -----------------------------------------------------


def _usage_counts(program: Program) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for clause in program.clauses:
        for atom in clause.body_literals:
            counts[atom.predicate] = counts.get(atom.predicate, 0) + 1
    return counts


def _inline_body(inlinable: Dict[str, Clause], call: Literal,
                 counter: "itertools.count") -> List[object]:
    """The definition body with head variables bound to the call's
    arguments and all other variables freshened.

    Atoms of the substituted body that reference another inlinable
    predicate are expanded recursively — their definitions are about to
    be removed, so every call site must be resolved now.  Recursion
    terminates because the program is nonrecursive.
    """
    definition = inlinable[call.predicate]
    mapping: Dict[str, str] = dict(zip(definition.head.args, call.args))
    suffix = f"_i{next(counter)}"
    body: List[object] = []
    for atom in definition.body:
        renamed = atom.rename({
            variable: mapping.get(variable, variable + suffix)
            for variable in atom.variables})
        if isinstance(renamed, Literal) and renamed.predicate in inlinable:
            body.extend(_inline_body(inlinable, renamed, counter))
        else:
            body.append(renamed)
    return body


def inline_single_definition(query: NDLQuery, max_uses: int = 2,
                             max_passes: int = 10) -> NDLQuery:
    """The Appendix D.4 ``Tw*`` optimisation, generalised.

    Every IDB predicate (other than the goal) that is defined by a
    single clause and occurs at most ``max_uses`` times in clause
    bodies is substituted into its callers; passes repeat until a
    fixpoint (or ``max_passes``), so chains of single-use predicates
    collapse completely.  Unlike
    :func:`repro.datalog.transform.inline_edb_leaves`, definitions may
    themselves call IDB predicates.
    """
    current = query
    for _ in range(max_passes):
        program = current.program
        counts = _usage_counts(program)
        inlinable: Dict[str, Clause] = {}
        for predicate in program.idb_predicates:
            if predicate == current.goal:
                continue
            defining = program.clauses_for(predicate)
            if len(defining) != 1:
                continue
            if counts.get(predicate, 0) > max_uses:
                continue
            # do not inline a definition into itself (cannot happen in
            # an NDL program, but keep the guard local and obvious)
            if any(atom.predicate == predicate
                   for atom in defining[0].body_literals):
                continue
            inlinable[predicate] = defining[0]
        if not inlinable:
            return current
        counter = itertools.count()
        clauses: List[Clause] = []
        for clause in program.clauses:
            if clause.head.predicate in inlinable:
                continue
            body: List[object] = []
            for atom in clause.body:
                if isinstance(atom, Literal) and atom.predicate in inlinable:
                    body.extend(_inline_body(inlinable, atom, counter))
                else:
                    body.append(atom)
            clauses.append(Clause(clause.head, tuple(body)))
        current = NDLQuery(Program(clauses), current.goal,
                           current.answer_vars)
    return current


# -- the pipeline -------------------------------------------------------------


def optimize(query: NDLQuery, abox: Optional[ABox] = None,
             inline: bool = True, max_uses: int = 2,
             nonempty: Optional[Iterable[str]] = None) -> NDLQuery:
    """The full optimisation pipeline.

    1. restrict to the clauses reachable from the goal;
    2. with ``abox`` (or its ``nonempty`` signature, when the caller
       already holds it), prune clauses over predicates empty in the
       data (answers are then only guaranteed for instances over the
       same nonempty signature — ``Plan.execute`` re-specialises when
       the signature changes);
    3. drop duplicate clauses;
    4. with ``inline``, apply the generalised Tw* inlining.
    """
    current = _restrict(query)
    if abox is not None:
        nonempty = nonempty_signature(abox)
    if nonempty is not None:
        current = prune_empty_predicates(current, nonempty)
    current = remove_duplicate_clauses(current)
    if inline:
        current = inline_single_definition(current, max_uses=max_uses)
    return _restrict(current)
