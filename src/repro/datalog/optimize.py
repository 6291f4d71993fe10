"""NDL program optimisation.

Section 6 points to "optimisation techniques for removing redundant
rules or sub-queries from rewritings [53, 50, 28, 39] or exploiting the
emptiness of certain predicates [59]"; Appendix D.4 hand-optimises the
Tw rewriting into ``Tw*`` by inlining predicates "defined by a single
rule and [occurring] not more than twice in the bodies of the rules",
noting that "this substitution could be done automatically by a clever
NDL engine, but [is] not performed by RDFox".  This module is that
clever layer, and the one place a definition is substituted into its
calls (two selection policies share the substitution):

* :func:`prune_empty_predicates` — emptiness-aware pruning: clauses
  using a predicate that is provably empty for a given data signature
  are dropped (the [59] optimisation);
* :func:`remove_duplicate_clauses` — syntactic duplicates modulo
  variable renaming and body reordering;
* :func:`inline_edb_leaves` — the Appendix A.6 display step the
  rewriters apply to their output;
* :func:`inline_single_definition` — the generalised Tw* inlining;
* :func:`optimize` — the pipeline ``Plan.execute`` runs on every plan.

Each pass of :func:`optimize` is kept by a count, from the
leave-one-out in ``benchmarks/datalog_pass_ablation.json`` over the
48 ``eval-tables`` cells (241 clauses, 286,209 generated tuples with
all passes) and the 24 PerfectRef chains of up to 8 atoms: without
pruning the cells generate 580,236 tuples, without inlining 1,339,090;
without deduplication the cells are unchanged but 15 of the 24
PerfectRef chains keep more clauses (sequence1[:7]: 9,915, not 6,789).

All transformations preserve the answers over every data instance
(checked by differential property tests in ``tests/test_optimize.py``);
``prune_empty_predicates`` preserves answers over every instance
*within the given signature*.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..data.abox import ABox
from .program import ADOM, Clause, Equality, Literal, NDLQuery, Program


def nonempty_signature(abox: ABox) -> FrozenSet[str]:
    """The predicates with at least one fact in ``abox``.

    ``__adom__`` is included whenever the data has any individual at
    all (any atom names one) — it is never empty then, whatever the
    program.
    """
    names: Set[str] = set(abox.unary_predicates) | set(abox.binary_predicates)
    if names:
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


# -- substitution: the A.6 display step and Tw* ------------------------------


def _substitute(query: NDLQuery, definitions: Dict[str, Clause],
                tag: str) -> NDLQuery:
    """``query`` without the clauses in ``definitions`` and with every
    call of one of their predicates replaced by its body: head
    variables bound to the call's arguments, the others freshened with
    ``_<tag><n>``, ``n`` counting the expansions.  A head variable
    that repeats equates the arguments it meets.  A definition that
    calls another one expands recursively, which ends because the
    program is nonrecursive."""
    counter = itertools.count()

    def expand(body: Iterable[object]) -> List[object]:
        expanded: List[object] = []
        for atom in body:
            if not (isinstance(atom, Literal)
                    and atom.predicate in definitions):
                expanded.append(atom)
                continue
            definition = definitions[atom.predicate]
            mapping: Dict[str, str] = {}
            equalities = []
            for parameter, argument in zip(definition.head.args,
                                           atom.args):
                bound = mapping.setdefault(parameter, argument)
                if bound != argument:
                    equalities.append(Equality(bound, argument))
            suffix = f"_{tag}{next(counter)}"
            expanded.extend(expand([
                part.rename({variable: mapping.get(variable,
                                                   variable + suffix)
                             for variable in part.variables})
                for part in definition.body]))
            expanded.extend(equalities)
        return expanded

    clauses = [Clause(clause.head, tuple(expand(clause.body)))
               for clause in query.program.clauses
               if clause.head.predicate not in definitions]
    return NDLQuery(Program(clauses), query.goal, query.answer_vars)


def _single_definitions(query: NDLQuery) -> Dict[str, Clause]:
    """Each IDB predicate but the goal that one clause defines, with
    that clause."""
    program = query.program
    return {predicate: program.clauses_for(predicate)[0]
            for predicate in program.idb_predicates
            if predicate != query.goal
            and len(program.clauses_for(predicate)) == 1}


def inline_edb_leaves(query: NDLQuery) -> NDLQuery:
    """The Appendix A.6 display simplification: a predicate defined by
    a single clause over EDB predicates only is substituted into its
    callers (e.g. ``G_q(x) <- q(x)`` base cases of the Tw rewriter and
    leaf bags of the Log rewriter).

    One pass, no cascading, so the structure of the rewriting stays.
    """
    idb = query.program.idb_predicates
    leaves = {predicate: clause
              for predicate, clause in _single_definitions(query).items()
              if not any(atom.predicate in idb
                         for atom in clause.body_literals)}
    return _substitute(query, leaves, "l") if leaves else query


#: Appendix D.4's bound: ``Tw*`` inlines a single-clause predicate
#: occurring "not more than twice in the bodies of the rules".
TW_STAR_USES = 2


def inline_single_definition(query: NDLQuery) -> NDLQuery:
    """The Appendix D.4 ``Tw*`` optimisation, generalised to any NDL
    query.

    Every predicate but the goal defined by a single clause and
    occurring at most :data:`TW_STAR_USES` times in clause bodies is
    substituted into its callers, until none is left: each pass
    removes at least one IDB predicate, so chains of such predicates
    collapse completely.  Unlike :func:`inline_edb_leaves`, a
    definition may itself call IDB predicates.
    """
    while True:
        uses = Counter(atom.predicate for clause in query.program.clauses
                       for atom in clause.body_literals)
        inlinable = {predicate: clause for predicate, clause
                     in _single_definitions(query).items()
                     if uses[predicate] <= TW_STAR_USES}
        if not inlinable:
            return query
        query = _substitute(query, inlinable, "i")


# -- the pipeline -------------------------------------------------------------


def optimize(query: NDLQuery, nonempty: Iterable[str]) -> NDLQuery:
    """The program ``Plan.execute`` runs over data whose nonempty
    predicates are among ``nonempty`` (:func:`nonempty_signature`):

    1. restrict to the clauses reachable from the goal;
    2. prune clauses over predicates empty in the data (answers are
       then only guaranteed over the same nonempty signature —
       ``Plan.execute`` re-specialises when the signature changes);
    3. drop duplicate clauses;
    4. apply the ``Tw*`` inlining;
    5. keep each body atom of a clause once: inlining can repeat one,
       and a repeat only adds a self-join.
    """
    current = prune_empty_predicates(_restrict(query), nonempty)
    current = inline_single_definition(remove_duplicate_clauses(current))
    clauses = [Clause(clause.head, tuple(dict.fromkeys(clause.body)))
               for clause in current.program.clauses]
    return _restrict(NDLQuery(Program(clauses), current.goal,
                              current.answer_vars))
