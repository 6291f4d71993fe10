"""Maintenance of standing-query answers: one retained view per plan.

Subscriptions sharing a plan fingerprint and an engine are a group
with one :class:`View`: on the python engine, every IDB relation of
the specialised program behind the group's answers, in codes.  The
rewritings are nonrecursive datalog, so a view follows what its
backend journalled (``Database.journal``) with one pass of delta
clauses over its strata (Gupta, Mumick & Subrahmanian, "Maintaining
Views Incrementally", SIGMOD 1993): an insert runs each clause with
one body atom seeded by the rows its relation gained; a delete
over-deletes by the same runs over the rows that left, the other atoms
read as they were, then keeps what a head-seeded run still derives
(DRed).  The runs are the evaluator's compiled clauses
(:mod:`repro.datalog.evaluate`); only goal rows that moved are decoded.

A view is materialised afresh — whole program, then a diff against the
group's answers — when it cannot follow: a new group, an emptiness
flip (a new specialised program), a new database, a missed version (an
update that both deleted and inserted journals twice).  Other engines
refresh by :func:`full_reexecute` (the ``/answer`` route, also the
oracle and the resync) and a diff.  The view keeps no answers of its
own: a refresh returns the rows the group's answers gain and lose,
and the group's log (:mod:`repro.standing.registry`) commits them.
The dataset hands over only the groups whose rewriting mentions a
changed predicate, as :func:`variant_changed_predicates` maps it into
each data variant.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Tuple

from ..data.abox import ABox
from ..datalog.evaluate import HEAD, _program, lookups, materialise
from ..datalog.program import ADOM
from ..engine.database import build_index, patch_index
from ..obs.trace import span
from .registry import AnswerDelta

Row = Tuple[str, ...]
Rows = FrozenSet[Row]


def variant_changed_predicates(tbox, delta) -> FrozenSet[str]:
    """The predicates whose extension (may have) changed in the data
    variant a plan evaluates over.

    ``tbox=None`` selects the raw data: exactly the delta's
    predicates.  Otherwise the completed variant: the exact per-key
    set when the update layer recorded one, else the sound
    over-approximation — every predicate in the completion of the
    touched atoms (per-atom closure: no other predicate can change).
    """
    if tbox is None:
        changed = set(delta.raw_changed)
    else:
        exact = delta.completed_changed.get(id(tbox))
        if exact is not None:
            changed = set(exact)
        else:
            changed = {predicate for predicate, _ in
                       ABox(delta.atoms).complete(tbox).atoms()}
    if delta.adom_changed:
        changed.add(ADOM)
    return frozenset(changed)


def full_reexecute(sub, session) -> Rows:
    """The subscription's answers over ``session`` as it is now, under
    the engine and options it subscribed with."""
    result = sub.plan.execute(session, engine=sub.engine,
                              options=sub.options)
    return frozenset(result.answers)


def initialize(sub, session) -> None:
    """Give a new subscription, attached to its group's log, the
    group's answers at its join epoch (``session`` holds the data as
    it is then, under the dataset's read lock).  A current group — not
    stale, at that epoch — is taken as it is, with no execution.  Any
    other runs the answer route: a new group starts from its result,
    and a stale one is healed by it, its members getting one catch-up
    delta at the join epoch.  The healed group's view needs no reset:
    a group is stale only when it is new (it has no view) or its
    refresh or the whole pass failed, and ``Dataset._standing`` drops
    its view then, so its next refresh materialises."""
    group = sub.log
    if group.stale or group.epoch != sub.joined:
        answers = full_reexecute(sub, session)
        with group.condition:
            group.commit(AnswerDelta(sub.joined,
                                     *_diff(group.answers, answers)))


class View:
    """What a delta needs to move one plan group's answers: the
    specialised ``query`` they were computed for, over which
    ``database`` at which ``version``, and its ``derived`` IDB
    relations (codes) with their memoised ``indexes``.  ``query`` is
    ``None`` while there is nothing to move from: the next
    :func:`refresh` materialises."""

    __slots__ = ("query", "database", "version", "derived", "indexes")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Hold nothing to move from: the next refresh materialises."""
        self.query = self.database = self.derived = self.indexes = None

    def skip(self) -> None:
        """The update changed nothing this view reads: keep up."""
        if self.query is not None:
            self.version = self.database.version


def _diff(before: Rows, after: Rows) -> Tuple[Rows, Rows]:
    """The rows ``after`` added to ``before``, and those it removed."""
    return after - before, before - after


def refresh(view: View, sub, session) -> Tuple[Rows, Rows]:
    """Bring ``view`` to the data ``session`` holds now; the rows the
    group's answers (``sub.answers``) gain and lose.  ``sub`` is any
    member of the group (they share plan, engine and data variant).
    The route taken is a span: ``delta``, ``materialise`` or
    ``reexecute``."""
    if sub.engine == "python":
        backend = session.backend(sub.engine, sub.plan._variant_tbox())
        database, query = backend.database, sub.plan.specialised(backend)
        if query is view.query and database is view.database:
            if database.version == view.version:
                return frozenset(), frozenset()
            if database.version == view.version + 1:
                with span("delta"):
                    return _follow(view, database)
        if len(query):
            with span("materialise"):
                view.query, view.database = query, database
                view.version, view.indexes = database.version, {}
                view.derived = materialise(query, database, view.indexes)
                goal = view.derived.get(query.goal,
                                        database.relation(query.goal))
                return _diff(sub.answers, database.decode_rows(goal))
    # every clause pruned (or another engine): the answer route
    view.reset()
    with span("reexecute"):
        return _diff(sub.answers, full_reexecute(sub, session))


def _follow(view: View, database) -> Tuple[Rows, Rows]:
    """Move ``view`` by the database's journal, one call past it."""
    view.version, inserted = database.version, database.inserted
    if view.query.program.edb_predicates.isdisjoint(database.journal):
        return frozenset(), frozenset()
    # predicate -> rows gained or lost: EDB journalled, IDB as moved
    changed = dict(database.journal)
    derived, indexes, token = view.derived, view.indexes, database.token
    relation, index = lookups(database, derived, indexes)
    # a delete's delta terms read the other atoms as they were
    read = ((relation, index) if inserted
            else _before(relation, index, changed))
    for predicate, clauses in _program(view.query):
        found: set = set()
        for clause in clauses:
            for i, atom in enumerate(clause.atoms):
                seed = changed.get(atom.predicate)
                if seed:
                    # a run may hand back a stored _Before: not a set
                    found.update(clause.run(token, *read, seed, i))
        if inserted:
            found -= derived[predicate]
        else:
            # DRed: an over-deleted row stays if a clause rederives it
            for clause in clauses:
                if found:
                    found -= clause.run(token, relation, index, found, HEAD)
        if found:
            rows = derived[predicate]
            (rows.update if inserted else rows.difference_update)(found)
            for (name, positions), built in indexes.items():
                if name == predicate:
                    patch_index(built, positions, found,
                                removed=not inserted)
            changed[predicate] = found
    moved = changed.get(view.query.goal)
    if not moved:
        return frozenset(), frozenset()
    rows = database.decode_rows(moved)
    return (rows, frozenset()) if inserted else (frozenset(), rows)


class _Before:
    """A relation or an index as it was before a delete: what it holds
    ``now`` and what left it, ``gone`` (disjoint), read as one."""

    __slots__ = ("now", "gone")

    def __init__(self, now, gone):
        self.now, self.gone = now, gone

    def __len__(self) -> int:
        return len(self.now) + len(self.gone)

    def __iter__(self):
        return chain(self.now, self.gone)

    def get(self, key) -> tuple:
        return self.now.get(key, ()) + self.gone.get(key, ())


def _before(relation, index, gone: Dict[str, set]):
    """``relation`` and ``index`` as they read before the rows
    ``gone`` left (each predicate's set once its relation moved)."""
    built: Dict[object, _Before] = {}

    def before_relation(predicate: str):
        if predicate not in gone:
            return relation(predicate)
        if predicate not in built:
            built[predicate] = _Before(relation(predicate), gone[predicate])
        return built[predicate]

    def before_index(predicate: str, positions: Tuple[int, ...]):
        if predicate not in gone:
            return index(predicate, positions)
        key = (predicate, positions)
        if key not in built:
            built[key] = _Before(index(predicate, positions),
                                 build_index(gone[predicate], positions))
        return built[key]

    return before_relation, before_index
