"""Interned, indexed EDB storage shared across query evaluations.

The paper's experiments (Tables 3-5) evaluate *many* NDL rewritings of
the same OMQ over the *same* data instance.  :class:`Database` is the
load-once side of that workload: constants are interned to dense
integers a single time, per-predicate hash indexes are built on demand
— keyed by the tuple of bound argument positions a join probes — and
both survive across queries, so only the first evaluation of a session
pays the loading cost.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from ..data.abox import ABox
from ..datalog.evaluate import CodedRows, IntRelation, IntRow
from ..datalog.program import ADOM

#: Hash index of a relation on argument positions.  Keys are the bare
#: integer code for a single position and a tuple of codes otherwise
#: (probes must build their keys the same way).
Index = Dict[object, Tuple[IntRow, ...]]

_EMPTY_RELATION: IntRelation = frozenset()


def build_index(relation: Iterable[IntRow],
                positions: Tuple[int, ...]) -> Index:
    """Group ``relation`` by the projection onto ``positions``."""
    if not positions:
        rows = tuple(relation)
        return {(): rows} if rows else {}
    buckets: Dict[object, List[IntRow]] = {}
    if len(positions) == 1:
        position = positions[0]
        for row in relation:
            buckets.setdefault(row[position], []).append(row)
    else:
        project = itemgetter(*positions)
        for row in relation:
            buckets.setdefault(project(row), []).append(row)
    return {key: tuple(rows) for key, rows in buckets.items()}


def patch_index(index: Index, positions: Tuple[int, ...],
                rows: Iterable[IntRow], removed: bool = False) -> None:
    """Add distinct ``rows`` to (``removed``: take them out of) their
    buckets of ``index`` on ``positions``, nothing rebuilt: each touched
    bucket is replaced by one new tuple, an emptied one loses its key.
    """
    grouped: Dict[object, List[IntRow]] = {}
    key_of = itemgetter(*positions) if positions else lambda row: ()
    for row in rows:
        grouped.setdefault(key_of(row), []).append(row)
    for key, changed in grouped.items():
        bucket = index.get(key, ())
        if not removed:
            index[key] = bucket + tuple(changed)
        elif len(bucket) == len(changed):  # distinct rows: all of it
            del index[key]
        else:
            gone = set(changed)
            index[key] = tuple(row for row in bucket if row not in gone)


class Database:
    """A data instance loaded once: interned constants plus indexes.

    Construction interns every constant of ``abox`` and of the optional
    ``extra_relations`` (any arity; they override same-named ABox
    predicates) and stores the EDB relations, ``__adom__`` included,
    over integer codes.  :meth:`index` memoises one hash index per
    ``(predicate, bound positions)`` for the database's lifetime.

    :attr:`version` counts the :meth:`insert_facts`/:meth:`delete_facts`
    calls that changed the data; :attr:`journal` holds the rows the last
    one :attr:`inserted` (else removed) per predicate, ``__adom__``
    included: a reader at version ``v`` catches up from it at ``v + 1``.
    """

    def __init__(self, abox: ABox,
                 extra_relations: Optional[
                     Mapping[str, Iterable[Tuple[str, ...]]]] = None):
        #: identifies this database, and no other now or after it is
        #: collected, in the join-order memos of compiled clauses
        self.token = object()
        self._codes: Dict[str, int] = {}
        self._names: List[str] = []
        self._relations: Dict[str, IntRelation] = {}
        self._indexes: Dict[Tuple[str, Tuple[int, ...]], Index] = {}
        self.version, self.inserted = 0, True
        self.journal: Dict[str, IntRelation] = {}
        intern = self.intern
        for predicate in abox.unary_predicates:
            self._relations[predicate] = {
                (intern(c),) for c in abox.unary(predicate)}
        for predicate in abox.binary_predicates:
            self._relations[predicate] = {
                (intern(a), intern(b)) for a, b in abox.binary(predicate)}
        adom = {intern(c) for c in abox.individuals}
        if extra_relations:
            for name, rows in extra_relations.items():
                stored = {tuple(intern(c) for c in row) for row in rows}
                self._relations[name] = stored
                for row in stored:
                    adom.update(row)
        self._relations[ADOM] = {(code,) for code in adom}

    # -- constants ---------------------------------------------------------

    def intern(self, constant: str) -> int:
        """The integer code of ``constant`` (assigned on first use)."""
        code = self._codes.get(constant)
        if code is None:
            code = len(self._names)
            self._codes[constant] = code
            self._names.append(constant)
        return code

    def decode(self, code: int) -> str:
        return self._names[code]

    def coded(self, rows: IntRelation) -> CodedRows:
        """``rows`` flattened in C, still in this database's codes.  They
        decode to the same constants after any later update: names are
        only ever appended, and a code is never reassigned."""
        return CodedRows(list(chain.from_iterable(rows)),
                         len(next(iter(rows), ())), len(rows), self._names)

    def decode_rows(self, rows: IntRelation) -> FrozenSet[Tuple[str, ...]]:
        """``rows`` as constants, flattened and regrouped in C."""
        return self.coded(rows).decode()

    @property
    def constants(self) -> int:
        """Number of distinct interned constants."""
        return len(self._names)

    # -- relations ---------------------------------------------------------

    @property
    def predicates(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def relation(self, predicate: str) -> IntRelation:
        """The stored facts of ``predicate`` (empty if unknown)."""
        return self._relations.get(predicate, _EMPTY_RELATION)

    def index(self, predicate: str, positions: Tuple[int, ...]) -> Index:
        """The hash index of ``predicate`` on ``positions``, memoised:
        what a join that has bound those arguments probes, and whose
        key count the join planner costs it by."""
        key = (predicate, positions)
        index = self._indexes.get(key)
        if index is None:
            index = build_index(self.relation(predicate), positions)
            self._indexes[key] = index
        return index

    def distinct_keys(self, predicate: str,
                      positions: Tuple[int, ...]) -> int:
        """Distinct values of the projection onto ``positions``."""
        return len(self.index(predicate, positions))

    # -- incremental updates -----------------------------------------------

    def insert_facts(self, facts: Mapping[str, Iterable[Tuple[str, ...]]],
                     ) -> int:
        """Insert named rows in place; returns the number actually added.

        The delta path of :mod:`repro.service.updates`: new constants
        are interned, previously unseen ones join ``__adom__``, and
        the memoised indexes are patched (:meth:`_patch_indexes`).
        """
        intern = self.intern
        journal: Dict[str, IntRelation] = {}
        new_adom: Set[int] = set()
        adom = self._relations.setdefault(ADOM, set())
        for predicate, rows in facts.items():
            relation = self._relations.get(predicate)
            if relation is None:
                relation = self._relations[predicate] = set()
            fresh = set()
            for row in rows:
                coded = tuple(intern(c) for c in row)
                if coded not in relation:
                    relation.add(coded)
                    fresh.add(coded)
                    for code in coded:
                        if (code,) not in adom:
                            new_adom.add(code)
            if fresh:
                journal[predicate] = fresh
                self._patch_indexes(predicate, fresh)
        if new_adom:
            adom_rows = journal[ADOM] = {(code,) for code in new_adom}
            adom.update(adom_rows)
            self._patch_indexes(ADOM, adom_rows)
        return self._record(True, journal)

    def delete_facts(self, facts: Mapping[str, Iterable[Tuple[str, ...]]],
                     removed_constants: Iterable[str] = ()) -> int:
        """Remove named rows in place; returns the number removed.

        The mirror of :meth:`insert_facts`.  ``removed_constants``
        names constants that left the data instance entirely: they
        leave ``__adom__`` (their interned codes remain allocated,
        which is unobservable through the relations).
        """
        codes = self._codes
        journal: Dict[str, IntRelation] = {}
        for predicate, rows in facts.items():
            relation = self._relations.get(predicate)
            if not relation:
                continue
            gone = set()
            for row in rows:
                try:
                    coded = tuple(codes[c] for c in row)
                except KeyError:
                    continue
                if coded in relation:
                    relation.discard(coded)
                    gone.add(coded)
            if gone:
                journal[predicate] = gone
                self._patch_indexes(predicate, gone, removed=True)
        adom = self._relations.setdefault(ADOM, set())
        gone = {(codes[c],) for c in removed_constants
                if c in codes and (codes[c],) in adom}
        if gone:
            journal[ADOM] = gone
            adom.difference_update(gone)
            self._patch_indexes(ADOM, gone, removed=True)
        return self._record(False, journal)

    def _record(self, inserted: bool,
                journal: Dict[str, IntRelation]) -> int:
        """Journal one call's effective rows (a call that changed
        nothing keeps the version); the number of facts it changed."""
        if journal:
            self.version += 1
            self.inserted, self.journal = inserted, journal
        return sum(len(rows) for name, rows in journal.items()
                   if name != ADOM)

    def _patch_indexes(self, predicate: str, rows: IntRelation,
                       removed: bool = False) -> None:
        """:func:`patch_index` over every memoised index of
        ``predicate`` (:meth:`distinct_keys` stays exact)."""
        for (name, positions), index in self._indexes.items():
            if name == predicate:
                patch_index(index, positions, rows, removed)

    def __repr__(self) -> str:
        facts = sum(len(rows) for name, rows in self._relations.items()
                    if name != ADOM)
        return (f"Database({facts} facts, {self.constants} constants, "
                f"{len(self._indexes)} indexes)")
