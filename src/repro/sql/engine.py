"""Evaluating NDL queries on SQLite: the ``sql`` engine.

:class:`SQLEngine` is the :class:`~repro.engine.backends.Engine` that
:func:`repro.engine.create_engine` builds for ``"sql"``: it loads the
data into a stdlib SQLite database once, computes every IDB predicate
of a query bottom-up into a table (the RDFox strategy of Appendix D.4)
and reports the exact per-predicate relation sizes, so its
:class:`~repro.datalog.evaluate.EvaluationResult` is the python
engine's.  :func:`evaluate_sql` is the one-shot form.
"""

from __future__ import annotations

import sqlite3
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from ..data.abox import ABox
from ..datalog.evaluate import EvaluationResult
from ..datalog.optimize import nonempty_signature
from ..datalog.program import ADOM, NDLQuery
from ..engine.backends import Engine
from ..obs.trace import span as _span
from .compile import SQLCompilation, compile_query
from .schema import (
    create_schema,
    load_abox,
    merged_arities,
    table_name,
)

#: Entries kept in each engine's compiled-SQL memo.
_COMPILATION_CACHE_SIZE = 64


class SQLEngine(Engine):
    """A loaded SQLite database ready to evaluate NDL queries.

    Reusable across queries over the same data: the EDB schema is
    loaded once and per-query tables are dropped after each
    evaluation.  Compilations are memoised per query, so re-evaluating
    the same plan (the session/service hot path) skips compilation.
    """

    name = "sql"

    def __init__(self, abox: ABox,
                 extra_relations: Optional[Mapping[str, Iterable[Tuple[str, ...]]]] = None):
        # check_same_thread=False lets a service session pool hand the
        # engine from one worker thread to another; access is still
        # serialised by the pool (SQLite objects are never used from
        # two threads at once).
        self.connection = sqlite3.connect(":memory:",
                                          check_same_thread=False)
        self._abox = abox
        self._extra = extra_relations
        self._loaded: Dict[str, int] = {}
        self._compilations: "OrderedDict[NDLQuery, SQLCompilation]" = \
            OrderedDict()

    def close(self) -> None:
        self.connection.close()

    # -- loading ------------------------------------------------------------

    def _ensure_loaded(self, arities: Dict[str, int]) -> None:
        """Create and fill the EDB tables that are not present yet."""
        for predicate, arity in arities.items():
            known = self._loaded.get(predicate)
            if known is not None and known != arity:
                raise ValueError(
                    f"predicate {predicate!r} already loaded with arity "
                    f"{known}, requested {arity}")
        missing = {predicate: arity
                   for predicate, arity in arities.items()
                   if predicate not in self._loaded}
        if not missing:
            return
        create_schema(self.connection, missing)
        load_abox(self.connection, self._abox, missing, self._extra)
        self._loaded.update(missing)

    def nonempty(self, predicates: Iterable[str]) -> FrozenSet[str]:
        """The ``predicates`` holding a fact right now, read off the
        backing ABox and ``extra_relations`` (which lazy loading keeps
        authoritative), ``__adom__`` included."""
        held = set(nonempty_signature(self._abox))
        for name, rows in (self._extra or {}).items():
            if any(True for _ in rows):
                held.update((name, ADOM))
        return frozenset(held.intersection(predicates))

    # -- incremental updates -------------------------------------------------

    def apply_delta(self, inserts: Mapping[str, Iterable[Tuple[str, ...]]],
                    deletes: Mapping[str, Iterable[Tuple[str, ...]]],
                    adom_add: Iterable[str] = (),
                    adom_remove: Iterable[str] = ()) -> None:
        """Apply an effective data delta to the already-loaded tables.

        Deletions run before insertions.  Predicates whose tables have
        not been created yet need no work: they are loaded lazily from
        the (already-updated) backing ABox on the next evaluation.  The
        backing :class:`~repro.data.abox.ABox` must therefore be the
        same object the caller mutated — :class:`AnswerSession` updates
        it in place before calling this.
        """
        # validate everything before touching the connection so a bad
        # row cannot leave a half-applied (uncommitted) delta behind
        plan = []
        for phase, batch in (("delete", deletes), ("insert", inserts)):
            for predicate, rows in batch.items():
                arity = self._loaded.get(predicate)
                if arity is None:
                    continue
                arity = max(arity, 1)
                rows = [tuple(row) for row in rows]
                for row in rows:
                    if len(row) != arity:
                        raise ValueError(
                            f"predicate {predicate!r} loaded with arity "
                            f"{arity}, got row of length {len(row)}")
                if phase == "insert":
                    # keep base tables sets, as the loader does, so
                    # generated_tuples and answers match the python
                    # engine's: dedupe the batch and make each insert
                    # idempotent by deleting any existing copy first
                    rows = list(dict.fromkeys(rows))
                plan.append((phase, predicate, arity, rows))
        cursor = self.connection.cursor()
        try:
            for phase, predicate, arity, rows in plan:
                # inserts delete any existing copy first, so both
                # phases start with the same DELETE
                condition = " AND ".join(f"c{i} = ?" for i in range(arity))
                cursor.executemany(
                    f"DELETE FROM {table_name(predicate)} "
                    f"WHERE {condition}", rows)
                if phase == "insert":
                    placeholders = ", ".join("?" * arity)
                    cursor.executemany(
                        f"INSERT INTO {table_name(predicate)} "
                        f"VALUES ({placeholders})", rows)
            if ADOM in self._loaded:
                cursor.executemany(
                    f"DELETE FROM {table_name(ADOM)} WHERE c0 = ?",
                    [(constant,) for constant in adom_remove])
                cursor.executemany(
                    f"INSERT INTO {table_name(ADOM)} VALUES (?)",
                    [(constant,) for constant in adom_add])
        except Exception:
            self.connection.rollback()
            raise
        self.connection.commit()

    # -- evaluation ----------------------------------------------------------

    def _compile(self, query: NDLQuery) -> SQLCompilation:
        cached = self._compilations.get(query)
        if cached is not None:
            self._compilations.move_to_end(query)
            return cached
        with _span("sql-compile"):
            compilation = compile_query(query)
        self._compilations[query] = compilation
        while len(self._compilations) > _COMPILATION_CACHE_SIZE:
            self._compilations.popitem(last=False)
        return compilation

    def evaluate(self, query: NDLQuery) -> EvaluationResult:
        """Evaluate one NDL query and drop its IDB tables afterwards."""
        arities = merged_arities(query, self._abox, self._extra)
        idb = query.program.idb_predicates
        self._ensure_loaded({predicate: arity
                             for predicate, arity in arities.items()
                             if predicate not in idb})
        compilation = self._compile(query)
        cursor = self.connection.cursor()
        sizes: Dict[str, int] = {}
        try:
            for predicate, statement in zip(compilation.idb_order,
                                            compilation.statements):
                cursor.execute(statement)
                sizes[predicate] = cursor.execute(
                    f"SELECT COUNT(*) FROM {table_name(predicate)}"
                ).fetchone()[0]
            answers = self._goal_rows(cursor, compilation, query)
        finally:
            self._drop(cursor, compilation)
        return EvaluationResult(frozenset(answers),
                                sum(sizes.values()), sizes)

    def _goal_rows(self, cursor, compilation: SQLCompilation,
                   query: NDLQuery) -> set:
        if query.goal not in compilation.idb_order:
            # goal is a plain EDB predicate: read its table directly
            arity = self._loaded.get(query.goal)
            if arity is None:
                return set()
            rows = cursor.execute(
                f"SELECT DISTINCT * FROM {table_name(query.goal)}"
            ).fetchall()
        else:
            rows = cursor.execute(compilation.goal_select).fetchall()
        if not query.answer_vars:
            return {()} if rows else set()
        return {tuple(row) for row in rows}

    def _drop(self, cursor, compilation: SQLCompilation) -> None:
        for predicate in reversed(compilation.idb_order):
            cursor.execute(f"DROP TABLE IF EXISTS {table_name(predicate)}")
        self.connection.commit()


def evaluate_sql(query: NDLQuery, abox: ABox,
                 extra_relations: Optional[Mapping[str, Iterable[Tuple[str, ...]]]] = None
                 ) -> EvaluationResult:
    """One-shot SQL evaluation of ``(Pi, G)`` over ``abox``.

    Semantically identical to :func:`repro.datalog.evaluate.evaluate`
    (the property tests check this); use :class:`SQLEngine` directly to
    amortise data loading across many queries.
    """
    with SQLEngine(abox, extra_relations) as engine:
        return engine.evaluate(query)
