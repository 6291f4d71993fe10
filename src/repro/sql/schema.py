"""Relational schema for ABoxes and source databases.

Every predicate becomes one table with positional columns ``c0``,
``c1``, ... (one per argument).  Predicate names may contain characters
that are not valid SQL identifiers (surrogates like ``A_P-``, internal
predicates like ``_sk0`` or ``__adom__``), so table names are derived
by escaping and always double-quoted.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from ..data.abox import ABox
from ..datalog.program import ADOM, Literal, NDLQuery
from .ir import quote_identifier

#: Prefix of every predicate table (avoids clashes with SQLite keywords).
TABLE_PREFIX = "p_"


def table_name(predicate: str) -> str:
    """The (quoted) table name used for a predicate."""
    return quote_identifier(TABLE_PREFIX + predicate)


def column_names(arity: int) -> Tuple[str, ...]:
    """Positional column names ``c0 .. c{arity-1}``."""
    return tuple(f"c{i}" for i in range(arity))


def predicate_arities(query: NDLQuery) -> Dict[str, int]:
    """The arity of every predicate mentioned by the program.

    Raises ``ValueError`` if a predicate is used with two different
    arities — SQL tables have a fixed width, and so do the paper's
    relational instances.
    """
    arities: Dict[str, int] = {}

    def record(literal: Literal) -> None:
        known = arities.get(literal.predicate)
        if known is None:
            arities[literal.predicate] = len(literal.args)
        elif known != len(literal.args):
            raise ValueError(
                f"predicate {literal.predicate!r} used with arities "
                f"{known} and {len(literal.args)}")

    for clause in query.program.clauses:
        record(clause.head)
        for atom in clause.body_literals:
            record(atom)
    arities.setdefault(ADOM, 1)
    return arities


def create_schema(connection: sqlite3.Connection,
                  arities: Mapping[str, int]) -> None:
    """Create one (empty) table per predicate."""
    cursor = connection.cursor()
    for predicate in sorted(arities):
        arity = arities[predicate]
        columns = ", ".join(f"{c} TEXT NOT NULL"
                            for c in column_names(max(arity, 1)))
        cursor.execute(
            f"CREATE TABLE {table_name(predicate)} ({columns})")
    connection.commit()


def load_abox(connection: sqlite3.Connection, abox: ABox,
              arities: Mapping[str, int],
              extra_relations: Optional[Mapping[str, Iterable[Tuple[str, ...]]]] = None
              ) -> None:
    """Populate the schema from a data instance.

    ``arities`` must already contain every predicate to be loaded (use
    :func:`predicate_arities` merged with the ABox signature); tables
    are assumed to exist (see :func:`create_schema`).  ``__adom__`` is
    filled with the active domain — the individuals of the ABox plus
    every constant of ``extra_relations``.
    """
    cursor = connection.cursor()
    adom: Set[str] = set(abox.individuals)

    def insert(predicate: str, rows: Iterable[Tuple[str, ...]]) -> None:
        if predicate not in arities:
            return
        arity = max(arities[predicate], 1)
        placeholders = ", ".join("?" * arity)
        cursor.executemany(
            f"INSERT INTO {table_name(predicate)} VALUES ({placeholders})",
            rows)

    for predicate in sorted(abox.unary_predicates):
        insert(predicate, ((c,) for c in abox.unary(predicate)))
    for predicate in sorted(abox.binary_predicates):
        insert(predicate, abox.binary(predicate))
    if extra_relations:
        for predicate in sorted(extra_relations):
            # dedupe: relations are sets (the ABox sides already are),
            # so generated_tuples and answers match the python engine's
            rows = list(dict.fromkeys(
                tuple(row) for row in extra_relations[predicate]))
            insert(predicate, rows)
            for row in rows:
                adom.update(row)
    insert(ADOM, ((c,) for c in sorted(adom)))
    connection.commit()


def abox_arities(abox: ABox) -> Dict[str, int]:
    """The arity of every predicate occurring in the data."""
    arities = {predicate: 1 for predicate in abox.unary_predicates}
    arities.update({predicate: 2 for predicate in abox.binary_predicates})
    return arities


def merged_arities(query: NDLQuery, abox: ABox,
                   extra_relations: Optional[Mapping[str, Iterable[Tuple[str, ...]]]] = None
                   ) -> Dict[str, int]:
    """Program arities merged with the data signature.

    Data predicates unknown to the program are still loaded so that two
    queries over the same connection see the same facts; a predicate
    used by both must agree on its arity.
    """
    arities = predicate_arities(query)
    for predicate, arity in abox_arities(abox).items():
        known = arities.get(predicate)
        if known is not None and known != arity:
            raise ValueError(
                f"predicate {predicate!r} has arity {known} in the "
                f"program but {arity} in the data")
        arities[predicate] = arity
    if extra_relations:
        for predicate, rows in extra_relations.items():
            for row in rows:
                known = arities.get(predicate)
                if known is not None and known != len(row):
                    raise ValueError(
                        f"predicate {predicate!r} has arity {known} in "
                        f"the program but {len(row)} in extra_relations")
                arities[predicate] = len(row)
                break
    return arities
