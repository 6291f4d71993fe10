"""Compiling NDL queries to SQL.

Every clause becomes a ``SELECT DISTINCT`` over a join of its body
atoms; every IDB predicate becomes the ``UNION`` of its clauses,
computed bottom-up into a table (the materialise-everything strategy
of Appendix D.4).  The compilation is purely syntactic and works for
any nonrecursive program; the database's own planner then chooses the
join order.  :meth:`SQLCompilation.cte_query` gives the same program
as one ``WITH``-query, the form one registers as a single view in
another DBMS.

The compiler writes SQLite text directly.  Every identifier passes
through :func:`quote_identifier` and every string literal through
:func:`quote_literal`, and nothing else quotes, so hostile predicate
names (embedded quotes, ``" AS\\n"`` substrings, SQL keywords) are
safe everywhere; no text is ever re-parsed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..datalog.evaluate import _equality_mapping
from ..datalog.program import Clause, NDLQuery

#: Prefix of every predicate table (avoids clashes with SQLite keywords).
TABLE_PREFIX = "p_"

#: Value stored in the dummy column of nullary predicates.
NULLARY_MARK = "1"


def quote_identifier(name: str) -> str:
    """Quote an arbitrary string as a SQL identifier."""
    return '"' + name.replace('"', '""') + '"'


def quote_literal(value: str) -> str:
    """Quote an arbitrary string as a SQL string literal."""
    return "'" + value.replace("'", "''") + "'"


def table_name(predicate: str) -> str:
    """The (quoted) table name used for a predicate."""
    return quote_identifier(TABLE_PREFIX + predicate)


def column_names(arity: int) -> Tuple[str, ...]:
    """Positional column names ``c0 .. c{arity-1}``."""
    return tuple(f"c{i}" for i in range(arity))


def compile_clause(clause: Clause) -> str:
    """The ``SELECT DISTINCT`` computing one clause: a join of its body
    atoms (aliases ``t0``, ``t1``, ...) filtered by one equality per
    repeated variable."""
    # fold equalities into a variable renaming first (an equality may be
    # the only thing binding a head variable, cf. the Lin/Log clauses
    # with ``x = y`` conjuncts); after renaming every remaining variable
    # occurs in some body literal
    mapping = _equality_mapping(clause)
    head = clause.head.rename(mapping)
    bindings: Dict[str, str] = {}
    tables: List[str] = []
    where: List[str] = []
    for index, atom in enumerate(clause.body_literals):
        atom = atom.rename(mapping)
        tables.append(f"{table_name(atom.predicate)} AS t{index}")
        for column, variable in zip(column_names(len(atom.args)), atom.args):
            reference = f"t{index}.{column}"
            if variable in bindings:
                where.append(f"{bindings[variable]} = {reference}")
            else:
                bindings[variable] = reference
    for variable in head.args:
        if variable not in bindings:
            raise ValueError(
                f"unbound head variable {variable!r} in clause {clause}")

    if head.args:
        columns = [f"{bindings[variable]} AS {column}" for variable, column
                   in zip(head.args, column_names(len(head.args)))]
    else:
        columns = [f"{quote_literal(NULLARY_MARK)} AS c0"]
    statement = "SELECT DISTINCT " + ", ".join(columns)
    if tables:
        statement += " FROM " + ", ".join(tables)
    if where:
        statement += " WHERE " + " AND ".join(where)
    return statement


@dataclass(frozen=True)
class SQLCompilation:
    """The SQL form of an NDL query.

    Attributes
    ----------
    statements:
        ``CREATE TABLE ... AS`` statements, one per defined relation,
        in dependence order (safe to execute sequentially).
    goal_select:
        the final ``SELECT`` reading the goal relation.
    idb_order:
        the defined predicates in the order their statements appear.
    unions:
        each defined predicate's ``UNION`` of clause selects, in
        ``idb_order``: the body of its statement and of its CTE.
    """

    statements: Tuple[str, ...]
    goal_select: str
    idb_order: Tuple[str, ...]
    unions: Tuple[str, ...]

    def script(self) -> str:
        """The full SQL script (statements plus the goal query)."""
        parts = [statement + ";" for statement in self.statements]
        parts.append(self.goal_select + ";")
        return "\n\n".join(parts)

    def cte_query(self) -> str:
        """The whole query as a single ``WITH``-query (one CTE per
        defined relation) — the form one would register as a single
        view."""
        if not self.idb_order:
            return self.goal_select
        ctes = ",\n".join(f"{table_name(predicate)} AS (\n{union}\n)"
                          for predicate, union
                          in zip(self.idb_order, self.unions))
        return f"WITH {ctes}\n{self.goal_select}"


def compile_query(query: NDLQuery) -> SQLCompilation:
    """Compile ``(Pi, G)`` into per-predicate SQL statements: each IDB
    predicate becomes a table computed bottom-up, mirroring the
    materialise-everything strategy of Appendix D.4."""
    idb_order = tuple(predicate for predicate, _ in query.strata)
    unions = tuple("\nUNION\n".join(map(compile_clause, clauses))
                   for _, clauses in query.strata)
    columns = column_names(max(len(query.answer_vars), 1))
    return SQLCompilation(
        statements=tuple(f"CREATE TABLE {table_name(predicate)} AS\n{union}"
                         for predicate, union in zip(idb_order, unions)),
        goal_select=(f"SELECT DISTINCT {', '.join(columns)} "
                     f"FROM {table_name(query.goal)}"),
        idb_order=idb_order,
        unions=unions)
