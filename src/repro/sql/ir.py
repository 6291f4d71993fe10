"""A structured relational IR for compiled NDL queries, and its renderer.

:mod:`repro.sql.compile` used to assemble SQL text directly with
f-strings; every transformation then had to re-parse its own output
(the old ``cte_query`` literally split on ``" AS\\n"``).  This module
replaces the strings with a small algebra of frozen dataclass nodes —
:class:`ColumnRef` and :class:`SQLLiteral` expressions,
:class:`Comparison` conditions, :class:`Select` (projection + joins +
conjunctive filter), :class:`Union` (set union of selects),
:class:`Definition` (one IDB predicate's relation) and
:class:`QueryIR` (the whole compiled query) — and renders them to
SQLite text.  Identifier quoting and string-literal escaping happen in
exactly one place each (:func:`quote_identifier`,
:func:`quote_literal`), so hostile predicate names — embedded quotes,
``" AS\\n"`` substrings, SQL keywords — are safe by construction
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


# -- the two choke points every identifier/literal passes through ----------

def quote_identifier(name: str) -> str:
    """Quote an arbitrary string as a SQL identifier."""
    return '"' + name.replace('"', '""') + '"'


def quote_literal(value: str) -> str:
    """Quote an arbitrary string as a SQL string literal."""
    return "'" + value.replace("'", "''") + "'"


# -- nodes -----------------------------------------------------------------

@dataclass(frozen=True)
class SQLLiteral:
    """A string literal (every NDL constant is TEXT)."""

    value: str


@dataclass(frozen=True)
class ColumnRef:
    """A column reference, optionally alias-qualified.

    ``table`` is a generated alias (``t0``, ``t1``, ...) or ``None``
    for a bare column name (the goal select reads unqualified
    columns).  Aliases and positional column names are generated by
    the compiler and never need quoting.
    """

    table: Optional[str]
    column: str


Expr = object  # ColumnRef | SQLLiteral


@dataclass(frozen=True)
class Comparison:
    """``left <op> right`` with ``op`` one of ``=``, ``!=``, ``<``, ...."""

    left: Expr
    op: str
    right: Expr


@dataclass(frozen=True)
class OutputColumn:
    """One projected expression with its output alias (``expr AS c0``)."""

    expr: Expr
    alias: str


@dataclass(frozen=True)
class TableRef:
    """One FROM entry: the (unquoted) relation name plus its alias.

    ``relation`` already carries the schema prefix
    (:data:`repro.sql.schema.TABLE_PREFIX` + predicate name) but is
    stored *unquoted*; only the renderer quotes.  ``alias=None`` scans
    the relation without an alias (the goal select).
    """

    relation: str
    alias: Optional[str]


@dataclass(frozen=True)
class Select:
    """A conjunctive query block: ``SELECT DISTINCT`` projection over a
    filtered join."""

    columns: Tuple[OutputColumn, ...]
    tables: Tuple[TableRef, ...] = ()
    where: Tuple[Comparison, ...] = ()


@dataclass(frozen=True)
class Union:
    """The set union (SQL ``UNION``, always duplicate-eliminating) of
    one or more selects — an IDB predicate's definition."""

    selects: Tuple[Select, ...]

    def __post_init__(self):
        if not self.selects:
            raise ValueError("a Union needs at least one select")


@dataclass(frozen=True)
class Definition:
    """One defined relation: the predicate it computes, its (unquoted,
    prefixed) relation name, and the union defining it."""

    predicate: str
    relation: str
    union: Union


@dataclass(frozen=True)
class QueryIR:
    """The whole compiled query: definitions in dependence order plus
    the final goal select."""

    definitions: Tuple[Definition, ...]
    goal: Select


# -- rendering -------------------------------------------------------------

def render_expr(expr: Expr) -> str:
    if isinstance(expr, ColumnRef):
        if expr.table is None:
            return expr.column
        return f"{expr.table}.{expr.column}"
    if isinstance(expr, SQLLiteral):
        return quote_literal(expr.value)
    raise TypeError(f"not an expression node: {expr!r}")


def render_condition(condition: Comparison) -> str:
    return (f"{render_expr(condition.left)} {condition.op} "
            f"{render_expr(condition.right)}")


def render_table(table: TableRef) -> str:
    quoted = quote_identifier(table.relation)
    if table.alias is None:
        return quoted
    return f"{quoted} AS {table.alias}"


def render_select(select: Select) -> str:
    columns = ", ".join(
        f"{render_expr(column.expr)} AS {column.alias}"
        if not (isinstance(column.expr, ColumnRef)
                and column.expr.table is None
                and column.expr.column == column.alias)
        else column.alias
        for column in select.columns)
    statement = "SELECT DISTINCT " + columns
    if select.tables:
        statement += " FROM " + ", ".join(map(render_table, select.tables))
    if select.where:
        statement += " WHERE " + " AND ".join(
            map(render_condition, select.where))
    return statement


def render_union(union: Union) -> str:
    return "\nUNION\n".join(map(render_select, union.selects))


def render_definition(definition: Definition) -> str:
    """``CREATE TABLE <relation> AS <union>``: the relation computed
    bottom-up, as Appendix D.4's materialising engines do."""
    return (f"CREATE TABLE {quote_identifier(definition.relation)} AS\n"
            f"{render_union(definition.union)}")


def render_cte_query(ir: QueryIR) -> str:
    """The query as one ``WITH``-query (one CTE per definition)."""
    if not ir.definitions:
        return render_select(ir.goal)
    clauses = ",\n".join(
        f"{quote_identifier(definition.relation)} AS (\n"
        f"{render_union(definition.union)}\n)"
        for definition in ir.definitions)
    return f"WITH {clauses}\n{render_select(ir.goal)}"
