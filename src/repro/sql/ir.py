"""A structured relational IR for compiled NDL queries.

:mod:`repro.sql.compile` used to assemble SQL text directly with
f-strings; every transformation then had to re-parse its own output
(the old ``cte_query`` literally split on ``" AS\\n"``).  This module
replaces the strings with a small algebra of frozen dataclass nodes —

* expressions: :class:`ColumnRef`, :class:`SQLLiteral`;
* conditions: :class:`Comparison`, :class:`InList`, :class:`Disjunction`;
* :class:`Select` (projection + joins + conjunctive filter),
  :class:`Union` (set union of selects), :class:`Definition` (one IDB
  predicate's relation) and :class:`QueryIR` (the whole compiled
  query) —

over which the :mod:`repro.sql.optimize` passes rewrite, and which
a dialect renderer (:class:`SQLiteDialect`) turns into text.  Identifier quoting and string-literal escaping happen
in exactly one place each (:meth:`Dialect.quote_identifier`,
:meth:`Dialect.quote_literal`), so hostile predicate names — embedded
quotes, ``" AS\\n"`` substrings, SQL keywords — are safe by
construction everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, Iterator, Optional, Tuple

#: The renderable dialects, keyed by :attr:`Dialect.name`.
DIALECT_NAMES = ("sqlite",)


# -- expressions -----------------------------------------------------------

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


# -- conditions ------------------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    """``left <op> right`` with ``op`` one of ``=``, ``!=``, ``<``, ...."""

    left: Expr
    op: str
    right: Expr


@dataclass(frozen=True)
class InList:
    """``operand IN (value, ...)`` — the rendered form of an OR-chain
    of equalities against literals."""

    operand: Expr
    values: Tuple[SQLLiteral, ...]


@dataclass(frozen=True)
class Disjunction:
    """``(cond OR cond OR ...)`` — merged union branches that differ in
    one non-literal condition."""

    parts: Tuple[object, ...]


Condition = object  # Comparison | InList | Disjunction


# -- relational nodes ------------------------------------------------------

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

    ``arity`` is the scanned relation's column count when the builder
    knows it (the compiler always does); the DISTINCT-elision pass
    needs it to reason about *unreferenced* columns and conservatively
    skips selects scanning a table of unknown arity.  It is excluded
    from equality so hand-built IR without arities still compares
    equal to compiler output.
    """

    relation: str
    alias: Optional[str]
    arity: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Select:
    """A conjunctive query block: projection over a filtered join."""

    columns: Tuple[OutputColumn, ...]
    tables: Tuple[TableRef, ...] = ()
    where: Tuple[Condition, ...] = ()
    distinct: bool = True


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
    prefixed) relation name, and the union defining it.

    ``synthetic`` marks relations introduced by the optimizer (hoisted
    common subqueries) rather than by an IDB predicate.
    """

    predicate: str
    relation: str
    union: Union
    synthetic: bool = False


@dataclass(frozen=True)
class QueryIR:
    """The whole compiled query: definitions in dependence order plus
    the final goal select."""

    definitions: Tuple[Definition, ...]
    goal: Select
    materialised: bool


# -- node accounting -------------------------------------------------------

def iter_nodes(node) -> Iterator[object]:
    """Depth-first walk over every IR dataclass node."""
    if is_dataclass(node) and not isinstance(node, type):
        yield node
        for field in fields(node):
            yield from iter_nodes(getattr(node, field.name))
    elif isinstance(node, tuple):
        for item in node:
            yield from iter_nodes(item)


def node_count(node) -> int:
    """The number of IR nodes under ``node`` (the optimizer's
    before/after size measure)."""
    return sum(1 for _ in iter_nodes(node))


# -- dialects --------------------------------------------------------------

class Dialect:
    """Renders IR nodes to one SQL dialect's text.

    The base class implements the portable core (both supported
    dialects accept double-quoted identifiers and ``''``-escaped
    string literals); subclasses override what differs.
    """

    name = "?"

    # .. the two choke points every identifier/literal passes through ..

    def quote_identifier(self, name: str) -> str:
        """Quote an arbitrary string as a SQL identifier."""
        return '"' + name.replace('"', '""') + '"'

    def quote_literal(self, value: str) -> str:
        """Quote an arbitrary string as a SQL string literal."""
        return "'" + value.replace("'", "''") + "'"

    # .. expressions ..

    def render_expr(self, expr: Expr) -> str:
        if isinstance(expr, ColumnRef):
            if expr.table is None:
                return expr.column
            return f"{expr.table}.{expr.column}"
        if isinstance(expr, SQLLiteral):
            return self.quote_literal(expr.value)
        raise TypeError(f"not an expression node: {expr!r}")

    def render_condition(self, condition: Condition) -> str:
        if isinstance(condition, Comparison):
            return (f"{self.render_expr(condition.left)} {condition.op} "
                    f"{self.render_expr(condition.right)}")
        if isinstance(condition, InList):
            values = ", ".join(self.render_expr(value)
                               for value in condition.values)
            return f"{self.render_expr(condition.operand)} IN ({values})"
        if isinstance(condition, Disjunction):
            parts = " OR ".join(self.render_condition(part)
                                for part in condition.parts)
            return f"({parts})"
        raise TypeError(f"not a condition node: {condition!r}")

    # .. relational nodes ..

    def render_table(self, table: TableRef) -> str:
        quoted = self.quote_identifier(table.relation)
        if table.alias is None:
            return quoted
        return f"{quoted} AS {table.alias}"

    def render_select(self, select: Select) -> str:
        head = "SELECT DISTINCT " if select.distinct else "SELECT "
        columns = ", ".join(
            f"{self.render_expr(column.expr)} AS {column.alias}"
            if not (isinstance(column.expr, ColumnRef)
                    and column.expr.table is None
                    and column.expr.column == column.alias)
            else column.alias
            for column in select.columns)
        statement = head + columns
        if select.tables:
            statement += " FROM " + ", ".join(self.render_table(table)
                                              for table in select.tables)
        if select.where:
            statement += " WHERE " + " AND ".join(
                self.render_condition(condition)
                for condition in select.where)
        return statement

    def render_union(self, union: Union) -> str:
        return "\nUNION\n".join(self.render_select(select)
                                for select in union.selects)

    def render_definition(self, definition: Definition,
                          materialised: bool) -> str:
        kind = "TABLE" if materialised else "VIEW"
        return (f"CREATE {kind} "
                f"{self.quote_identifier(definition.relation)} AS\n"
                f"{self.render_union(definition.union)}")

    # .. whole-query forms ..

    def render_statements(self, ir: QueryIR) -> Tuple[str, ...]:
        return tuple(self.render_definition(definition, ir.materialised)
                     for definition in ir.definitions)

    def render_goal(self, ir: QueryIR) -> str:
        return self.render_select(ir.goal)

    def render_cte_query(self, ir: QueryIR) -> str:
        """The query as one ``WITH``-query (one CTE per definition)."""
        if not ir.definitions:
            return self.render_goal(ir)
        clauses = ",\n".join(
            f"{self.quote_identifier(definition.relation)} AS (\n"
            f"{self.render_union(definition.union)}\n)"
            for definition in ir.definitions)
        return f"WITH {clauses}\n{self.render_goal(ir)}"


class SQLiteDialect(Dialect):
    """The stdlib DBMS — the reference renderer."""

    name = "sqlite"


_DIALECTS: Dict[str, Dialect] = {dialect.name: dialect
                                 for dialect in (SQLiteDialect(),)}


def get_dialect(name: str) -> Dialect:
    """The shared renderer instance for ``name`` (renderers are
    stateless)."""
    try:
        return _DIALECTS[name]
    except KeyError:
        raise ValueError(f"unknown SQL dialect {name!r}; expected one "
                         f"of {DIALECT_NAMES}") from None
