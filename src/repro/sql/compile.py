"""Compiling NDL queries to SQL.

Every clause becomes a ``SELECT DISTINCT`` over a join of its body
atoms; every IDB predicate becomes the ``UNION`` of its clauses,
computed bottom-up into a table (the materialise-everything strategy
of Appendix D.4).  The compilation is purely syntactic and works for
any nonrecursive program; the database's own planner then chooses the
join order.  :meth:`SQLCompilation.cte_query` gives the same program
as one ``WITH``-query, the form one registers as a single view in
another DBMS.

The compiler builds a structured :class:`~repro.sql.ir.QueryIR`
(:func:`compile_query_ir`) and only then renders text
(:mod:`repro.sql.ir`), so nothing operates on SQL strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..datalog.evaluate import _equality_mapping
from ..datalog.program import Clause, NDLQuery
from .ir import (
    ColumnRef,
    Definition,
    Comparison,
    OutputColumn,
    QueryIR,
    Select,
    SQLLiteral,
    TableRef,
    Union,
    render_cte_query,
    render_definition,
    render_select,
)
from .schema import TABLE_PREFIX, column_names

#: Value stored in the dummy column of nullary predicates.
NULLARY_MARK = "1"


def compile_clause_ir(clause: Clause) -> Select:
    """The :class:`~repro.sql.ir.Select` computing one clause."""
    # fold equalities into a variable renaming first (an equality may be
    # the only thing binding a head variable, cf. the Lin/Log clauses
    # with ``x = y`` conjuncts); after renaming every remaining variable
    # occurs in some body literal
    mapping = _equality_mapping(clause)
    head = clause.head.rename(mapping)
    body = [atom.rename(mapping) for atom in clause.body_literals]

    bindings: Dict[str, ColumnRef] = {}
    tables: List[TableRef] = []
    where: List[Comparison] = []
    for index, atom in enumerate(body):
        alias = f"t{index}"
        tables.append(TableRef(TABLE_PREFIX + atom.predicate, alias))
        columns = column_names(len(atom.args))
        for position, variable in enumerate(atom.args):
            reference = ColumnRef(alias, columns[position])
            if variable in bindings:
                where.append(Comparison(bindings[variable], "=", reference))
            else:
                bindings[variable] = reference
    for variable in head.args:
        if variable not in bindings:
            raise ValueError(
                f"unbound head variable {variable!r} in clause {clause}")

    head_columns = column_names(max(len(head.args), 1))
    if head.args:
        output = tuple(OutputColumn(bindings[variable], head_columns[i])
                       for i, variable in enumerate(head.args))
    else:
        output = (OutputColumn(SQLLiteral(NULLARY_MARK), head_columns[0]),)
    return Select(columns=output, tables=tuple(tables), where=tuple(where))


def compile_query_ir(query: NDLQuery) -> QueryIR:
    """Compile ``(Pi, G)`` into a structured :class:`QueryIR`."""
    definitions = []
    for predicate, clauses in query.strata:
        selects = tuple(compile_clause_ir(clause) for clause in clauses)
        definitions.append(Definition(predicate=predicate,
                                      relation=TABLE_PREFIX + predicate,
                                      union=Union(selects)))
    goal_columns = column_names(max(len(query.answer_vars), 1))
    goal = Select(
        columns=tuple(OutputColumn(ColumnRef(None, name), name)
                      for name in goal_columns),
        tables=(TableRef(TABLE_PREFIX + query.goal, None),))
    return QueryIR(tuple(definitions), goal)


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
    ir:
        the structured :class:`QueryIR` the text was rendered from.
    """

    statements: Tuple[str, ...]
    goal_select: str
    idb_order: Tuple[str, ...]
    ir: QueryIR

    def script(self) -> str:
        """The full SQL script (statements plus the goal query)."""
        parts = [statement + ";" for statement in self.statements]
        parts.append(self.goal_select + ";")
        return "\n\n".join(parts)

    def cte_query(self) -> str:
        """The whole query as a single ``WITH``-query (one CTE per
        defined relation) — the form one would register as a single
        view.  Rendered from the IR, never re-parsed from statement
        text."""
        return render_cte_query(self.ir)


def compile_query(query: NDLQuery) -> SQLCompilation:
    """Compile ``(Pi, G)`` into per-predicate SQL statements: each IDB
    predicate becomes a table computed bottom-up, mirroring the
    materialise-everything strategy of Appendix D.4."""
    ir = compile_query_ir(query)
    return SQLCompilation(
        statements=tuple(map(render_definition, ir.definitions)),
        goal_select=render_select(ir.goal),
        idb_order=tuple(definition.predicate
                        for definition in ir.definitions),
        ir=ir)
