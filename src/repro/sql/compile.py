"""Compiling NDL queries to SQL.

Every clause becomes a ``SELECT DISTINCT`` over a join of its body
atoms; every IDB predicate becomes the ``UNION`` of its clauses,
installed either as a SQL *view* (the Section 6 suggestion of running
rewritings "using views in standard DBMSs") or as a materialised table
(mirroring RDFox-style full materialisation, Appendix D.4).  The
compilation is purely syntactic and works for any nonrecursive program;
the database's own planner then chooses the join order.

The compiler first builds a structured :class:`~repro.sql.ir.QueryIR`
(:func:`compile_query_ir`), optionally runs the
:mod:`repro.sql.optimize` pass pipeline over it, and only then renders
text through a dialect — so every transformation operates on nodes,
never on SQL strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
    get_dialect,
)
from .optimize import optimize_ir
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
        arity = max(len(atom.args), 1)
        tables.append(TableRef(TABLE_PREFIX + atom.predicate, alias,
                               arity=arity))
        columns = column_names(arity)
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


def compile_clause(clause: Clause, idb: frozenset) -> str:
    """The ``SELECT`` statement computing one clause.

    ``idb`` is unused for the statement itself (both IDB and EDB atoms
    read from their predicate's table/view) but kept for symmetry with
    callers that split bodies.
    """
    return get_dialect("sqlite").render_select(compile_clause_ir(clause))


def compile_query_ir(query: NDLQuery, materialised: bool = False) -> QueryIR:
    """Compile ``(Pi, G)`` into a structured :class:`QueryIR`."""
    definitions = []
    for predicate, clauses in query.strata:
        selects = tuple(compile_clause_ir(clause) for clause in clauses)
        definitions.append(Definition(predicate=predicate,
                                      relation=TABLE_PREFIX + predicate,
                                      union=Union(selects)))
    goal_arity = max(len(query.answer_vars), 1)
    goal_columns = column_names(goal_arity)
    goal = Select(
        columns=tuple(OutputColumn(ColumnRef(None, name), name)
                      for name in goal_columns),
        tables=(TableRef(TABLE_PREFIX + query.goal, None,
                         arity=goal_arity),))
    return QueryIR(tuple(definitions), goal, materialised)


@dataclass(frozen=True)
class SQLCompilation:
    """The SQL form of an NDL query.

    Attributes
    ----------
    statements:
        ``CREATE VIEW``/``CREATE TABLE ... AS`` statements, one per
        defined relation, in dependence order (safe to execute
        sequentially).
    goal_select:
        the final ``SELECT`` reading the goal relation.
    idb_order:
        the defined predicates in the order their statements appear
        (including optimizer-introduced ``_cse*`` relations).
    materialised:
        whether the statements create tables (RDFox-style) or views.
    ir:
        the structured :class:`QueryIR` the text was rendered from.
    passes:
        the optimizer pass log (``{"pass", "before", "after"}`` per
        pass; empty when compiled with ``optimize=False``).
    dialect:
        the dialect name the text was rendered for.
    """

    statements: Tuple[str, ...]
    goal_select: str
    idb_order: Tuple[str, ...]
    materialised: bool
    ir: Optional[QueryIR] = None
    passes: Tuple[Dict[str, object], ...] = ()
    dialect: str = "sqlite"

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
        if self.ir is None:
            raise ValueError("cte_query() needs the compilation's IR; "
                             "build via compile_query()")
        return get_dialect(self.dialect).render_cte_query(self.ir)


def compile_query(query: NDLQuery, materialised: bool = False,
                  optimize: bool = False,
                  dialect: str = "sqlite") -> SQLCompilation:
    """Compile ``(Pi, G)`` into per-predicate SQL statements.

    With ``materialised=False`` each IDB predicate becomes a view, so
    the DBMS evaluates lazily (and may push selections down); with
    ``materialised=True`` each becomes a table computed bottom-up,
    mirroring the materialise-everything strategy of Appendix D.4.
    ``optimize=True`` runs the :mod:`repro.sql.optimize` pass pipeline
    over the IR before rendering; ``dialect`` picks the renderer.
    """
    ir = compile_query_ir(query, materialised)
    passes: Tuple[Dict[str, object], ...] = ()
    if optimize:
        ir, passes = optimize_ir(ir)
    renderer = get_dialect(dialect)
    return SQLCompilation(
        statements=renderer.render_statements(ir),
        goal_select=renderer.render_goal(ir),
        idb_order=tuple(definition.predicate
                        for definition in ir.definitions),
        materialised=materialised,
        ir=ir,
        passes=passes,
        dialect=dialect)
