"""Relational (SQL) backend for NDL rewritings.

Section 6 of the paper asks "whether our rewritings can be efficiently
implemented using views in standard DBMSs".  This subpackage runs them
on SQLite (the standard-library DBMS): an ABox is loaded into a
relational schema (:mod:`repro.sql.schema`), an NDL query is compiled
into a structured relational IR (:mod:`repro.sql.ir`: selects, unions,
definitions, with identifier quoting and literal escaping in exactly
one place) and rendered to one ``CREATE TABLE ... AS`` statement per
IDB predicate (:mod:`repro.sql.compile`), and
:class:`~repro.sql.engine.SQLEngine` — the ``sql`` engine — runs them
bottom-up, returning the same
:class:`~repro.datalog.evaluate.EvaluationResult` as the native Python
engine so the backends are interchangeable and can be compared
(``benchmarks/bench_ablation_engines.py``).  The same program as one
``WITH``-query, for registering as a single view elsewhere, is
:meth:`~repro.sql.compile.SQLCompilation.cte_query`.
"""

from .compile import (
    SQLCompilation,
    compile_clause,
    compile_clause_ir,
    compile_query,
    compile_query_ir,
)
from .engine import SQLEngine, evaluate_sql
from .ir import QueryIR, quote_identifier, quote_literal
from .schema import create_schema, load_abox, table_name

__all__ = [
    "QueryIR",
    "SQLCompilation",
    "SQLEngine",
    "compile_clause",
    "compile_clause_ir",
    "compile_query",
    "compile_query_ir",
    "create_schema",
    "evaluate_sql",
    "load_abox",
    "quote_identifier",
    "quote_literal",
    "table_name",
]
