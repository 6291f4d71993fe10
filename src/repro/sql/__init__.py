"""Relational (SQL) backend for NDL rewritings.

Section 6 of the paper asks "whether our rewritings can be efficiently
implemented using views in standard DBMSs".  This subpackage answers
affirmatively for SQLite (the standard-library DBMS): an ABox is
loaded into a relational schema (:mod:`repro.sql.schema`), an NDL query is compiled into a structured
relational IR (:mod:`repro.sql.ir`: selects, unions, definitions, with
identifier quoting and literal escaping in exactly one place), the
optional optimizer pass pipeline rewrites redundancy out of it
(:mod:`repro.sql.optimize`: branch dedup, subsumption pruning,
OR→IN merging, common-subquery hoisting, DISTINCT elision — each pass
logged with before/after node counts), the dialect renderer turns it
into text — one view or materialised table per IDB predicate —
(:mod:`repro.sql.compile`), and :func:`repro.sql.engine.evaluate_sql`
runs the whole pipeline, returning the same
:class:`~repro.datalog.evaluate.EvaluationResult` as the native Python
engine so the backends are interchangeable and can be compared
(``benchmarks/bench_ablation_engines.py``).
"""

from .compile import (
    SQLCompilation,
    compile_clause,
    compile_clause_ir,
    compile_query,
    compile_query_ir,
)
from .engine import SQLEngine, evaluate_sql
from .ir import DIALECT_NAMES, QueryIR, get_dialect
from .optimize import PASSES, optimize_ir
from .schema import create_schema, load_abox, quote_identifier, table_name

__all__ = [
    "DIALECT_NAMES",
    "PASSES",
    "QueryIR",
    "SQLCompilation",
    "SQLEngine",
    "compile_clause",
    "compile_clause_ir",
    "compile_query",
    "compile_query_ir",
    "create_schema",
    "evaluate_sql",
    "get_dialect",
    "load_abox",
    "optimize_ir",
    "quote_identifier",
    "table_name",
]
