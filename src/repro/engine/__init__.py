"""Unified evaluation layer: load data once, answer many queries.

* :class:`~repro.engine.database.Database` — a data instance loaded
  once: constants interned to dense integers, per-predicate hash
  indexes memoised by bound-argument positions and shared across
  queries (the native engine's storage);
* :class:`~repro.engine.backends.Engine` — the common protocol over the
  native Python evaluator and the SQLite one
  (:class:`repro.sql.engine.SQLEngine`), built via
  :func:`~repro.engine.backends.create_engine`.

:class:`repro.rewriting.api.AnswerSession` adds the rewriting pipeline
on top (completion, rewriters, per-execute specialisation).
"""

from .database import Database, build_index
from .backends import (
    ENGINES,
    Engine,
    PythonEngine,
    create_engine,
)

__all__ = [
    "Database",
    "ENGINES",
    "Engine",
    "PythonEngine",
    "build_index",
    "create_engine",
]
