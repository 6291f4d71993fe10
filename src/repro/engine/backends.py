"""One interface over the Python and SQLite evaluators.

Section 6 asks whether the rewritings run well in a standard DBMS;
Appendix D.4 evaluates them by materialising every IDB predicate (the
RDFox strategy).  :func:`create_engine` hides the choice of evaluator
behind one :class:`Engine` protocol: build one per data instance, then
:meth:`Engine.evaluate` every rewriting.  ``python`` is the interned
hash-join evaluator; ``sql`` is :class:`repro.sql.engine.SQLEngine`,
which materialises each IDB predicate into a SQLite table.  Both keep
the loaded data across calls and return identical answer sets
(``tests/test_engine.py``).

``evaluate`` runs exactly the program it is given; ``Plan.execute``
gives it the rewriting specialised to the signature
:meth:`Engine.nonempty` reports (:meth:`repro.rewriting.plan.Plan.
specialised`).  The python backend keeps each program's join orders
on the program, per database and size class, so a warm execute plans
nothing (:mod:`repro.datalog.evaluate`).  :data:`ENGINES` is the closed
registry of names; every entry is constructible everywhere.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Mapping, Optional, Tuple

from ..data.abox import ABox
from ..datalog.evaluate import EvaluationResult, evaluate_on
from ..datalog.program import NDLQuery
from .database import Database

#: The evaluation backends, in the order of Appendix D.4's comparison.
ENGINES = ("python", "sql")

ExtraRelations = Optional[Mapping[str, Iterable[Tuple[str, ...]]]]


class Engine:
    """A loaded data instance that evaluates NDL queries.

    Subclasses load the data exactly once (in ``__init__``) and may
    cache whatever per-instance structures they like; ``evaluate`` must
    be callable any number of times with different queries.
    """

    #: The :data:`ENGINES` name this backend answers to.
    name: str = "?"

    def evaluate(self, query: NDLQuery) -> EvaluationResult:
        """Evaluate one query."""
        raise NotImplementedError

    def nonempty(self, predicates: Iterable[str]) -> FrozenSet[str]:
        """The ``predicates`` that hold at least one fact in the loaded
        instance right now (``__adom__`` counts as one of them) — the
        signature ``Plan.execute`` specialises a rewriting to.  Must
        not copy a relation: it runs on every execute."""
        raise NotImplementedError

    def apply_delta(self, inserts: Mapping[str, Iterable[Tuple[str, ...]]],
                    deletes: Mapping[str, Iterable[Tuple[str, ...]]],
                    adom_add: Iterable[str] = (),
                    adom_remove: Iterable[str] = ()) -> None:
        """Apply an incremental data update to the loaded instance.

        ``deletes`` are applied before ``inserts`` (an atom in both is
        present afterwards).  Callers must pass *effective* deltas —
        inserted rows absent from and deleted rows present in the
        current instance — plus the constants entering/leaving the
        active domain; :mod:`repro.service.updates` computes all four
        from an ABox-level update.  After the call, answers must be
        identical to a from-scratch load of the updated instance.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class PythonEngine(Engine):
    """The native engine: an interned, indexed in-memory database."""

    name = "python"

    def __init__(self, abox: ABox, extra_relations: ExtraRelations = None):
        self.database = Database(abox, extra_relations)

    def evaluate(self, query: NDLQuery) -> EvaluationResult:
        return evaluate_on(query, self.database)

    def nonempty(self, predicates):
        relation = self.database.relation
        return frozenset(predicate for predicate in predicates
                         if relation(predicate))

    def apply_delta(self, inserts, deletes, adom_add=(), adom_remove=()):
        self.database.delete_facts(deletes, removed_constants=adom_remove)
        self.database.insert_facts(inserts)


def create_engine(name: str, abox: ABox,
                  extra_relations: ExtraRelations = None) -> Engine:
    """Load ``abox`` into the backend called ``name``.

    ``name`` is one of :data:`ENGINES`: ``"python"`` (interned hash-join
    engine) or ``"sql"`` (SQLite, bottom-up materialisation; imported
    on first use).
    """
    if name == "python":
        return PythonEngine(abox, extra_relations)
    if name == "sql":
        from ..sql.engine import SQLEngine

        return SQLEngine(abox, extra_relations)
    raise ValueError(f"unknown engine {name!r}; expected one of {ENGINES}")
