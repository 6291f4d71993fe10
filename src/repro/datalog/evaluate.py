"""Bottom-up evaluation of NDL queries over data instances.

This is the library's stand-in for the RDFox engine used in the paper's
experiments: every IDB predicate of the program it is given is
materialised once, in dependence order, with no magic sets or program
optimisation — exactly the behaviour Appendix D.4 attributes to RDFox.
It *is* the unoptimised engine, and it has two kinds of caller: the
paper's tables (``repro.experiments``) and the differential tests hand
it a rewriting as written, as the reference; ``Plan.execute`` hands it
the rewriting already specialised to the data's nonempty signature
(:meth:`repro.rewriting.plan.Plan.specialised`).

Joins are left-deep hash joins ordered by bound-prefix selectivity,
with eager projection of dead variables, and no step runs generic
per-row Python.  The first atom is a scan: the stored relation itself
when the clause keeps all of its columns in order, else a projection
in C (``set(map(itemgetter, ...))``).  Every later atom is a join
kernel (:func:`_kernel`): a straight-line loop compiled once per step
shape (probe columns, repeated-variable checks, output columns) and
shared by every clause, query and thread with that shape.

Evaluation runs over a :class:`repro.engine.database.Database`:
constants are interned to integers and EDB hash indexes are memoised on
the database, so answering many queries over one instance (the
Tables 3-5 workload) only loads and indexes the data once.  Use
:func:`evaluate` for one-shot calls and :func:`evaluate_on` (or the
higher-level :class:`repro.rewriting.api.AnswerSession`) to share a
database across queries.

The goal relation leaves :func:`evaluate_on` in the database's codes
(:class:`CodedRows`), decoded on the first read of ``answers`` (a
``decode-rows`` span) and not before.  The codes stay valid for good: a
database only appends names and never reassigns a code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count
from operator import itemgetter
from typing import (Callable, Dict, FrozenSet, List, Mapping, NamedTuple,
                    Optional, Sequence, Set, Tuple, Union)

from ..data.abox import ABox
from ..obs import trace as _trace
from .program import Clause, Literal, NDLQuery

Row = Tuple[str, ...]
Relation = Set[Row]

#: Int-coded rows as stored by :class:`repro.engine.database.Database`.
IntRow = Tuple[int, ...]
IntRelation = Set[IntRow]


class CodedRows(NamedTuple):
    """A relation still in dictionary codes: ``count`` rows of
    ``arity`` codes, flattened row after row; ``names[code]`` is the
    constant a code stands for."""

    codes: Sequence[int]
    arity: int
    count: int
    names: Sequence[str]

    def decode(self) -> FrozenSet[Row]:
        """The rows as constant tuples, decoded and regrouped in C."""
        if not self.arity:
            return frozenset({()}) if self.count else frozenset()
        constants = list(map(self.names.__getitem__, self.codes))
        arity = self.arity
        return frozenset(zip(*[constants[i::arity] for i in range(arity)]))

    def dense(self) -> "CodedRows":
        """The same rows coded ``0..k-1`` over only the ``k`` constants
        they use, numbered in no particular order."""
        local = dict(zip(set(self.codes), count()))
        return CodedRows(list(map(local.__getitem__, self.codes)),
                         self.arity, self.count,
                         list(map(self.names.__getitem__, local)))


class RowsRecord:
    """A record over ``rows``: a frozenset of constant tuples, or
    :class:`CodedRows` that the first read of ``answers`` decodes and
    replaces by the frozenset (two threads racing on it build equal
    frozensets; either is kept).  Counting the rows never decodes.  A
    dataclass declares ``answers`` a ``field(init=False)`` so that its
    ``==`` and repr read them, and ``dataclasses.replace`` does not."""

    rows: Union[FrozenSet[Row], CodedRows]

    @property
    def answers(self) -> FrozenSet[Row]:
        rows = self.rows
        if type(rows) is CodedRows:
            with _trace.span("decode-rows"):
                rows = rows.decode()
            self.__dict__["rows"] = rows  # the same rows, frozen or not
        return rows

    def __getstate__(self):  # pickles the rows, not a database's names
        return {**self.__dict__, "rows": self.answers}

    def __iter__(self):
        return iter(self.answers)

    def __len__(self) -> int:
        rows = self.rows
        return rows.count if type(rows) is CodedRows else len(rows)

    def __contains__(self, row) -> bool:
        return row in self.answers


@dataclass
class EvaluationResult(RowsRecord):
    """Answers plus the statistics reported in Tables 3-5; the python
    engine's ``rows`` stay coded until ``answers`` is read."""

    answers: FrozenSet[Row] = field(init=False)
    rows: Union[FrozenSet[Row], CodedRows] = field(repr=False, compare=False)
    generated_tuples: int
    relation_sizes: Dict[str, int] = field(default_factory=dict)


def evaluate(query: NDLQuery, abox: ABox,
             extra_relations: Optional[Mapping[str, Relation]] = None
             ) -> EvaluationResult:
    """Evaluate ``(Pi, G)`` over ``abox`` and return the goal relation.

    ``generated_tuples`` counts the materialised IDB facts (the paper's
    "number of generated tuples" columns).  ``extra_relations`` supplies
    additional EDB relations of arbitrary arity (used by the OBDA
    mapping layer for wide source schemas); their constants join the
    active domain.

    This one-shot form loads ``abox`` into a fresh
    :class:`~repro.engine.database.Database` every call; amortise that
    over many queries with :func:`evaluate_on`.
    """
    from ..engine.database import Database

    return evaluate_on(query, Database(abox, extra_relations))


def evaluate_on(query: NDLQuery, database) -> EvaluationResult:
    """Evaluate ``(Pi, G)`` over an already-loaded ``database``.

    The database's constants, relations and EDB indexes are reused
    verbatim; only the IDB relations of this query are materialised
    (and discarded afterwards), so repeated calls over one database
    never re-load or re-index the data.
    """
    pool = _RelationPool(database)
    sizes: Dict[str, int] = {}
    for predicate, clauses in query.strata:
        rows: IntRelation = set()
        for clause in clauses:
            rows |= _evaluate_clause(clause, pool)
        pool.derived[predicate] = rows
        sizes[predicate] = len(rows)
    return EvaluationResult(database.coded(pool.relation(query.goal)),
                            sum(sizes.values()), sizes)


class _RelationPool:
    """Resolves predicates to relations and hash indexes.

    EDB lookups go to the shared :class:`Database` (whose indexes are
    memoised across queries); IDB relations materialised by the current
    evaluation shadow same-named EDB relations, with indexes cached for
    this evaluation only — an IDB relation is written exactly once (in
    dependence order), so its indexes never go stale.
    """

    def __init__(self, database):
        self.database = database
        self.derived: Dict[str, IntRelation] = {}
        self._idb_indexes: Dict[Tuple[str, Tuple[int, ...]],
                                Dict[IntRow, Tuple[IntRow, ...]]] = {}

    def relation(self, predicate: str) -> IntRelation:
        derived = self.derived.get(predicate)
        if derived is not None:
            return derived
        return self.database.relation(predicate)

    def size(self, predicate: str) -> int:
        return len(self.relation(predicate))

    def index(self, predicate: str, positions: Tuple[int, ...]
              ) -> Dict[IntRow, Tuple[IntRow, ...]]:
        if predicate not in self.derived:
            return self.database.index(predicate, positions)
        key = (predicate, positions)
        index = self._idb_indexes.get(key)
        if index is None:
            from ..engine.database import build_index

            index = build_index(self.derived[predicate], positions)
            self._idb_indexes[key] = index
        return index

    def distinct_keys(self, predicate: str,
                      positions: Tuple[int, ...]) -> int:
        return len(self.index(predicate, positions))


def _equality_mapping(clause: Clause) -> Dict[str, str]:
    """Union-find over the clause's equalities, preferring head variables
    as class representatives."""
    parent: Dict[str, str] = {}

    def find(v: str) -> str:
        parent.setdefault(v, v)
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    head_vars = set(clause.head.args)
    for eq in clause.body_equalities:
        left, right = find(eq.left), find(eq.right)
        if left == right:
            continue
        if right in head_vars and left not in head_vars:
            left, right = right, left
        parent[right] = left
    return {v: find(v) for v in parent}


def _scan(relation: IntRelation, arity: int,
          picks: Tuple[int, ...]) -> IntRelation:
    """The columns ``picks`` of a nonempty ``relation``, projected in C;
    the relation itself (not a copy) when that keeps every column in
    order, so callers must never write to what a scan returns."""
    if picks == tuple(range(arity)):
        return relation
    if len(picks) == 1:
        return set(zip(map(itemgetter(picks[0]), relation)))
    return set(map(itemgetter(*picks), relation)) if picks else {()}


@lru_cache(maxsize=256)
def _kernel(width: int, arity: int, probe: Tuple[int, ...],
            repeats: Tuple[Tuple[int, int], ...],
            picks: Tuple[int, ...]) -> Callable:
    """A straight-line join step, compiled once per shape.

    ``kernel(rows, get, add)`` probes ``get`` with the ``probe`` columns
    of every ``width``-wide row (the :func:`~repro.engine.database.
    build_index` key convention: a bare code for one column, ``()`` for
    none, which makes a cross product), keeps the ``arity``-wide matches
    whose ``repeats`` column pairs agree, and adds the ``picks`` of the
    row and match side by side.  The source holds integer positions
    only, never a predicate or constant name, and the cache is bounded
    because shapes come from the queries callers send.
    """
    row_vars = [f"r{i}" for i in range(width)]
    match_vars = [f"m{i}" for i in range(arity)]
    names = row_vars + match_vars

    def tuple_of(items):  # "a, b, " is a tuple display, "" an empty one
        return "".join(item + ", " for item in items)

    key = ", ".join(names[p] for p in probe)
    test = " and ".join(f"m{i} == m{j}" for i, j in repeats) or "True"
    namespace: Dict[str, Callable] = {}
    exec("\n".join([
        "def kernel(rows, get, add):",
        f"    for {tuple_of(row_vars) or '_'} in rows:",
        f"        matches = get({key if len(probe) == 1 else f'({key})'})",
        "        if matches:",
        f"            for {tuple_of(match_vars) or '_'} in matches:",
        f"                if {test}:",
        f"                    add(({tuple_of(names[p] for p in picks)}))"]),
        namespace)
    return namespace["kernel"]


#: Multiplier applied to the estimated output of a cross product so the
#: planner only resorts to one when no connected atom remains.
_CROSS_PRODUCT_PENALTY = 1 << 20


def _fanout(atom: Literal, bound: Set[str],
            pool: _RelationPool) -> Tuple[float, int]:
    """Estimated number of matches per input row when joining ``atom``
    next, given the variables in ``bound`` are already available.

    The estimate is ``|R| / distinct-keys(R, bound positions)`` — the
    average bucket size of the hash index the join would probe.  The
    index is the same one the join then uses, so costing an atom and
    executing it share one memoised structure.  Atoms with no bound
    variable are cross products and are heavily penalised.  The
    secondary component breaks ties towards smaller relations.
    """
    size = pool.size(atom.predicate)
    if size == 0:
        # an empty relation empties the join: take it immediately
        return (-1.0, 0)
    bound_positions = tuple(i for i, arg in enumerate(atom.args)
                            if arg in bound)
    if not bound_positions:
        return (float(size) * _CROSS_PRODUCT_PENALTY, size)
    distinct = pool.distinct_keys(atom.predicate, bound_positions)
    return (size / max(distinct, 1), size)


def _evaluate_clause(clause: Clause, pool: _RelationPool) -> IntRelation:
    """The clause's head rows; possibly a stored relation itself (see
    :func:`_scan`), so callers union it and never write to it."""
    mapping = _equality_mapping(clause)
    head = clause.head.rename(mapping)
    atoms = [atom.rename(mapping) for atom in clause.body_literals]
    if not atoms:
        # a fact: only possible for nullary heads (range restriction
        # would have added __adom__ atoms otherwise)
        return {()} if not head.args else set()

    remaining = list(atoms)
    schema: List[str] = []
    rows: IntRelation = {()}
    while remaining:
        bound = set(schema)
        atom = min(remaining, key=lambda a: _fanout(a, bound, pool))
        remaining.remove(atom)
        relation = pool.relation(atom.predicate)
        if not relation:
            return set()
        positions = {v: i for i, v in enumerate(schema)}
        first_seen: Dict[str, int] = {}
        for i, arg in enumerate(atom.args):
            first_seen.setdefault(arg, i)
        bound_positions = tuple(i for i, arg in enumerate(atom.args)
                                if arg in positions)
        # a repeated free variable, e.g. P(x, x), filters the matches (a
        # repeated bound one already agrees through the probe key)
        repeats = tuple((i, first_seen[arg])
                        for i, arg in enumerate(atom.args)
                        if first_seen[arg] != i and arg not in positions)
        if remaining:
            # project away variables that neither the head nor any
            # remaining body atom will ever look at again
            keep = set(head.args)
            for later in remaining:
                keep.update(later.args)
            new_vars = [v for v in first_seen if v not in positions]
            out_schema = [v for v in schema + new_vars if v in keep]
        else:
            out_schema = list(head.args)  # the last step emits the head
        width = len(schema)
        picks = tuple(positions[v] if v in positions
                      else width + first_seen[v] for v in out_schema)
        if not schema and not repeats:
            # rows is {()}: the step is a scan of the relation
            rows = _scan(relation, len(atom.args), picks)
        else:
            get = (pool.index(atom.predicate, bound_positions).get
                   if bound_positions else {(): relation}.get)
            probe = tuple(positions[atom.args[i]] for i in bound_positions)
            out: IntRelation = set()
            _kernel(width, len(atom.args), probe, repeats, picks)(
                rows, get, out.add)
            rows = out
        schema = out_schema
        if not rows:
            return set()
    return rows
