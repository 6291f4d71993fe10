"""Bottom-up evaluation of NDL queries over data instances.

This is the library's stand-in for the RDFox engine used in the paper's
experiments: every IDB predicate of the program it is given is
materialised once, in dependence order, with no magic sets or program
optimisation — exactly the behaviour Appendix D.4 attributes to RDFox.
Its callers are the paper's tables and the differential tests, which
hand it a rewriting as written, and ``Plan.execute``, which hands it the
rewriting specialised to the data's nonempty signature.

A query is compiled once, on its first evaluation, into a program kept
on the query: per stratum, per clause, the equality-free head and atoms
and their join orders.  An order is a list of steps, each a scan (the
stored relation itself, or a projection in C) or a join kernel
(:func:`_kernel`, straight-line code compiled once per step shape), so
no step runs generic per-row Python.  Joins are left-deep hash joins
with eager projection of dead variables, ordered by bound-prefix
selectivity (:func:`_fanout`) once per (database, size class of each
relation), one step at a time as executes first reach it.  A *seeded*
run scans a small relation first, in place of one body atom or of the
head: the delta clauses of :mod:`repro.standing.maintain`.

Evaluation runs over a :class:`repro.engine.database.Database`, whose
interned constants and EDB hash indexes are shared by every query over
it; IDB relations (:func:`materialise`) and their indexes live for one
call.  Use :func:`evaluate` for one-shot calls and :func:`evaluate_on` (or
:class:`repro.rewriting.api.AnswerSession`) to share a database.  The
goal relation leaves :func:`evaluate_on` in the database's codes
(:class:`CodedRows`), decoded on the first read of ``answers`` (a
``decode-rows`` span); a database never reassigns a code.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count
from operator import itemgetter
from typing import (Callable, Dict, FrozenSet, Mapping, NamedTuple,
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
    additional EDB relations of arbitrary arity (the OBDA mapping
    layer's wide source schemas); their constants join the active
    domain.  Each call loads a fresh :class:`~repro.engine.database.
    Database`; :func:`evaluate_on` shares one.
    """
    from ..engine.database import Database

    return evaluate_on(query, Database(abox, extra_relations))


def evaluate_on(query: NDLQuery, database) -> EvaluationResult:
    """Evaluate ``(Pi, G)`` over an already-loaded ``database``.

    The database's constants, relations and EDB indexes are reused
    verbatim; only this query's IDB relations are materialised
    (:func:`materialise`), and they and their indexes live for this
    call alone.  The query's compiled program (:func:`_program`) and
    its join orders outlive it.
    """
    derived = materialise(query, database)
    goal = derived.get(query.goal, database.relation(query.goal))
    sizes = {predicate: len(rows) for predicate, rows in derived.items()}
    return EvaluationResult(database.coded(goal), sum(sizes.values()),
                            sizes)


def materialise(query: NDLQuery, database, indexes: Optional[Dict] = None
                ) -> Dict[str, IntRelation]:
    """Every IDB relation of ``query`` over ``database``, goal included,
    dependencies first, in the database's codes: fresh sets the caller
    may keep and change, their indexes built into ``indexes``."""
    derived: Dict[str, IntRelation] = {}
    relation, index = lookups(database, derived, {} if indexes is None
                              else indexes)
    with _cycle_collection_paused():
        for predicate, clauses in _program(query):
            derived[predicate] = set().union(*[
                clause.run(database.token, relation, index)
                for clause in clauses])
    return derived


_gc_lock = threading.Lock()
_gc_holders = 0


@contextmanager
def _cycle_collection_paused():
    """Hold the cyclic garbage collector off while IDB relations are
    built.  They are sets of int tuples, which form no cycles, but
    their allocations trigger collections that traverse every live
    object, the loaded data included, and those that land in the
    heaviest evaluations set ``eval-tables``' p95.  Concurrent and
    nested holders share one pause; a collector the caller disabled
    stays disabled."""
    global _gc_holders
    with _gc_lock:
        paused = _gc_holders > 0 or gc.isenabled()
        if paused:
            _gc_holders += 1
            gc.disable()
    try:
        yield
    finally:
        if paused:
            with _gc_lock:
                _gc_holders -= 1
                if not _gc_holders:
                    gc.enable()


def lookups(database, derived: Mapping[str, IntRelation],
            indexes: Dict[Tuple[str, Tuple[int, ...]], Dict]
            ) -> Tuple[Callable, Callable]:
    """The ``relation(predicate)`` and ``index(predicate, positions)`` a
    clause run reads: the IDB relations ``derived``, their indexes built
    on first use into ``indexes`` (patched by whoever changes them),
    else the database's own."""
    from ..engine.database import build_index

    def relation(predicate: str) -> IntRelation:
        rows = derived.get(predicate)
        return database.relation(predicate) if rows is None else rows

    def index(predicate: str, positions: Tuple[int, ...]) -> Dict:
        if predicate not in derived:
            return database.index(predicate, positions)
        built = indexes.get((predicate, positions))
        if built is None:
            built = indexes[predicate, positions] = build_index(
                derived[predicate], positions)
        return built

    return relation, index


def _program(query: NDLQuery) -> tuple:
    """``query.strata`` with each clause compiled (:class:`_Clause`),
    kept in the query's ``__dict__`` beside them; ``setdefault`` makes
    racing first calls keep one program."""
    program = query.__dict__.get("_program")
    if program is None:
        program = query.__dict__.setdefault("_program", tuple(
            (predicate, tuple(map(_Clause, clauses)))
            for predicate, clauses in query.strata))
    return program


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

#: Join orders one clause keeps: one per (database, size classes,
#: seed position) it has run under.
_ORDERS_KEPT = 64

#: The seed position of a rederive check (:meth:`_Clause.run`).
HEAD = -1


def _fanout(atom: Literal, bound: Set[str], relation: Callable,
            index: Callable) -> Tuple[float, int]:
    """Estimated matches per input row when joining ``atom`` next with
    the variables ``bound``: ``|R| / distinct-keys(R, bound positions)``,
    the average bucket of the very index the join then probes.  Cross
    products are heavily penalised; ties go to smaller relations."""
    size = len(relation(atom.predicate))
    if size == 0:
        # an empty relation empties the join: take it immediately
        return (-1.0, 0)
    bound_positions = tuple(i for i, arg in enumerate(atom.args)
                            if arg in bound)
    if not bound_positions:
        return (float(size) * _CROSS_PRODUCT_PENALTY, size)
    return (size / max(len(index(atom.predicate, bound_positions)), 1), size)


class _Step(NamedTuple):
    """One join step: body atom number ``atom`` (or the head's seed,
    :data:`HEAD`), over ``predicate``, scanned, or probed on its index
    on ``positions`` by ``_kernel(*shape)``; its rows carry the
    variables ``schema``."""

    atom: int
    predicate: Optional[str]
    scan: bool
    positions: Tuple[int, ...]
    shape: tuple
    schema: Tuple[str, ...]


class _Clause:
    """A clause compiled once: equalities folded into ``head`` and
    ``atoms`` (an atom twice in the body is kept once), and ``orders``,
    the join orders planned so far.

    An order is keyed by (database token, the size class
    ``len(R).bit_length()`` of each body atom's relation, and for a
    seeded run the seed's position), so it is re-costed only when a
    size class moves and never shared between databases.  It grows one
    step when an execute first reaches that step, and is published
    whole as a new tuple, without a lock: racing executes may plan a
    step twice or drop an entry, but a reader always sees one thread's
    complete prefix, never a torn one.
    """

    __slots__ = ("head", "atoms", "predicates", "orders")

    def __init__(self, clause: Clause):
        mapping = _equality_mapping(clause)
        self.head = clause.head.rename(mapping).args
        self.atoms = tuple(dict.fromkeys(
            atom.rename(mapping) for atom in clause.body_literals))
        self.predicates = tuple(atom.predicate for atom in self.atoms)
        self.orders: Dict[tuple, Tuple[_Step, ...]] = {}

    def run(self, token: object, relation: Callable, index: Callable,
            seed: Optional[IntRelation] = None,
            at: Optional[int] = None) -> IntRelation:
        """The clause's head rows; possibly a stored relation itself
        (see :func:`_scan`), so callers must never write to them.

        A ``seed`` is scanned first: at body atom number ``at``, in
        place of that atom's relation (a delta term); at :data:`HEAD`,
        as head rows, of which those the body derives come back.
        """
        if not self.atoms:
            # a fact: only possible for nullary heads (range restriction
            # would have added __adom__ atoms otherwise)
            rows = {()} if not self.head else set()
            return rows & set(seed) if at == HEAD else rows
        classes = tuple([len(relation(predicate)).bit_length()
                         for predicate in self.predicates])
        key = (token, classes) if seed is None else (token, classes, at)
        steps = self.orders.get(key, ())
        rows: IntRelation = {()}
        for i in range(len(self.atoms) + (at == HEAD)):
            if i == len(steps):
                steps += (self._plan(steps, relation, index, at),)
                if len(self.orders) >= _ORDERS_KEPT and key not in self.orders:
                    self.orders.clear()
                self.orders[key] = steps
            step = steps[i]
            stored = (seed if i == 0 and seed is not None
                      else relation(step.predicate))
            if not stored:
                return set()
            if step.scan:  # rows is {()}
                rows = _scan(stored, step.shape[1], step.shape[4])
            else:
                get = (index(step.predicate, step.positions).get
                       if step.positions else {(): stored}.get)
                out: IntRelation = set()
                _kernel(*step.shape)(rows, get, out.add)
                rows = out
            if not rows:
                return set()
        return rows

    def _plan(self, steps: Tuple[_Step, ...], relation: Callable,
              index: Callable, at: Optional[int] = None) -> _Step:
        """The step after ``steps``: the seed's position ``at`` first,
        then the remaining atom of least :func:`_fanout` over the
        relations as they are now."""
        schema = steps[-1].schema if steps else ()
        remaining = sorted({*range(len(self.atoms))} - {s.atom for s in steps})
        bound = set(schema)
        chosen = at if at is not None and not steps else min(
            remaining, key=lambda i: _fanout(
                self.atoms[i], bound, relation, index))
        args, predicate = self.head, None
        if chosen != HEAD:
            remaining.remove(chosen)
            atom = self.atoms[chosen]
            args, predicate = atom.args, atom.predicate
        positions = {v: i for i, v in enumerate(schema)}
        first_seen: Dict[str, int] = {}
        for i, arg in enumerate(args):
            first_seen.setdefault(arg, i)
        bound_positions = tuple(i for i, arg in enumerate(args)
                                if arg in positions)
        # a repeated free variable, e.g. P(x, x), filters the matches (a
        # repeated bound one already agrees through the probe key)
        repeats = tuple((i, first_seen[arg]) for i, arg in enumerate(args)
                        if first_seen[arg] != i and arg not in positions)
        out_schema = self.head  # the last step emits the head
        if remaining:
            # project away variables that neither the head nor any
            # remaining body atom will ever look at again
            keep = set(self.head).union(
                *(self.atoms[later].args for later in remaining))
            new_vars = [v for v in first_seen if v not in positions]
            out_schema = tuple(v for v in (*schema, *new_vars) if v in keep)
        width = len(schema)
        picks = tuple(positions[v] if v in positions
                      else width + first_seen[v] for v in out_schema)
        probe = tuple(positions[args[i]] for i in bound_positions)
        return _Step(chosen, predicate, not schema and not repeats,
                     bound_positions,
                     (width, len(args), probe, repeats, picks), out_schema)
