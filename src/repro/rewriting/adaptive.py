"""Cost-based ('adaptable') rewriting — the Section 6 proposal.

The paper's conclusion observes that its three optimal rewriters differ
only in *where they split* the query, that "none of the three splitting
strategies systematically outperforms the others" (Appendix D.4), and
proposes to "first define a 'cost function' on some set of alternative
rewritings that roughly estimates their evaluation time and then
construct a rewriting minimising this function", using "statistical
information about the relational tables" like a DBMS planner.

This module implements exactly that loop:

* :class:`DataStatistics` — per-predicate cardinalities and per-column
  distinct counts harvested from a data instance;
* :func:`estimate_cost` — a System-R style cost model for an NDL query:
  IDB cardinalities are estimated bottom-up, clause joins are costed
  with the same greedy fanout heuristic the engine itself uses;
* :func:`adaptive_rewrite` — produce the candidate rewritings (Lin,
  Log, Tw), optimise each for the data as ``Plan.execute`` would,
  cost each, return the cheapest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, Mapping, Optional, Sequence,
                    Tuple)

from ..data.abox import ABox
from ..datalog.evaluate import EvaluationResult, evaluate
from ..datalog.optimize import optimize
from ..datalog.program import ADOM, Clause, Literal, NDLQuery
from .api import OMQ, rewrite

#: Candidate methods tried by default: the three optimal splitting
#: strategies of Section 3.
DEFAULT_CANDIDATES = ("lin", "log", "tw")


@dataclass(frozen=True)
class PredicateStatistics:
    """Cardinality and per-column distinct counts of one relation."""

    size: int
    distinct: Tuple[int, ...]

    def key_count(self, positions: Sequence[int]) -> int:
        """Estimated number of distinct keys over the given columns
        (independence assumption, capped by the relation size)."""
        if not positions:
            return 1
        product = 1
        for position in positions:
            if position < len(self.distinct):
                product *= max(self.distinct[position], 1)
        return max(1, min(self.size, product))


class DataStatistics:
    """Relation statistics of a data instance, as a query planner
    would keep them."""

    def __init__(self, predicates: Mapping[str, PredicateStatistics],
                 domain_size: int):
        self._predicates = dict(predicates)
        self.domain_size = max(domain_size, 1)

    @classmethod
    def from_abox(cls, abox: ABox) -> "DataStatistics":
        predicates: Dict[str, PredicateStatistics] = {}
        for name in abox.unary_predicates:
            rows = abox.unary(name)
            predicates[name] = PredicateStatistics(len(rows), (len(rows),))
        for name in abox.binary_predicates:
            rows = abox.binary(name)
            firsts = len({a for a, _ in rows})
            seconds = len({b for _, b in rows})
            predicates[name] = PredicateStatistics(
                len(rows), (firsts, seconds))
        domain = len(abox.individuals)
        predicates[ADOM] = PredicateStatistics(domain, (domain,))
        return cls(predicates, domain)

    def predicate(self, name: str) -> PredicateStatistics:
        """Statistics of an EDB predicate (empty when absent)."""
        return self._predicates.get(name, PredicateStatistics(0, (0,)))

    def __contains__(self, name: str) -> bool:
        return name in self._predicates

    @property
    def nonempty(self) -> FrozenSet[str]:
        """The predicates holding at least one fact, ``__adom__``
        whenever any does: ``nonempty_signature`` of the data."""
        return frozenset(name for name, info in self._predicates.items()
                         if info.size)


def _estimate_clause(clause: Clause, stats: Dict[str, PredicateStatistics],
                     domain: int) -> Tuple[float, float]:
    """``(cost, output)`` estimates for one clause.

    Mirrors the engine's greedy join: equalities are folded into a
    renaming first (exactly as the engine does), atoms are joined in
    ascending estimated fanout, the cost is the sum of the intermediate
    cardinalities and the output the final one (capped by the head's
    value space).
    """
    from ..datalog.evaluate import _equality_mapping

    mapping = _equality_mapping(clause)
    clause = Clause(clause.head.rename(mapping),
                    tuple(atom.rename(mapping)
                          for atom in clause.body_literals))
    remaining = list(clause.body_literals)
    bound: set = set()
    rows = 1.0
    cost = 0.0
    while remaining:

        def fanout(atom: Literal) -> float:
            info = stats.get(atom.predicate, PredicateStatistics(0, ()))
            if info.size == 0:
                return 0.0
            positions = [i for i, arg in enumerate(atom.args)
                         if arg in bound]
            if not positions:
                return float(info.size) * domain  # cross product penalty
            return info.size / info.key_count(positions)

        atom = min(remaining, key=fanout)
        remaining.remove(atom)
        info = stats.get(atom.predicate, PredicateStatistics(0, ()))
        if info.size == 0:
            return (cost, 0.0)
        positions = [i for i, arg in enumerate(atom.args) if arg in bound]
        if positions:
            rows *= info.size / info.key_count(positions)
        else:
            rows *= info.size
        bound |= set(atom.args)
        cost += rows
    head_cap = float(domain) ** len(set(clause.head.args))
    return (cost, min(rows, head_cap))


def estimate_cost(query: NDLQuery, statistics: DataStatistics) -> float:
    """A rough evaluation-time estimate for materialising ``query``.

    IDB cardinalities are estimated bottom-up in dependence order; the
    returned cost is the total of all intermediate join cardinalities —
    a proxy for both time and the "generated tuples" the paper reports.
    """
    program = query.program.restrict_to(query.goal)
    order = program.topological_order()
    assert order is not None
    stats: Dict[str, PredicateStatistics] = {
        name: statistics.predicate(name)
        for name in program.edb_predicates}
    stats[ADOM] = statistics.predicate(ADOM)
    domain = statistics.domain_size
    total = 0.0
    for predicate in order:
        size = 0.0
        for clause in program.clauses_for(predicate):
            clause_cost, clause_out = _estimate_clause(clause, stats, domain)
            total += clause_cost
            size += clause_out
        arity = _head_arity(program, predicate)
        size = min(size, float(domain) ** max(arity, 1))
        distinct = tuple(min(int(size) + 1, domain) for _ in range(arity))
        stats[predicate] = PredicateStatistics(int(size), distinct)
    return total


def _head_arity(program, predicate: str) -> int:
    for clause in program.clauses_for(predicate):
        return len(clause.head.args)
    return 0


@dataclass
class AdaptiveChoice:
    """The outcome of :func:`adaptive_rewrite`.

    ``method``/``query`` are the winning candidate as it was costed
    (pruned for the data it was costed on, so only valid there);
    ``rewriting`` is the same candidate as its rewriter produced it,
    valid over any data.  ``costs`` holds the estimate for every
    candidate that was applicable (methods whose preconditions fail —
    e.g. Lin on a non-tree CQ — are skipped and recorded in
    ``skipped``).
    """

    method: str
    query: NDLQuery
    cost: float
    rewriting: NDLQuery
    costs: Dict[str, float] = field(default_factory=dict)
    skipped: Dict[str, str] = field(default_factory=dict)


def adaptive_rewrite(omq: OMQ, data: ABox | DataStatistics,
                     candidates: Iterable[str] = DEFAULT_CANDIDATES,
                     over: str = "complete") -> AdaptiveChoice:
    """Pick the cheapest rewriting for the given data distribution.

    ``data`` may be an ABox (statistics are computed from it — use the
    *completed* ABox the query will actually run on) or precomputed
    :class:`DataStatistics`.  Each candidate is costed as the program
    ``Plan.execute`` would run on that data: optimised for the
    statistics' nonempty predicates
    (:func:`repro.datalog.optimize.optimize`).
    """
    statistics = (data if isinstance(data, DataStatistics)
                  else DataStatistics.from_abox(data))
    best: Optional[AdaptiveChoice] = None
    costs: Dict[str, float] = {}
    skipped: Dict[str, str] = {}
    for method in candidates:
        try:
            rewriting = rewrite(omq, method=method, over=over)
        except ValueError as error:
            skipped[method] = str(error)
            continue
        candidate = optimize(rewriting, statistics.nonempty)
        cost = estimate_cost(candidate, statistics)
        costs[method] = cost
        if best is None or cost < best.cost:
            best = AdaptiveChoice(method, candidate, cost, rewriting)
    if best is None:
        raise ValueError(
            f"no candidate rewriter applies to {omq.omq_class()}: "
            f"{skipped}")
    best.costs = costs
    best.skipped = skipped
    return best


def answer_adaptive(omq: OMQ, abox: ABox,
                    candidates: Iterable[str] = DEFAULT_CANDIDATES
                    ) -> EvaluationResult:
    """End-to-end adaptive OBDA: complete the data, choose the cheapest
    rewriting for it, evaluate."""
    completed = abox.complete(omq.tbox)
    choice = adaptive_rewrite(omq, completed, candidates=candidates)
    return evaluate(choice.query, completed)
