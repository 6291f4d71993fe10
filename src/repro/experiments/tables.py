"""Tables 3-5: evaluating the rewritings over the random datasets.

For each query sequence and dataset, every rewriting is evaluated with
the library's datalog engine (the RDFox stand-in); we record evaluation
time, the number of answers and the number of generated (materialised
IDB) tuples — the columns of Tables 3-5.  All rewritings are evaluated
over the T-completion of the data, which matches materialising the
``*``-layer up front.

Each dataset is loaded into one
:class:`~repro.engine.backends.Engine` for the whole table — the
paper's setting, where the data sits in RDFox/a DBMS once and only the
rewritings change — so the recorded times are pure evaluation, not
re-loading.  The cells time ``Engine.evaluate(plan.ndl)``, the
rewriting exactly as written, so the blow-ups these tables exist to
show stay.  The one exception is the ``tw*`` column, App. D.4's
``Tw*`` as the system runs it: the ``tw`` plan's specialised program
(:meth:`~repro.rewriting.plan.Plan.specialised`), whose single-clause
predicates are inlined, and which is also pruned of the predicates
empty in that dataset and deduplicated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..data.abox import ABox
from ..engine import create_engine
from ..queries.cq import chain_cq
from ..rewriting.api import OMQ
from ..rewriting.plan import compile_omq
from .figure2 import SEQUENCES, example11_tbox

#: The columns of Tables 3-5: the methods whose plans they read, ``tw*``
#: reading the ``tw`` plan's specialised program.
EVAL_ALGORITHMS = ("tw", "tw*", "lin", "log", "ucq", "presto")


@dataclass(frozen=True)
class EvaluationPoint:
    """One cell group of Tables 3-5."""

    sequence: str
    dataset: str
    atoms: int
    algorithm: str
    seconds: Optional[float]
    answers: Optional[int]
    generated_tuples: Optional[int]

    @property
    def timed_out(self) -> bool:
        return self.seconds is None


def run_evaluation_table(sequence: str, datasets: Dict[str, ABox],
                         sizes: Sequence[int] = (1, 3, 5, 7, 9),
                         algorithms: Sequence[str] = EVAL_ALGORITHMS,
                         time_budget: float = 60.0,
                         engine: str = "python"
                         ) -> List[EvaluationPoint]:
    """Evaluate the rewritings of one sequence over all datasets.

    ``sizes`` are the query prefix lengths (the paper runs 1-15; the
    defaults keep the suite laptop-sized).  An algorithm that exceeds
    ``time_budget`` on a dataset is skipped for larger queries on that
    dataset (the paper's timeouts).  ``engine`` picks the evaluation
    backend (any of :data:`repro.engine.ENGINES`); each dataset is
    completed and loaded into it exactly once.
    """
    tbox = example11_tbox()
    labels = SEQUENCES[sequence]
    backends = {name: create_engine(engine, abox.complete(tbox))
                for name, abox in datasets.items()}
    points: List[EvaluationPoint] = []
    dead: set = set()
    try:
        for atoms in sizes:
            query = chain_cq(labels[:atoms])
            omq = OMQ(tbox, query)
            # compile once per algorithm, evaluate over every dataset —
            # reduction (1)'s prepare/execute split
            plans = {}
            for method in {algorithm.rstrip("*") for algorithm in algorithms}:
                try:
                    plans[method] = compile_omq(omq, method=method)
                except RuntimeError:
                    plans[method] = None
            for name, backend in backends.items():
                for algorithm in algorithms:
                    plan = plans[algorithm.rstrip("*")]
                    if plan is None or (name, algorithm) in dead:
                        points.append(EvaluationPoint(
                            sequence, name, atoms, algorithm,
                            None, None, None))
                        continue
                    ndl = (plan.specialised(backend)
                           if algorithm == "tw*" else plan.ndl)
                    started = time.perf_counter()
                    result = backend.evaluate(ndl)
                    seconds = time.perf_counter() - started
                    if seconds > time_budget:
                        dead.add((name, algorithm))
                    points.append(EvaluationPoint(
                        sequence, name, atoms, algorithm, seconds,
                        len(result), result.generated_tuples))
    finally:
        for backend in backends.values():
            backend.close()
    return points


def table_rows(points: Sequence[EvaluationPoint],
               dataset: str) -> List[List[object]]:
    """Rows in the layout of Tables 3-5: per query size, evaluation
    time / answers / generated tuples per algorithm."""
    by_atoms: Dict[int, Dict[str, EvaluationPoint]] = {}
    for point in points:
        if point.dataset == dataset:
            by_atoms.setdefault(point.atoms, {})[point.algorithm] = point
    rows: List[List[object]] = []
    for atoms in sorted(by_atoms):
        cells = by_atoms[atoms]
        answers = next((p.answers for p in cells.values()
                        if p.answers is not None), "-")
        done = [cells.get(algorithm) for algorithm in EVAL_ALGORITHMS]
        done = [None if p is None or p.timed_out else p for p in done]
        rows.append([atoms]
                    + [f"{p.seconds:.3f}" if p else "-" for p in done]
                    + [answers]
                    + [p.generated_tuples if p else "-" for p in done])
    return rows


def table_headers() -> List[str]:
    headers = ["atoms"]
    headers += [f"t({a})" for a in EVAL_ALGORITHMS]
    headers.append("answers")
    headers += [f"tuples({a})" for a in EVAL_ALGORITHMS]
    return headers


def consistency_check(points: Sequence[EvaluationPoint]) -> bool:
    """All engines that finished must report the same number of answers
    for the same (sequence, dataset, atoms) cell."""
    by_cell: Dict[tuple, set] = {}
    for point in points:
        if point.answers is not None:
            by_cell.setdefault(
                (point.sequence, point.dataset, point.atoms), set()).add(
                    point.answers)
        # generated tuples legitimately differ between engines
    return all(len(counts) == 1 for counts in by_cell.values())
