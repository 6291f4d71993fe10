"""Ablation: the SQL backend vs the native Python engine.

Section 6 asks "whether our rewritings can be efficiently implemented
using views in standard DBMSs".  This bench runs the same rewritings on
(i) the Python interned/indexed engine, (ii) SQLite with full
materialisation, and (iii) SQLite views (lazy, planner-driven) — all
through the unified :mod:`repro.engine` layer, each backend loading
the data once — and prints times and answer counts for each; all three
must agree on the answers.
"""

import time

from repro.engine import ENGINES, create_engine
from repro.experiments import SEQUENCES, example11_tbox, print_table
from repro.queries import chain_cq
from repro.rewriting import OMQ, rewrite

#: (sequence, prefix length, rewriter) combinations exercised.
CASES = tuple((seq, size, method)
              for seq in ("sequence1", "sequence2")
              for size in (5, 9)
              for method in ("lin", "tw"))


def _run_case(tbox, backends, sequence, size, method):
    query = chain_cq(SEQUENCES[sequence][:size])
    ndl = rewrite(OMQ(tbox, query), method=method)
    rows = []
    results = {}
    for name, backend in backends.items():
        start = time.perf_counter()
        results[name] = backend.evaluate(ndl)
        rows.append((name, time.perf_counter() - start,
                     len(results[name].answers),
                     results[name].generated_tuples))
    answer_sets = {frozenset(r.answers) for r in results.values()}
    assert len(answer_sets) == 1, "engines disagree on answers"
    return [(sequence, size, method) + row for row in rows]


def test_engine_ablation(paper_data, benchmark):
    datasets, _ = paper_data
    tbox = example11_tbox()
    completed = datasets["2.ttl"].complete(tbox)
    backends = {name: create_engine(name, completed)
                for name in ENGINES}

    def run():
        rows = []
        for sequence, size, method in CASES:
            rows.extend(_run_case(tbox, backends, sequence, size, method))
        return rows

    try:
        rows = benchmark.pedantic(run, iterations=1, rounds=1)
    finally:
        for backend in backends.values():
            backend.close()
    print_table(
        "Ablation - evaluation engines (dataset 2.ttl)",
        ["sequence", "atoms", "rewriter", "engine", "seconds",
         "answers", "tuples"],
        [[seq, size, method, engine, f"{seconds:.3f}", answers, tuples]
         for seq, size, method, engine, seconds, answers, tuples in rows])
    # every case produced one row per engine
    assert len(rows) == len(ENGINES) * len(CASES)
