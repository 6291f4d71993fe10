"""Ablation: the Section 6 cost-based adaptive splitting strategy.

Appendix D.4 concludes that "none of the three splitting strategies
systematically outperforms the others" and proposes choosing the
rewriting with a data-statistics cost function.  This bench measures,
per dataset, the tuples materialised by each fixed strategy and by the
adaptive choice — the adaptive pick should track the per-dataset winner
without ever being catastrophically wrong.
"""

from repro.datalog import evaluate
from repro.experiments import SEQUENCES, example11_tbox, print_table
from repro.queries import chain_cq
from repro.rewriting import OMQ, adaptive_rewrite, rewrite

FIXED = ("lin", "log", "tw")


def _run_dataset(tbox, name, abox, query):
    completed = abox.complete(tbox)
    omq = OMQ(tbox, query)
    actual = {}
    for method in FIXED:
        ndl = rewrite(omq, method=method)
        actual[method] = evaluate(ndl, completed).generated_tuples
    choice = adaptive_rewrite(omq, completed)
    chosen_tuples = evaluate(choice.query, completed).generated_tuples
    return (name, actual, choice.method, chosen_tuples)


def test_adaptive_ablation(paper_data, benchmark):
    datasets, _ = paper_data
    tbox = example11_tbox()
    query = chain_cq(SEQUENCES["sequence1"][:9])

    def run():
        return [_run_dataset(tbox, name, abox, query)
                for name, abox in sorted(datasets.items())]

    results = benchmark.pedantic(run, iterations=1, rounds=1)
    print_table(
        "Ablation - adaptive splitting strategy (Sequence 1, 9 atoms)",
        ["dataset"] + [f"{m} tuples" for m in FIXED]
        + ["adaptive pick", "adaptive tuples"],
        [[name] + [actual[m] for m in FIXED] + [picked, chosen]
         for name, actual, picked, chosen in results])
    for name, actual, picked, chosen in results:
        best = min(actual.values())
        worst = max(actual.values())
        # never worse than the worst fixed strategy, and within a
        # small factor of the per-dataset optimum
        assert chosen <= worst
        assert chosen <= 5 * max(best, 1)
