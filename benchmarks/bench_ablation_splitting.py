"""Ablation: splitting strategies (Appendix D.4 discussion).

Lin, Log and Tw differ only in where they split the CQ; the paper
observes that no strategy dominates across sequences.  This bench
evaluates all three (plus Tw*) on identical OMQs and data and prints
clause counts, program shape and evaluation statistics.
"""

from repro.experiments import print_table, splitting_comparison


def test_splitting_ablation(paper_data, benchmark):
    datasets, _ = paper_data
    abox = datasets["2.ttl"]
    points = benchmark.pedantic(
        lambda: splitting_comparison(abox, sizes=(5, 9, 13)),
        iterations=1, rounds=1)
    print_table(
        "Ablation - splitting strategies (dataset 2.ttl)",
        ["sequence", "atoms", "variant", "clauses", "depth", "width",
         "seconds", "tuples"],
        [[p.sequence, p.atoms, p.variant, p.clauses, p.depth, p.width,
          f"{p.seconds:.3f}", p.generated_tuples] for p in points])
    # no single variant should win every cell (the paper's observation);
    # at minimum, all variants terminate and agree structurally
    assert {p.variant for p in points} == {"lin", "log", "tw", "tw*"}
