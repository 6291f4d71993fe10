"""Tests for the experiment harnesses (Figure 2, Tables 1-5)."""


from repro import OMQ, chain_cq, create_engine
from repro.experiments import (
    ALGORITHMS,
    SEQUENCES,
    ascii_barchart,
    consistency_check,
    format_table,
    rewriting_sizes,
    run_evaluation_table,
    size_table,
    table2,
    table_rows,
)
from repro.rewriting.plan import compile_omq

from .helpers import example11_tbox


class TestFigure2:
    def test_sequences_are_the_papers(self):
        assert SEQUENCES["sequence1"] == "RRSRSRSRRSRRSSR"
        assert SEQUENCES["sequence2"] == "SRRRRRSRSRRRRRR"
        assert SEQUENCES["sequence3"] == "SRRSSRSRSRRSRRS"

    def test_sizes_small_run(self):
        points = rewriting_sizes(max_atoms=5,
                                 algorithms=("tw", "lin", "log", "ucq"))
        assert len(points) == 3 * 5 * 4
        assert all(p.clauses is not None for p in points)

    def test_optimal_rewriters_grow_linearly(self):
        points = rewriting_sizes(max_atoms=9,
                                 algorithms=("tw", "lin", "log"))
        for algorithm in ("tw", "lin", "log"):
            for name in SEQUENCES:
                sizes = [p.clauses for p in points
                         if p.algorithm == algorithm and p.sequence == name]
                # linear-ish: clauses grow at most ~8 per extra atom
                assert all(s <= 8 * (i + 2)
                           for i, s in enumerate(sizes)), (algorithm, name)

    def test_ucq_grows_exponentially_on_sequence1(self):
        points = rewriting_sizes(max_atoms=13, algorithms=("ucq",),
                                 sequences={"sequence1":
                                            SEQUENCES["sequence1"]})
        sizes = [p.clauses for p in points]
        assert sizes[-1] > 8 * sizes[6]

    def test_size_table_layout(self):
        points = rewriting_sizes(max_atoms=3)
        rows = size_table(points, "sequence1")
        assert len(rows) == 3
        assert len(rows[0]) == 1 + len(ALGORITHMS)

    def test_barchart_renders(self):
        points = rewriting_sizes(max_atoms=4,
                                 algorithms=("tw", "lin", "log", "ucq"))
        art = ascii_barchart(points, "sequence1")
        assert "Figure 2" in art and "#" in art


class TestTable2:
    def test_rows_and_datasets(self):
        datasets, rows = table2(scale=0.02, seed=1)
        assert len(rows) == 4
        assert set(datasets) == {"1.ttl", "2.ttl", "3.ttl", "4.ttl"}
        for row in rows:
            assert row[5] > 0  # atoms

    def test_format_table(self):
        _, rows = table2(scale=0.02)
        text = format_table(["d", "V", "p", "q", "deg", "atoms"], rows)
        assert "1.ttl" in text


class TestTables345:
    def test_small_evaluation_run_consistent(self):
        datasets, _ = table2(scale=0.01, seed=3)
        points = run_evaluation_table("sequence1", datasets,
                                      sizes=(1, 3),
                                      algorithms=("tw", "lin", "log",
                                                  "ucq"))
        assert consistency_check(points)
        rows = table_rows(points, "1.ttl")
        assert len(rows) == 2
        # the tables stay the paper's: a cell is the rewriting as
        # written on the raw engine, never below what execute (which
        # specialises it to the data) materialises
        tbox = example11_tbox()
        for name, abox in datasets.items():
            with create_engine("python", abox.complete(tbox)) as engine:
                for point in points:
                    if point.dataset != name:
                        continue
                    plan = compile_omq(
                        OMQ(tbox, chain_cq(
                            SEQUENCES["sequence1"][:point.atoms])),
                        method=point.algorithm)
                    assert (point.generated_tuples
                            == engine.evaluate(plan.ndl).generated_tuples
                            >= plan.execute(engine).generated_tuples)

    def test_all_sequences_supported(self):
        datasets, _ = table2(scale=0.01, seed=4)
        small = {"1.ttl": datasets["1.ttl"]}
        for sequence in SEQUENCES:
            points = run_evaluation_table(sequence, small, sizes=(2,),
                                          algorithms=("tw", "lin"))
            assert consistency_check(points)
