"""Running NDL rewritings in a standard DBMS (SQLite).

Section 6 of the paper asks "whether our rewritings can be efficiently
implemented using views in standard DBMSs".  This example compiles the
Tw rewriting of the running-example OMQ to SQL and prints the two
forms it takes: the table script the ``sql`` engine runs (one
``CREATE TABLE ... AS`` per IDB predicate, computed bottom-up as the
RDFox strategy of Appendix D.4 does) and the single ``WITH``-query one
would register as one view in another DBMS.  It then evaluates the
rewriting on the native Python engine and on SQLite, checking they
agree.

Run with::

    python examples/sql_tables.py
"""

import time

from repro import ABox, OMQ, TBox, chain_cq, evaluate, evaluate_sql, rewrite
from repro.data.generator import erdos_renyi_abox
from repro.sql import SQLEngine, compile_query


def main() -> None:
    tbox = TBox.parse("""
        roles: P, R, S
        P <= S
        P <= R-
    """)
    query = chain_cq("RSR")
    omq = OMQ(tbox, query)
    ndl = rewrite(omq, method="tw")

    print("The Tw rewriting as NDL:")
    print(ndl)

    compilation = compile_query(ndl)
    print("\nThe table script the sql engine runs:")
    print(compilation.script())

    print("\n... or as one registerable WITH-query:")
    print(compilation.cte_query())

    # a small demonstration database, completed for the ontology as
    # rewritings over complete instances require
    abox = ABox.parse("""
        R(ann, bob), S(bob, carl), R(carl, dee),
        A_P(bob), R(dee, ann)
    """).complete(tbox)

    print("\nAnswers from the two engines:")
    python_result = evaluate(ndl, abox)
    print(f"  python : {sorted(python_result.answers)}")
    sql_result = evaluate_sql(ndl, abox)
    print(f"  sql    : {sorted(sql_result.answers)}")
    assert python_result.answers == sql_result.answers

    # at scale, an SQLEngine amortises loading across many queries
    print("\nTiming on an Erdos-Renyi instance (Table 2 style):")
    big = erdos_renyi_abox(1000, 0.01, 0.05, seed=7).complete(tbox)
    with SQLEngine(big) as engine:
        for label, run in (("python", lambda: evaluate(ndl, big)),
                           ("sql", lambda: engine.evaluate(ndl))):
            start = time.perf_counter()
            result = run()
            seconds = time.perf_counter() - start
            print(f"  {label:6s} : {len(result.answers):6d} answers "
                  f"in {seconds:.3f}s")


if __name__ == "__main__":
    main()
