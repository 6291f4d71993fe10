"""Ablation: the SQL backend vs the native Python engine, and the SQL
optimiser passes one by one.

Section 6 asks "whether our rewritings can be efficiently implemented
using views in standard DBMSs".  ``test_engine_ablation`` runs the same
rewritings on every :data:`repro.engine.ENGINES` backend through the
unified :mod:`repro.engine` layer, each backend loading the data once,
and prints times and answer counts for each; all must agree on the
answers.

Run as a script, the module is the leave-one-out ablation of a
``repro.sql.optimize`` pass pipeline (a tree that still has one; pass
its ``src`` directory)::

    python3 benchmarks/bench_ablation_engines.py --src <checkout>/src \\
        --pairs 10 --out benchmarks/sql_pass_ablation.json

Over the ``eval-tables`` benchmark's 48 cells (four loaded datasets x
twelve lin/log/tw plans, each specialised to its dataset's signature
as ``Plan.execute`` does) it times, per pair, one warm ``sql`` round
under every configuration: all passes, none, and all but each pass,
in an order that reverses on every other pair.  A round is the summed
``process_time`` of the 48 evaluations with the compiled SQL already
memoised; compile time (the 48 ``compile_query`` calls) is timed
apart.  Every configuration's answers are held to the python engine's.
The verdict per pass is the keep rule: removing it must lose in at
least 9 of the pairs by more than the all-passes rounds' quartile
spread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

#: (sequence, prefix length, rewriter) combinations exercised.
CASES = tuple((seq, size, method)
              for seq in ("sequence1", "sequence2")
              for size in (5, 9)
              for method in ("lin", "tw"))

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_case(tbox, backends, sequence, size, method):
    from repro.experiments import SEQUENCES
    from repro.queries import chain_cq
    from repro.rewriting import OMQ, rewrite

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
    from repro.engine import ENGINES, create_engine
    from repro.experiments import example11_tbox, print_table

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


# -- the pass ablation (script mode) ---------------------------------------

def _quartile_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _cells():
    """The eval-tables cells: ``(dataset, completed ABox, plan)``."""
    import inputs
    import repro
    from repro import OMQ, TBox, chain_cq
    from repro.data.generator import workload_abox

    tbox = TBox.parse(inputs.EXAMPLE11)
    datasets = {name: inputs.table2_dataset(name)
                for name, *_ in inputs.TABLE2}
    datasets["random-large"] = workload_abox("random-large", scale=2.0)
    plans = [repro.compile(OMQ(tbox, chain_cq(
        inputs.SEQUENCES[sequence][:prefix])), method=method)
        for sequence, prefix in inputs.EVAL_QUERIES
        for method in inputs.METHODS]
    return {name: abox.complete(tbox) for name, abox in datasets.items()}, \
        plans


def ablate_sql_passes(pairs: int) -> dict:
    """Time every configuration ``pairs`` times; see the module doc."""
    from repro import create_engine
    from repro.sql import compile as sql_compile
    from repro.sql import optimize

    passes = tuple(name for name, _ in optimize.PASSES)
    configs = {"all": passes, "none": ()}
    for name in passes:
        configs[f"all-but-{name}"] = tuple(p for p in passes if p != name)
    active = {"passes": passes}
    by_name = dict(optimize.PASSES)
    original = optimize.optimize_ir

    def selected(ir, passes=None):
        return original(ir, tuple((name, by_name[name])
                                  for name in active["passes"]))

    sql_compile.optimize_ir = selected

    completed, plans = _cells()
    engines = {name: create_engine("sql", abox)
               for name, abox in completed.items()}
    reference = {}
    cells = []
    for name, abox in completed.items():
        with create_engine("python", abox) as python:
            for index, plan in enumerate(plans):
                reference[name, index] = plan.execute(python).answers
                cells.append((name, index,
                              plan.specialised(engines[name])))

    rounds = {config: [] for config in configs}
    compiles = {config: [] for config in configs}
    per_dataset = {config: {name: [] for name in completed}
                   for config in configs}
    order = list(configs)
    try:
        for pair in range(pairs):
            for config in (order if pair % 2 == 0 else order[::-1]):
                active["passes"] = configs[config]
                start = time.process_time()
                for _, _, ndl in cells:
                    sql_compile.compile_query(ndl, materialised=True,
                                              optimize=True)
                compiles[config].append(
                    (time.process_time() - start) * 1e3)
                for engine in engines.values():
                    engine._engine._compilations.clear()
                for name, index, ndl in cells:  # compile and warm
                    engines[name].evaluate(ndl, optimize_sql=True)
                spent = dict.fromkeys(completed, 0.0)
                for name, index, ndl in cells:
                    start = time.process_time()
                    result = engines[name].evaluate(ndl, optimize_sql=True)
                    spent[name] += time.process_time() - start
                    if result.answers != reference[name, index]:
                        raise AssertionError(
                            f"{config}: wrong answers on {name} "
                            f"plan {index}")
                for name, seconds in spent.items():
                    per_dataset[config][name].append(seconds * 1e3)
                rounds[config].append(sum(spent.values()) * 1e3)
            print(f"pair {pair + 1}/{pairs}: " + ", ".join(
                f"{config} {rounds[config][-1]:.0f}" for config in order),
                file=sys.stderr)
    finally:
        for engine in engines.values():
            engine.close()

    spread = _quartile_spread(rounds["all"])
    verdicts = {}
    for name in passes:
        without = rounds[f"all-but-{name}"]
        losses = sum(1 for off, on in zip(without, rounds["all"])
                     if off - on > spread)
        verdicts[name] = {
            "losses_when_removed": losses,
            "median_round_ms_without": statistics.median(without),
            "keep": losses >= max(pairs - 1, 1),
        }
    return {
        "passes": list(passes),
        "pairs": pairs,
        "clock": "time.process_time",
        "round_ms": rounds,
        "round_ms_by_dataset": per_dataset,
        "compile_ms": compiles,
        "median_round_ms": {c: statistics.median(v)
                            for c, v in rounds.items()},
        "median_compile_ms": {c: statistics.median(v)
                              for c, v in compiles.items()},
        "all_passes_quartile_spread_ms": spread,
        "verdicts": verdicts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the src directory whose repro is ablated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", help="write the JSON report here")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src),
                    os.path.join(ROOT, "benchmarks", "omq")]
    try:
        import repro.sql.optimize  # noqa: F401
    except ImportError:
        print("this tree has no SQL pass pipeline to ablate",
              file=sys.stderr)
        return 1
    commit = subprocess.run(
        ["git", "-C", args.src, "rev-parse", "HEAD"],
        capture_output=True, text=True).stdout.strip()
    report = {
        "commit": commit,
        "host": {"machine": platform.machine(),
                 "processor": platform.processor(),
                 "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "sqlite": __import__("sqlite3").sqlite_version},
        **ablate_sql_passes(args.pairs),
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
