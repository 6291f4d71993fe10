"""Ablation: the SQL backend vs the native Python engine, and the NDL
optimiser passes one by one.

Section 6 asks "whether our rewritings can be efficiently implemented
using views in standard DBMSs".  ``test_engine_ablation`` runs the same
rewritings on every :data:`repro.engine.ENGINES` backend through the
unified :mod:`repro.engine` layer, each backend loading the data once,
and prints times and answer counts for each; all must agree on the
answers.

Run as a script, the module is the leave-one-out ablation of the NDL
optimiser passes ``Plan.execute`` runs on every plan
(``repro.datalog.optimize.optimize``; pass the ``src`` directory of the
tree to ablate)::

    python3 benchmarks/bench_ablation_engines.py --src <checkout>/src \\
        --out benchmarks/datalog_pass_ablation.json

Each configuration — all passes, none, and all but each pass — is run
on two inputs:

* the ``eval-tables`` benchmark's 48 cells (four loaded datasets x
  twelve lin/log/tw plans), each specialised to its dataset's nonempty
  signature as ``Plan.specialised`` does and evaluated once on the
  ``python`` engine: clauses, generated tuples and answer rows, with
  every cell's answers held to the unoptimised rewriting's;
* the PerfectRef rewritings of every Section 6 chain of up to
  ``--perfectref-atoms`` atoms, specialised to data holding all of
  their predicates: clauses.

Counts come first, because they decide: a pass whose removal raises a
count on some input is kept.  Specialisation time (the 48 ``optimize``
calls, median of ``--repeat`` readings) and the one cold round of
evaluation are reported apart.  Only a pass that the counts do not
decide gets timed pairs: ``--pairs`` warm rounds of the 48 cells with
and without it, in an order that reverses on every other pair, kept
when removing it loses in at least all but one pair by more than the
all-passes rounds' quartile spread.
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

#: The passes of ``optimize``, in the order it runs them.
PASSES = ("prune_empty_predicates", "remove_duplicate_clauses",
          "inline_single_definition")


def _quartile_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _cells():
    """The eval-tables cells: ``{dataset: completed ABox}`` and the
    twelve plans."""
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


def _perfectref_chains(atoms: int):
    """``{label: PerfectRef rewriting}`` of every Section 6 chain of up
    to ``atoms`` atoms."""
    import inputs
    from repro import OMQ, TBox, chain_cq, rewrite

    tbox = TBox.parse(inputs.EXAMPLE11)
    return {f"{sequence}[:{length}]": rewrite(
        OMQ(tbox, chain_cq(labels[:length])), method="perfectref")
        for sequence, labels in inputs.SEQUENCES.items()
        for length in range(1, atoms + 1)}


def ablate_datalog_passes(perfectref_atoms: int, repeat: int,
                          pairs: int) -> dict:
    """Count, then time where counts do not decide; see the module
    doc."""
    import importlib

    from repro import create_engine

    module = importlib.import_module("repro.datalog.optimize")
    originals = {name: getattr(module, name) for name in PASSES}
    configs = {"all": PASSES, "none": ()}
    for name in PASSES:
        configs[f"all-but-{name}"] = tuple(p for p in PASSES if p != name)

    def select(config):
        for name, function in originals.items():
            setattr(module, name, function if name in configs[config]
                    else lambda query, *_, **__: query)

    completed, plans = _cells()
    engines = {name: create_engine("python", abox)
               for name, abox in completed.items()}
    chains = _perfectref_chains(perfectref_atoms)

    def specialise(config):
        select(config)
        return [(name, index, module.optimize(
            plan.ndl, nonempty=engine.nonempty(
                plan.ndl.program.edb_predicates)))
            for name, engine in engines.items()
            for index, plan in enumerate(plans)]

    def evaluate_round(cells):
        start = time.process_time()
        results = [engines[name].evaluate(ndl) for name, _, ndl in cells]
        return results, time.process_time() - start

    counts, specialise_ms, cold_round_s, programs = {}, {}, {}, {}
    try:
        reference = {(name, index): engine.evaluate(plan.ndl).answers
                     for name, engine in engines.items()
                     for index, plan in enumerate(plans)}
        for config in configs:
            readings = []
            for _ in range(repeat):
                start = time.process_time()
                cells = specialise(config)
                readings.append((time.process_time() - start) * 1e3)
            specialise_ms[config] = statistics.median(readings)
            programs[config] = cells
            results, seconds = evaluate_round(cells)
            cold_round_s[config] = seconds
            for (name, index, _), result in zip(cells, results):
                if result.answers != reference[name, index]:
                    raise AssertionError(
                        f"{config}: wrong answers on {name} plan {index}")
            counts[config] = {
                "clauses": sum(len(ndl.program) for _, _, ndl in cells),
                "generated_tuples": sum(r.generated_tuples
                                        for r in results),
                "answer_rows": sum(len(r.answers) for r in results),
                "perfectref_clauses": {
                    label: len(module.optimize(
                        ndl, nonempty=ndl.program.edb_predicates).program)
                    for label, ndl in chains.items()},
            }
            print(f"{config}: {counts[config]['clauses']} clauses, "
                  f"{counts[config]['generated_tuples']} tuples, "
                  f"specialised in {specialise_ms[config]:.0f} ms",
                  file=sys.stderr)

        verdicts, timed = {}, {}
        for name in PASSES:
            without, full = counts[f"all-but-{name}"], counts["all"]
            raised = [key for key in ("clauses", "generated_tuples")
                      if without[key] > full[key]]
            chains_raised = sorted(
                label for label, clauses
                in without["perfectref_clauses"].items()
                if clauses > full["perfectref_clauses"][label])
            if chains_raised:
                raised.append("perfectref_clauses")
            verdicts[name] = {"raised_when_removed": raised,
                              "perfectref_chains_raised": chains_raised,
                              "decided_by": "counts" if raised else "time",
                              "keep": bool(raised)}
            if raised:
                continue
            rounds = {"all": [], f"all-but-{name}": []}
            order = list(rounds)
            for pair in range(pairs):
                for config in (order if pair % 2 == 0 else order[::-1]):
                    rounds[config].append(
                        evaluate_round(programs[config])[1] * 1e3)
            spread = _quartile_spread(rounds["all"])
            losses = sum(1 for off, on in zip(rounds[order[1]],
                                              rounds["all"])
                         if off - on > spread)
            timed[name] = {"round_ms": rounds,
                           "all_passes_quartile_spread_ms": spread,
                           "losses_when_removed": losses}
            verdicts[name]["keep"] = losses >= max(pairs - 1, 1)
    finally:
        select("all")
        for engine in engines.values():
            engine.close()

    return {
        "passes": list(PASSES),
        "inputs": {"cells": len(reference),
                   "perfectref_chains": len(chains),
                   "perfectref_atoms": perfectref_atoms},
        "clock": "time.process_time",
        "counts": counts,
        "specialise_ms": specialise_ms,
        "cold_round_s": cold_round_s,
        "verdicts": verdicts,
        "timed_pairs": timed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the src directory whose repro is ablated")
    parser.add_argument("--perfectref-atoms", type=int, default=8)
    parser.add_argument("--repeat", type=int, default=5,
                        help="readings of the specialisation time")
    parser.add_argument("--pairs", type=int, default=10,
                        help="timed pairs for a pass counts do not decide")
    parser.add_argument("--out", help="write the JSON report here")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src),
                    os.path.join(ROOT, "benchmarks", "omq")]
    commit = subprocess.run(
        ["git", "-C", args.src, "rev-parse", "HEAD"],
        capture_output=True, text=True).stdout.strip()
    report = {
        "commit": commit,
        "host": {"machine": platform.machine(),
                 "processor": platform.processor(),
                 "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        **ablate_datalog_passes(args.perfectref_atoms, args.repeat,
                                args.pairs),
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
