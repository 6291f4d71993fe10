"""eval-tables: Tables 3-5, warm evaluation of precompiled plans.

Why: ``datalog/evaluate.py`` and ``engine/database.py`` do all the
work, rewriting none — the cell where an array-native core or a
join-order change must show, and where ``tw``'s 250k generated tuples
on ``3.ttl`` dominate exactly as in the paper.  12 plans (sequence1
prefixes 4, 7, 11 and sequence3 prefix 7, each under lin/log/tw) run
over four loaded datasets: 48 cells a round.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import inputs
from common import (
    Context,
    item_metrics,
    median,
    optional,
    peak_rss_self_mb,
    timed,
    timed_rounds,
)
from spans import SpanRecorder

import repro
from repro import OMQ, TBox, certain_answers, chain_cq, create_engine
from repro.data.generator import workload_abox

SETUP_REPEATS = 1  # completion, load, compile and a 2 s warm-up round
CLOCK = time.process_time  # the operations are computation in this process

Cell = Tuple[str, str, int, str]  # dataset, sequence, prefix, method


def label(cell: Cell) -> str:
    return "/".join(map(str, cell))


class EvalTables:
    name = "eval-tables"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.engines: Dict[str, object] = {}
        self.plans: Dict[Tuple[str, int, str], object] = {}
        self.cells: List[Cell] = []
        self.warm: Dict[Cell, object] = {}

    # -- life cycle --------------------------------------------------------

    def datasets(self):
        datasets = {name: inputs.table2_dataset(name)
                    for name, *_ in inputs.TABLE2}
        datasets["random-large"] = workload_abox("random-large", scale=2.0)
        return datasets

    def setup(self) -> None:
        self.tbox = TBox.parse(inputs.EXAMPLE11)
        for name, abox in self.datasets().items():
            self.engines[name] = create_engine(
                "python", abox.complete(self.tbox))
        for sequence, prefix in inputs.EVAL_QUERIES:
            query = chain_cq(inputs.SEQUENCES[sequence][:prefix])
            for method in inputs.METHODS:
                self.plans[sequence, prefix, method] = repro.compile(
                    OMQ(self.tbox, query), method=method)
        self.cells = [(dataset, *key) for dataset in self.engines
                      for key in self.plans]
        self.warm = self.run_round(SpanRecorder(False))[1]

    def teardown(self) -> None:
        for engine in self.engines.values():
            engine.close()
        self.engines.clear()

    def peak_rss_mb(self) -> float:
        return peak_rss_self_mb()

    # -- the operation -----------------------------------------------------

    def run_round(self, recorder):
        """Execute every cell once, in seeded order; returns the cell
        times and the answers."""
        cell_ms: Dict[Cell, float] = {}
        results: Dict[Cell, object] = {}
        for cell in inputs.shuffled(self.cells, self.ctx.rng):
            results[cell], seconds = self.ctx.host.timed(
                self.execute, recorder, cell)
            cell_ms[cell] = seconds * 1000.0
        return cell_ms, results

    def execute(self, recorder, cell: Cell):
        dataset, *key = cell
        with recorder.span("rewriting.plan.execute", op=label(cell)):
            return self.plans[tuple(key)].execute(self.engines[dataset])

    def check_round(self, results: Dict[Cell, object], what: str) -> None:
        """lin, log and tw must agree cell by cell, and with the
        warm-up round (itself held to the oracle through the plans)."""
        tally = self.ctx.tally
        for cell, result in results.items():
            dataset, sequence, prefix, _ = cell
            reference = self.warm[dataset, sequence, prefix, "lin"].answers
            tally.check(self.ctx.observed(result.answers) == reference,
                        f"{self.name}: {what} {cell}")

    def verify(self) -> None:
        """Every distinct OMQ against certain answers on the seeded
        down-scaled instance, for each of its three plans."""
        ctx = self.ctx
        small = inputs.oracle_instance(ctx.seed)
        engine = create_engine("python", small.complete(self.tbox))
        try:
            for sequence, prefix in inputs.EVAL_QUERIES:
                query = chain_cq(inputs.SEQUENCES[sequence][:prefix])
                with ctx.recorder.span("chase.certain"):
                    expected = certain_answers(self.tbox, small, query)
                for method in inputs.METHODS:
                    plan = self.plans[sequence, prefix, method]
                    ctx.tally.check(
                        ctx.observed(plan.execute(engine).answers)
                        == expected,
                        f"{self.name}: oracle {sequence}[:{prefix}]/{method}")
        finally:
            engine.close()
        self.check_round(self.warm, "warm-up")

    def measure(self) -> Dict[str, float]:
        ctx = self.ctx
        rounds: List[Dict[Cell, float]] = []
        for cell_ms, results in timed_rounds(
                ctx.seconds, lambda: self.run_round(ctx.recorder)):
            rounds.append(cell_ms)
            self.check_round(results, "round")
        return item_metrics(rounds)

    # -- the traced layer pass ----------------------------------------------

    def layers(self) -> Dict[str, float]:
        ctx, rec = self.ctx, self.ctx.recorder
        # untraced and traced rounds alternate, so drift hits both
        walls = {False: 0.0, True: 0.0}
        for traced in (False, True, False, True):
            (cell_ms, results), wall = timed(
                self.run_round, rec if traced else SpanRecorder(False))
            walls[traced] += wall
            self.check_round(results, "layer-pass round")
            if not traced:
                plain_ms = cell_ms
        metrics: Dict[str, float] = {
            "eval.round_s": sum(plain_ms.values()) / 1000.0,
            "trace_overhead_pct":
                (walls[True] - walls[False]) / walls[False] * 100.0,
            "datalog.generated_tuples": sum(
                result.generated_tuples for result in results.values()),
            "engine.answer_rows": sum(
                len(result.answers) for result in results.values()),
        }
        # Engine.evaluate again under each Plan.execute span
        parents = {span.op: span for span in rec.spans
                   if span.name == "rewriting.plan.execute"}
        executing = evaluating = overhead = 0.0
        for cell in self.cells:
            dataset, *key = cell
            parent = parents[label(cell)]
            with rec.span(f"datalog.evaluate.{key[-1]}",
                          parent=parent) as child:
                self.engines[dataset].evaluate(self.plans[tuple(key)].ndl)
            executing += parent.seconds
            evaluating += child.seconds
            overhead += max(0.0, parent.seconds - child.seconds)
        # set-up's two public calls, once more per dataset
        for name, abox in self.datasets().items():
            with rec.span("data.complete", op=name):
                completed = abox.complete(self.tbox)
            with rec.span("engine.load", op=name):
                create_engine("python", completed).close()
        table = rec.self_times()
        for method in inputs.METHODS:
            metrics[f"datalog.evaluate_ms.{method}"] = (
                table[f"datalog.evaluate.{method}"]["total_s"] * 1e3)
            metrics[f"rewriting.rules.{method}"] = sum(
                plan.rules for key, plan in self.plans.items()
                if key[-1] == method)
        metrics.update({
            "rewriting.plan.execute_overhead_us":
                overhead * 1e6,
            "data.complete_ms": table["data.complete"]["total_s"] * 1e3,
            "engine.load_ms": table["engine.load"]["total_s"] * 1e3,
            "chase.certain_ms": table["chase.certain"]["total_s"] * 1e3,
            "rewriting.width_max": max(p.width for p in self.plans.values()),
            "rewriting.depth_max": max(p.depth for p in self.plans.values()),
            "layers.accounted_pct": evaluating / executing * 100.0,
        })
        for engine_name in ("sql", "sql-views"):
            metrics[f"sql.round_ms.{engine_name}"] = optional(
                lambda: self.sql_round(engine_name))
        metrics.update(optional(self.shard_rounds, {}))
        return metrics

    def sql_round(self, engine_name: str) -> float:
        """The ``1.ttl`` + ``2.ttl`` cells on one SQLite engine (the
        cell the "one SQLite mode" decision is read from)."""
        datasets = self.datasets()
        total = 0.0
        for name in ("1.ttl", "2.ttl"):
            engine = create_engine(engine_name,
                                   datasets[name].complete(self.tbox))
            try:
                for key, plan in self.plans.items():
                    with self.ctx.recorder.span(f"sql.{engine_name}") as span:
                        result = plan.execute(engine)
                    total += span.seconds
                    self.ctx.tally.check(
                        self.ctx.observed(result.answers)
                        == self.warm[(name, *key)].answers,
                        f"{self.name}: {engine_name} {name} {key}")
            finally:
                engine.close()
        return total * 1e3

    def shard_rounds(self) -> Dict[str, float]:
        """``ShardedSession(shards=2, executor="process")`` against a
        monolithic ``AnswerSession`` over ``random-large``.  Layer-only:
        on 2 cores its run-to-run spread is wider than any bound."""
        from repro import AnswerSession, ShardedSession

        rec = self.ctx.recorder
        abox = workload_abox("random-large", scale=2.0)
        plans = [repro.compile(OMQ(self.tbox, chain_cq(labels)))
                 for labels in ("RS", "RSR", "RSRS")]
        with rec.span("shard.setup") as setup:
            sharded = ShardedSession(abox, shards=2, executor="process")
        try:
            with AnswerSession(abox) as mono:
                for session in (sharded, mono):  # load and warm
                    for plan in plans:
                        plan.execute(session)
                rounds = {"shard.round": [], "shard.mono_round": []}
                for _ in range(5):
                    for name, session in (("shard.round", sharded),
                                          ("shard.mono_round", mono)):
                        with rec.span(name) as span:
                            got = [plan.execute(session).answers
                                   for plan in plans]
                        rounds[name].append(span.seconds)
                        if session is sharded:
                            split = got
                self.ctx.tally.check(
                    [self.ctx.observed(a) for a in split] == got,
                    f"{self.name}: sharded answers differ from monolithic")
        finally:
            sharded.close()
        return {"shard.setup_ms": setup.seconds * 1e3,
                "shard.round_ms": median(rounds["shard.round"]) * 1e3,
                "shard.mono_round_ms":
                    median(rounds["shard.mono_round"]) * 1e3}
