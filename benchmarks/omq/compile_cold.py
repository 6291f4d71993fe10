"""compile-cold: cold ``repro.compile`` of the paper's own OMQs.

Why: ``ontology``, ``queries``, ``chase`` and the rewriters do all the
work and the engine almost none (each plan executes once on a tiny
ABox for the correctness check) — the compile-side kernel.  Every
operation builds fresh ``TBox``/``CQ`` objects and compiles without a
``RewritingCache``, so nothing is reused between operations unless the
program itself memoises across objects.
"""

from __future__ import annotations

import time
from typing import Dict, List

import inputs
from common import (
    Context,
    item_metrics,
    median,
    peak_rss_self_mb,
    timed,
    timed_rounds,
)
from spans import SpanRecorder

import repro
from repro import OMQ, TBox, certain_answers, create_engine
from repro.queries.treedecomp import tree_decomposition
from repro.hardness import (
    dagger_tbox,
    ddagger_tbox,
    in_hardest_language,
    is_satisfiable,
    sat_abox,
    sat_query,
    tokenize,
    word_abox,
    word_query,
)

SETUP_REPEATS = 1  # set-up is one 5 s warm-up round: steady as it is
CLOCK = time.process_time  # the operations are computation in this process


def build_tbox(kind: str):
    if kind == "chain":
        return TBox.parse(inputs.EXAMPLE11)
    return dagger_tbox() if kind == "sat" else ddagger_tbox()


def build_query(kind: str, source, rng):
    if kind == "chain":
        return inputs.fresh_chain(source, rng)
    if kind == "sat":
        return sat_query(source)
    return word_query(tokenize(source))


class Round:
    """What one pass over the 30 OMQs produced."""

    def __init__(self):
        self.op_ms: Dict[str, float] = {}
        self.seconds = {"chain": 0.0, "gadget": 0.0}
        self.plans: Dict[str, object] = {}


class CompileCold:
    name = "compile-cold"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.specs = inputs.compile_specs()
        self.expected: Dict[str, frozenset] = {}
        self.small = inputs.oracle_instance(ctx.seed)
        self.small_engine = None
        self.gadget_data = {"sat": sat_abox(), "word": word_abox()}

    # -- the operation -----------------------------------------------------

    def compile_one(self, recorder, label, kind, source, method):
        with recorder.span("op.compile", op=label):
            with recorder.span("ontology.build"):
                tbox = build_tbox(kind)
            with recorder.span("queries.build"):
                query = build_query(kind, source, self.ctx.rng)
            with recorder.span("rewriting.plan"):
                return repro.compile(OMQ(tbox, query), method=method)

    def run_round(self, recorder, check: bool = True) -> Round:
        """Compile every OMQ once, in seeded order.  The timed part of
        an operation is building its fresh objects and compiling;
        executing the plan for the correctness gate is outside it."""
        ctx, done = self.ctx, Round()
        for label, kind, source, method in inputs.shuffled(self.specs,
                                                           ctx.rng):
            plan, elapsed = ctx.host.timed(self.compile_one, recorder,
                                           label, kind, source, method)
            done.op_ms[label] = elapsed * 1000.0
            done.seconds["chain" if kind == "chain" else "gadget"] += elapsed
            done.plans[label] = plan
            if check:
                data = self.gadget_data.get(kind, self.small_engine)
                ctx.tally.check(
                    ctx.observed(plan.execute(data).answers)
                    == self.expected[label], f"{self.name}: {label}")
        return done

    # -- life cycle --------------------------------------------------------

    def setup(self) -> None:
        """The engine the chain plans are checked on, and one warm-up
        round (imports, bytecode, any cross-object memo the program
        keeps) — cost moved out of the cold compile shows here."""
        tbox = TBox.parse(inputs.EXAMPLE11)
        self.small_engine = create_engine("python",
                                          self.small.complete(tbox))
        self.warm = self.run_round(SpanRecorder(False), check=False)

    def verify(self) -> None:
        """Expected answers from the oracle, independent of the
        rewriters: certain answers over the canonical model for the
        chains, the reference solvers for the gadgets."""
        ctx, tbox = self.ctx, TBox.parse(inputs.EXAMPLE11)
        by_chain: Dict[str, frozenset] = {}
        for label, kind, source, _ in self.specs:
            if kind == "chain":
                if source not in by_chain:
                    with ctx.recorder.span("chase.certain", op=label):
                        by_chain[source] = certain_answers(
                            tbox, self.small,
                            inputs.fresh_chain(source, ctx.rng))
                self.expected[label] = by_chain[source]
            else:
                holds = (is_satisfiable(source) if kind == "sat"
                         else in_hardest_language(tokenize(source)))
                self.expected[label] = frozenset({()} if holds else ())
        # the warm-up round's plans are the first ones held to it
        for label, kind, _, _ in self.specs:
            data = self.gadget_data.get(kind, self.small_engine)
            ctx.tally.check(
                ctx.observed(self.warm.plans[label].execute(data).answers)
                == self.expected[label], f"{self.name}: warm-up {label}")

    def measure(self) -> Dict[str, float]:
        ctx = self.ctx
        return item_metrics([done.op_ms for done in timed_rounds(
            ctx.seconds, lambda: self.run_round(ctx.recorder))])

    def teardown(self) -> None:
        if self.small_engine is not None:
            self.small_engine.close()
            self.small_engine = None

    def peak_rss_mb(self) -> float:
        return peak_rss_self_mb()

    # -- the traced layer pass ----------------------------------------------

    def layers(self) -> Dict[str, float]:
        ctx, rec = self.ctx, self.ctx.recorder
        plain, plain_wall = timed(self.run_round, SpanRecorder(False))
        traced, traced_wall = timed(self.run_round, rec)
        metrics: Dict[str, float] = {
            "compile.chain_round_s": plain.seconds["chain"],
            "compile.gadget_round_s": plain.seconds["gadget"],
            "trace_overhead_pct":
                (traced_wall - plain_wall) / plain_wall * 100.0,
        }
        # each public call again, on fresh objects, under its own span
        rewriters = {"lin": repro.lin_rewrite, "log": repro.log_rewrite,
                     "tw": repro.tw_rewrite}
        plan_spans = {span.op: span for span in rec.spans
                      if span.name == "rewriting.plan"}
        parse_us: List[float] = []
        for label, kind, source, method in self.specs:
            tbox, query = build_tbox(kind), build_query(kind, source,
                                                        ctx.rng)
            name = (f"rewriting.{method}" if kind == "chain"
                    else "rewriting.tw_gadget")
            with rec.span(name, op=label, parent=plan_spans[label]):
                rewriters[method](tbox, query)
            with rec.span("fingerprint.omq", op=label):
                OMQ(build_tbox(kind), query).fingerprint()
            if kind == "chain":
                parse_us.append(timed(TBox.parse, inputs.EXAMPLE11)[1] * 1e6)
        distinct = {(kind, str(source)): (kind, source)
                    for _, kind, source, _ in self.specs}
        for kind, source in distinct.values():
            query = build_query(kind, source, ctx.rng)
            with rec.span("queries.shape"):
                query.is_tree_shaped, query.number_of_leaves
                query.treewidth()
            with rec.span("queries.treedecomp"):
                tree_decomposition(build_query(kind, source, ctx.rng))
        for kind in ("chain", "sat", "word"):
            with rec.span("ontology.depth"):
                build_tbox(kind).depth()

        table = rec.self_times()

        def total(name: str) -> float:
            return table.get(name, {}).get("total_s", 0.0)

        plans = traced.plans
        chain = [(label, method) for label, kind, _, method in self.specs
                 if kind == "chain"]
        metrics.update({
            "ontology.parse_us": median(parse_us),
            "ontology.depth_ms": total("ontology.depth") * 1e3,
            "queries.shape_us": total("queries.shape") * 1e6,
            "queries.treedecomp_us": total("queries.treedecomp") * 1e6,
            "rewriting.lin_ms": total("rewriting.lin") * 1e3,
            "rewriting.log_ms": total("rewriting.log") * 1e3,
            "rewriting.tw_ms": total("rewriting.tw") * 1e3,
            "rewriting.tw_gadget_ms": total("rewriting.tw_gadget") * 1e3,
            "rewriting.plan.overhead_us":
                table["rewriting.plan"]["self_s"] * 1e6,
            "fingerprint.omq_us": total("fingerprint.omq") * 1e6,
            "chase.certain_ms": total("chase.certain") * 1e3,
            "rewriting.width_max": max(p.width for p in plans.values()),
            "rewriting.depth_max": max(p.depth for p in plans.values()),
        })
        for method in inputs.METHODS:
            metrics[f"rewriting.rules.{method}"] = sum(
                plans[label].rules for label, m in chain if m == method)
        # how much of an operation the layer spans explain
        accounted = sum(total(name) for name in (
            "ontology.build", "queries.build", "rewriting.lin",
            "rewriting.log", "rewriting.tw", "rewriting.tw_gadget"))
        accounted += table["rewriting.plan"]["self_s"]
        metrics["layers.accounted_pct"] = (
            accounted / total("op.compile") * 100.0)
        return metrics
