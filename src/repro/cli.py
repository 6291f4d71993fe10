"""Command-line interface: rewrite and answer OMQs from files.

Usage (after ``pip install -e .``)::

    python -m repro rewrite --tbox onto.txt --query "R(x,y), S(y,z)" \
        --answers x --method lin
    python -m repro answer --tbox onto.txt --data data.txt \
        --query "R(x,y)" --answers x,y
    python -m repro answer --tbox onto.txt --data data.txt \
        --query "R(x,y)" --query "S(x,y)" --answers x   # one session
    python -m repro explain --tbox onto.txt --query "R(x,y)" \
        --answers x --method tw --json
    python -m repro classify --tbox onto.txt --query "R(x,y), S(y,z)"
    python -m repro landscape
    python -m repro serve --port 8080 --dataset demo=data.txt
    python -m repro subscribe --url http://127.0.0.1:8080 \
        --dataset demo --tbox onto.txt --query "R(x,y)" --answers x,y

The TBox file uses the :meth:`repro.ontology.TBox.parse` syntax and the
data file the :meth:`repro.data.ABox.parse` syntax.  Every pipeline
subcommand builds one :class:`~repro.rewriting.plan.AnswerOptions`
from its flags and runs the compiled :mod:`repro.rewriting.plan`
pipeline; ``explain`` prints the plan report without evaluating.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .chase.consistency import is_consistent
from .data import ABox
from .ontology import TBox
from .queries import CQ
from .engine import ENGINES, create_engine
from .rewriting import OMQ, AnswerSession
from .rewriting.plan import (OPTION_METHODS, AnswerOptions, compile_omq,
                            format_explain)


def _load_tbox(path: str) -> TBox:
    with open(path) as handle:
        return TBox.parse(handle.read())


def _load_query(text: str, answers: Optional[str]) -> CQ:
    answer_vars = [v.strip() for v in answers.split(",")] if answers else []
    return CQ.parse(text, answer_vars=answer_vars)


def _options(args, **extra) -> AnswerOptions:
    """One ``AnswerOptions`` from a parsed namespace's pipeline flags."""
    fields = {"method": getattr(args, "method", None),
              "engine": getattr(args, "engine", None),
              "timeout": getattr(args, "timeout", None),
              "over": getattr(args, "over", None)}
    fields.update(extra)
    return AnswerOptions.coerce(
        {key: value for key, value in fields.items() if value is not None})


def _cmd_rewrite(args) -> int:
    tbox = _load_tbox(args.tbox)
    query = _load_query(args.query, args.answers)
    plan = compile_omq(OMQ(tbox, query), _options(args))
    print(f"# method={args.method} clauses={plan.rules} "
          f"width={plan.width} depth={plan.depth}")
    print(plan.ndl)
    return 0


def _cmd_explain(args) -> int:
    import json

    tbox = _load_tbox(args.tbox)
    query = _load_query(args.query, args.answers)
    abox = completed = None
    options = _options(args)
    if args.data:
        with open(args.data) as handle:
            abox = ABox.parse(handle.read())
        completed = abox.complete(tbox)
    try:
        plan = compile_omq(OMQ(tbox, query), options, data=completed)
    except ValueError as error:
        print(f"# {error}", file=sys.stderr)
        return 1
    if abox is None:
        report = plan.explain()
    else:
        # with data, also what an answer over it would run
        raw = plan._variant_tbox() is None
        with create_engine(options.engine or "python",
                           abox if raw else completed) as backend:
            report = plan.explain(backend)
    print(json.dumps(report, indent=2) if args.json
          else format_explain(report))
    return 0


def _cmd_answer(args) -> int:
    tbox = _load_tbox(args.tbox)
    answer_specs = args.answers or [None]
    if len(answer_specs) == 1:
        answer_specs = answer_specs * len(args.query)
    if len(answer_specs) != len(args.query):
        print(f"# got {len(args.query)} --query but "
              f"{len(args.answers)} --answers (need one per query, "
              "or a single one shared by all)", file=sys.stderr)
        return 1
    queries = [_load_query(text, answers)
               for text, answers in zip(args.query, answer_specs)]
    with open(args.data) as handle:
        abox = ABox.parse(handle.read())
    if not is_consistent(tbox, abox):
        print("# data is INCONSISTENT with the ontology: every tuple is "
              "a certain answer", file=sys.stderr)
        return 2
    options = _options(args)
    # one session for all queries: the data is completed, loaded and
    # indexed once, each --query only pays compilation + evaluation
    with AnswerSession(abox, engine=args.engine) as session:
        for position, query in enumerate(queries):
            active = None
            if getattr(args, "trace", False):
                from .obs.trace import Trace, tracing

                active = Trace(wanted=True)
                with tracing(active):
                    plan = session.compile(OMQ(tbox, query), options)
                    result = plan.execute(session)
            else:
                plan = session.compile(OMQ(tbox, query), options)
                result = plan.execute(session)
            if len(queries) > 1:
                print(f"# [{position}] {query}")
            for row in sorted(result.answers):
                print("\t".join(row) if row else "true")
            if not result.answers and query.is_boolean:
                print("false")
            # compile + evaluate, matching what this query actually
            # cost (and what the pre-plan CLI reported)
            elapsed = sum(plan.timings.values()) + result.seconds
            print(f"# {len(result.answers)} answers, "
                  f"{result.generated_tuples} tuples materialised, "
                  f"{elapsed * 1000:.1f} ms",
                  file=sys.stderr)
            if active is not None:
                print(f"# trace {active.trace_id}", file=sys.stderr)
                for entry in active.flat_spans():
                    print(f"#   {entry['name']}: "
                          f"{entry['seconds'] * 1000:.2f} ms",
                          file=sys.stderr)
    return 0


def _cmd_sql(args) -> int:
    from .sql import compile_query

    tbox = _load_tbox(args.tbox)
    query = _load_query(args.query, args.answers)
    plan = compile_omq(OMQ(tbox, query), _options(args))
    print(compile_query(plan.ndl).script())
    return 0


def _cmd_classify(args) -> int:
    tbox = _load_tbox(args.tbox)
    query = _load_query(args.query, args.answers)
    omq = OMQ(tbox, query)
    from .complexity import combined_complexity

    import math

    depth = omq.depth
    leaves = omq.leaves if omq.leaves is not None else math.inf
    treewidth = 1 if query.is_tree_shaped else omq.treewidth
    print(f"class:    {omq.omq_class()}")
    print(f"depth:    {depth}")
    print(f"shape:    tree={query.is_tree_shaped} linear={query.is_linear} "
          f"leaves={omq.leaves} treewidth={omq.treewidth}")
    print(f"combined: {combined_complexity(depth, treewidth, leaves)}")
    return 0


def _cmd_landscape(_args) -> int:
    from .complexity import landscape_grid
    from .experiments.reporting import format_table

    grid = landscape_grid()
    print(format_table(
        ["depth", "query shape", "combined", "rewriting sizes"],
        [[row["depth"], row["shape"], row["combined"], row["rewritings"]]
         for row in grid]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OMQ rewriting and answering "
                    "(Bienvenu et al., PODS 2017 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_data=False, multi_query=False):
        p.add_argument("--tbox", required=True,
                       help="path to the ontology file")
        if multi_query:
            p.add_argument("--query", required=True, action="append",
                           help="CQ body, e.g. 'R(x,y), S(y,z)'; repeat "
                                "to answer several queries over one "
                                "loaded session")
            p.add_argument("--answers", default=None, action="append",
                           help="comma-separated answer variables (once "
                                "per --query, or once for all)")
        else:
            p.add_argument("--query", required=True,
                           help="CQ body, e.g. 'R(x,y), S(y,z)'")
            p.add_argument("--answers", default=None,
                           help="comma-separated answer variables")
        if with_data:
            p.add_argument("--data", required=True,
                           help="path to the data file")
        p.add_argument("--method", default="auto", choices=OPTION_METHODS)

    rewrite_parser = sub.add_parser("rewrite",
                                    help="print the NDL rewriting")
    common(rewrite_parser)
    rewrite_parser.add_argument("--over", default="complete",
                                choices=("complete", "arbitrary"))
    rewrite_parser.set_defaults(func=_cmd_rewrite)

    # no prefix matching on the pipeline subcommands: a removed flag
    # must be a usage error, not a spelling of a remaining one
    explain_parser = sub.add_parser(
        "explain", allow_abbrev=False,
        help="compile the OMQ and print the plan report "
             "(method chosen, rewriting size/width/depth, "
             "per-stage timings) without evaluating")
    common(explain_parser)
    explain_parser.add_argument("--over", default="complete",
                                choices=("complete", "arbitrary"))
    explain_parser.add_argument("--engine", default=None,
                                choices=ENGINES,
                                help="execution engine to record in the "
                                     "plan")
    explain_parser.add_argument("--timeout", type=float, default=None,
                                help="soft evaluation budget (seconds) to "
                                     "record in the plan")
    explain_parser.add_argument("--data", default=None,
                                help="data file: also report the program "
                                     "an answer over it would run "
                                     "(needed by --method adaptive)")
    explain_parser.add_argument("--json", action="store_true",
                                help="print the report as JSON")
    explain_parser.set_defaults(func=_cmd_explain)

    answer_parser = sub.add_parser("answer", allow_abbrev=False,
                                   help="compute certain answers")
    common(answer_parser, with_data=True, multi_query=True)
    answer_parser.add_argument("--engine", default="python",
                               choices=ENGINES,
                               help="evaluation backend")
    answer_parser.add_argument("--trace", action="store_true",
                               help="print a per-span timing breakdown "
                                    "(compile stages, cache lookups, "
                                    "execution) to stderr")
    answer_parser.set_defaults(func=_cmd_answer)

    sql_parser = sub.add_parser(
        "sql", allow_abbrev=False,
        help="print the SQL script the sql engine runs for the "
             "rewriting (one table per IDB predicate, then the goal "
             "select)")
    common(sql_parser)
    sql_parser.set_defaults(func=_cmd_sql)

    classify_parser = sub.add_parser("classify",
                                     help="classify the OMQ (Figure 1)")
    common(classify_parser)
    classify_parser.set_defaults(func=_cmd_classify)

    landscape_parser = sub.add_parser("landscape",
                                      help="print the Figure 1 grid")
    landscape_parser.set_defaults(func=_cmd_landscape)

    serve_parser = sub.add_parser(
        "serve", help="serve OMQ answering over JSON/HTTP "
                      "(see repro.service)")
    from .service.serve import add_serve_arguments

    add_serve_arguments(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    subscribe_parser = sub.add_parser(
        "subscribe", help="register a standing query against a running "
                          "server and print its answer deltas as they "
                          "arrive (long-poll; see repro.standing)")
    common(subscribe_parser)
    subscribe_parser.add_argument("--url", default="http://127.0.0.1:8080",
                                  help="server base URL")
    subscribe_parser.add_argument("--dataset", required=True,
                                  help="registered dataset to watch")
    subscribe_parser.add_argument("--tenant", default="",
                                  help="tenant namespace to subscribe in "
                                       "(sent as X-Repro-Tenant)")
    subscribe_parser.add_argument("--engine", default=None, choices=ENGINES,
                                  help="evaluation backend for maintenance")
    subscribe_parser.add_argument("--poll-timeout", type=float, default=25.0,
                                  dest="poll_timeout",
                                  help="seconds each long-poll may block")
    subscribe_parser.add_argument("--max-deltas", type=int, default=0,
                                  dest="max_deltas",
                                  help="exit after this many deltas "
                                       "(0 = run until interrupted)")
    subscribe_parser.set_defaults(func=_cmd_subscribe)
    return parser


def _cmd_serve(args) -> int:
    from .service.serve import run

    return run(args)


def _cmd_subscribe(args) -> int:
    from .client import Client

    tbox = _load_tbox(args.tbox)
    query = _load_query(args.query, args.answers)
    client = Client.connect(args.url, timeout=args.poll_timeout + 30.0,
                            tenant=args.tenant)
    sub = client.subscribe(args.dataset, OMQ(tbox, query), _options(args))
    print(f"# subscribed {sub.subscription_id} to dataset "
          f"{args.dataset!r} at epoch {sub.epoch} "
          f"({len(sub.answers)} answers)", file=sys.stderr)
    for row in sorted(sub.answers):
        print("\t".join(row) if row else "true")
    received = 0
    try:
        while args.max_deltas <= 0 or received < args.max_deltas:
            for delta in sub.poll(timeout=args.poll_timeout):
                received += 1
                if delta.resync:
                    print(f"# resync epoch={delta.epoch}")
                    for row in sorted(delta.answers or ()):
                        print("= " + ("\t".join(row) if row else "true"))
                else:
                    print(f"# delta epoch={delta.epoch}")
                    for row in sorted(delta.added):
                        print("+ " + ("\t".join(row) if row else "true"))
                    for row in sorted(delta.removed):
                        print("- " + ("\t".join(row) if row else "true"))
                if args.max_deltas > 0 and received >= args.max_deltas:
                    break
    except KeyboardInterrupt:
        pass
    finally:
        try:
            sub.unsubscribe()
        except Exception:
            pass  # server already gone; nothing to clean up
        client.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
