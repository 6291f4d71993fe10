"""Sharded scatter-gather vs monolithic execution wall clock.

The component-locality workload: a large generated ABox of many
disjoint components (``repro.data.workload_abox``), a handful of
compiled chain plans executed repeatedly.  The 4-shard
:class:`~repro.shard.session.ShardedSession` runs them over persistent
worker processes (shared-memory ABox transport, streamed chunked
gather); the 1-shard session pays the same IPC protocol without
parallelism, and the plain monolithic
:class:`~repro.rewriting.api.AnswerSession` is the no-sharding
baseline.

The ``BENCH_shard.json`` envelope is always written (before any
assertion can fail); the >= 1.5x speedup assertion only fires on
machines with at least 4 cores (sharding cannot beat the GIL on one
core).
"""

import os
import time

from repro import OMQ, AnswerSession, compile_omq
from repro.data import workload_abox
from repro.experiments import print_table
from repro.queries import chain_cq
from repro.shard import ShardedSession

from tests.helpers import example11_tbox

#: The hot plans, compiled once and broadcast per round.
QUERIES = ("RS", "RSR", "RSRS")
ROUNDS = 3
SHARDS = 4
MIN_SPEEDUP = 1.5


def _time_rounds(execute) -> float:
    started = time.perf_counter()
    for _ in range(ROUNDS):
        execute()
    return time.perf_counter() - started


def test_sharded_speedup(benchmark, report_writer):
    tbox = example11_tbox()
    # scale=2: ~320 components / ~16k atoms, so per-shard evaluation
    # dwarfs the per-round scatter (shm/pipe) overhead
    abox = workload_abox("random-large", scale=2.0, seed=0)
    plans = [compile_omq(OMQ(tbox, chain_cq(labels)), method="lin")
             for labels in QUERIES]
    cores = os.cpu_count() or 1

    def run_all(session):
        return [plan.execute(session).answers for plan in plans]

    timings = {}
    answers = {}
    with AnswerSession(abox) as session:
        run_all(session)  # warm up: load + complete + index once
        answers["monolithic"] = run_all(session)
        timings["monolithic"] = _time_rounds(lambda: run_all(session))

    transport = None
    for label, shards in (("sharded-1", 1), (f"sharded-{SHARDS}", SHARDS)):
        with ShardedSession(abox, shards=shards,
                            executor="process") as session:
            run_all(session)
            answers[label] = run_all(session)
            timings[label] = _time_rounds(lambda: run_all(session))
            transport = session.stats().get("transport")

    speedup = timings["sharded-1"] / max(timings[f"sharded-{SHARDS}"], 1e-9)
    vs_monolithic = (timings["monolithic"]
                     / max(timings[f"sharded-{SHARDS}"], 1e-9))
    executions = len(plans) * ROUNDS
    rows = [["monolithic session", f"{timings['monolithic']:.3f}",
             f"{executions / timings['monolithic']:.1f}",
             f"{vs_monolithic:.1f}x (vs {SHARDS}-shard)"],
            ["1-shard workers", f"{timings['sharded-1']:.3f}",
             f"{executions / timings['sharded-1']:.1f}", "1.0x"],
            [f"{SHARDS}-shard workers",
             f"{timings[f'sharded-{SHARDS}']:.3f}",
             f"{executions / timings[f'sharded-{SHARDS}']:.1f}",
             f"{speedup:.1f}x"]]
    print_table(
        f"{SHARDS}-shard scatter-gather vs 1-shard "
        f"({len(plans)} plans x {ROUNDS} rounds, {len(abox)} atoms, "
        f"{cores} cores, transport={transport})",
        ["path", "seconds", "executions/sec", "speedup"], rows)

    parity = (answers[f"sharded-{SHARDS}"] == answers["monolithic"]
              and answers["sharded-1"] == answers["monolithic"])
    # the envelope is written before any assertion can fail, so a
    # regression still leaves a report on disk to diagnose
    report = {
        "workload": "random-large",
        "atoms": len(abox),
        "plans": list(QUERIES),
        "rounds": ROUNDS,
        "shards": SHARDS,
        "cores": cores,
        "transport": transport,
        "seconds": {key: round(value, 4)
                    for key, value in timings.items()},
        "speedup_vs_one_shard": round(speedup, 2),
        "speedup_vs_monolithic": round(vs_monolithic, 2),
        "speedup_asserted": cores >= 4,
        "parity": parity,
    }
    report_writer("shard", report)

    # parity first: speed means nothing if the answers drift
    assert parity

    if cores >= 4:
        assert speedup >= MIN_SPEEDUP, (
            f"{SHARDS}-shard execution should parallelise on {cores} "
            f"cores, got {speedup:.1f}x")

    with ShardedSession(abox, shards=SHARDS,
                        executor="process") as session:
        run_all(session)
        benchmark.pedantic(lambda: run_all(session),
                           iterations=1, rounds=3)
