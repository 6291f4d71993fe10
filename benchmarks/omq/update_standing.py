"""update-standing: writes beside standing reads, as deployed.

Why: ``service/updates.py``, ``Database.insert_facts/delete_facts``
index maintenance, ``standing/maintain.py`` restricted re-evaluation
and ``store/`` — so an engine layout that speeds eval-tables but makes
deltas or index patching slower is caught.  The server runs with
``--data-dir`` (the durable WAL path).  Dataset ``watched`` (``2.ttl``)
carries 30 standing subscriptions (6 chain shapes x 5 renamings);
dataset ``plain`` (``1.ttl``) carries none.  One updater alternates
"insert a batch of 5 R/A_P atoms" / "delete the same batch" round-robin
over the two datasets, so the data size is stationary; a second thread
sits in ``Subscription.poll`` and timestamps each delta by epoch.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Tuple

import inputs
from common import (
    Context,
    median,
    optional,
    request_metrics,
    require_floor,
)
from server import Served, Server
from spans import SpanRecorder

from repro import (
    OMQ,
    AnswerSession,
    TBox,
    certain_answers,
    chain_cq,
    create_engine,
)

SETUP_REPEATS = 4  # start, two registrations, 30 subscriptions: ~0.8 s
CLOCK = time.perf_counter  # the operations wait on the server subprocess
WATCHED, PLAIN = "watched", "plain"
#: the subscription the poller parks on: ``S(x,y), R(y,z)`` holds at
#: exactly the ``A_P``-marked vertices, and every batch marks a vertex
#: that was not — so every watched update changes its answers
POLLED = "SR"
#: updates per dataset a full-length run must complete
FLOOR = 300
POLL_TIMEOUT = 0.5


class Stream:
    """What one run of the update stream measured."""

    def __init__(self):
        #: per dataset, the milliseconds of each update at reference
        #: speed (see ``common.HostSpeed``)
        self.ms: Dict[str, List[float]] = {WATCHED: [], PLAIN: []}
        self.delta_ms: List[float] = []


class UpdateStanding(Served):
    name = "update-standing"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.tbox = TBox.parse(inputs.EXAMPLE11)
        self.data = {WATCHED: inputs.table2_dataset("2.ttl"),
                     PLAIN: inputs.table2_dataset("1.ttl")}
        self.unmarked = {name: inputs.unmarked_vertices(abox)
                         for name, abox in self.data.items()}
        self.facts = sum(len(abox) for abox in self.data.values())
        self.data_dir = None
        self.subs: List[Tuple[OMQ, object]] = []
        self.serial = 0

    # -- life cycle --------------------------------------------------------

    def setup(self) -> None:
        ctx = self.ctx
        self.data_dir = tempfile.mkdtemp(prefix="data-", dir=ctx.out_dir)
        self.serve(Server(ctx.out_dir, self.name, data_dir=self.data_dir))
        for name, abox in self.data.items():
            self.client.register_dataset(name, abox)
        # load the engine updates to ``plain`` will have to patch
        self.client.answer(PLAIN, OMQ(self.tbox, chain_cq("RSR")))
        self.subs = []
        for shape in inputs.STANDING_SHAPES:
            for _ in range(inputs.STANDING_RENAMINGS):
                omq = OMQ(self.tbox, inputs.fresh_chain(shape, ctx.rng))
                self.subs.append((omq, self.client.subscribe(WATCHED, omq)))

    def teardown(self) -> None:
        super().teardown()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None

    def verify(self) -> None:
        """Each standing OMQ against the oracle on the down-scaled
        instance, and each subscription's snapshot against an embedded
        from-scratch answer."""
        ctx = self.ctx
        small = inputs.oracle_instance(ctx.seed)
        with AnswerSession(self.data[WATCHED]) as full, \
                AnswerSession(small) as scaled:
            for shape in inputs.STANDING_SHAPES:
                omq = OMQ(self.tbox, chain_cq(shape))
                with ctx.recorder.span("chase.certain"):
                    expected = certain_answers(self.tbox, small, omq.query)
                ctx.tally.check(
                    ctx.observed(scaled.answer(omq).answers) == expected,
                    f"{self.name}: oracle {shape}")
            for omq, sub in self.subs:
                ctx.tally.check(
                    ctx.observed(sub.answers) == full.answer(omq).answers,
                    f"{self.name}: snapshot of {sub.subscription_id}")

    # -- the operation -----------------------------------------------------

    def polled(self):
        index = inputs.STANDING_SHAPES.index(POLLED)
        return self.subs[index * inputs.STANDING_RENAMINGS][1]

    def run_stream(self, seconds: float, floor: int, recorder) -> Stream:
        """The update stream for ``seconds`` (and on until ``floor``
        updates per dataset), with the poller parked beside it."""
        ctx, client, done = self.ctx, self.client, Stream()
        sent: Dict[int, float] = {}
        arrived: Dict[int, float] = {}
        stop = threading.Event()
        sub = self.polled()
        poll_errors: List[str] = []

        def poller() -> None:
            while not stop.is_set():
                try:
                    deltas = sub.poll(timeout=POLL_TIMEOUT)
                except Exception as error:  # reported as a failed op
                    poll_errors.append(f"{type(error).__name__}: {error}")
                    return
                now = time.perf_counter()
                for delta in deltas:
                    arrived.setdefault(delta.epoch, now)

        def send(dataset: str, kind: str, arguments):
            with recorder.span("op.update", op=f"{dataset}/{kind}"):
                return (time.perf_counter(),
                        client.update(dataset, **arguments))

        def update(dataset: str, batch, insert: bool) -> None:
            kind = "insert" if insert else "delete"
            arguments = {"inserts" if insert else "deletes": batch}
            try:
                (sent_at, body), seconds = ctx.host.timed(
                    send, dataset, kind, arguments)
            except Exception as error:  # a failed request is a result
                ctx.tally.fail(f"{self.name}: {dataset} {kind}: "
                               f"{type(error).__name__}: {error}")
                return
            changed = body.get("inserted" if insert else "deleted")
            if ctx.tally.check(changed == len(batch),
                               f"{self.name}: {dataset} {kind} changed "
                               f"{changed} of {len(batch)} atoms"):
                done.ms[dataset].append(seconds * 1000.0)
                if dataset == WATCHED:
                    sent[body["epoch"]] = sent_at

        thread = threading.Thread(target=poller)
        thread.start()
        started = time.perf_counter()
        try:
            while True:
                now = time.perf_counter() - started
                short = min(map(len, done.ms.values())) < floor
                if (now >= seconds and not short) or now >= 3 * seconds + 30:
                    break
                self.serial += 1
                batches = {name: inputs.update_batch(
                    ctx.rng, self.unmarked[name], self.serial)
                    for name in (WATCHED, PLAIN)}
                for insert in (True, False):
                    for name in (WATCHED, PLAIN):
                        update(name, batches[name], insert)
            # the last delta may still be on its way
            patience = time.perf_counter() + 5.0
            while (sent and max(sent) not in arrived and not poll_errors
                   and time.perf_counter() < patience):
                time.sleep(0.005)
        finally:
            stop.set()
            thread.join()
        for error in poll_errors:
            ctx.tally.fail(f"{self.name}: poll: {error}")
        for epoch, at in sent.items():
            if ctx.tally.check(epoch in arrived,
                               f"{self.name}: no delta for epoch {epoch}"):
                done.delta_ms.append((arrived[epoch] - at) * 1000.0)
        return done

    def check_maintained(self) -> None:
        """After the stream every maintained subscription must equal a
        from-scratch answer, and the data must be back to its size."""
        ctx = self.ctx
        for omq, sub in self.subs:
            sub.poll(timeout=0.0)  # catch up (or resync) to the end
            fresh = self.client.answer(WATCHED, omq).answers
            ctx.tally.check(ctx.observed(sub.answers) == fresh,
                            f"{self.name}: maintained answers of "
                            f"{sub.subscription_id} drifted")
        stored = self.client.stats()["datasets"]
        ctx.tally.check(
            sum(stored[name]["facts"] for name in self.data) == self.facts,
            f"{self.name}: data size not stationary")

    def measure(self) -> Dict[str, float]:
        ctx = self.ctx
        floor = ctx.floor(FLOOR)
        stream = self.run_stream(ctx.seconds, floor, ctx.recorder)
        for name, samples in stream.ms.items():
            require_floor(len(samples), floor, f"{self.name} on {name}")
        self.check_maintained()
        # one updater, closed loop: its rate is its updates over the
        # time it spent in them, both datasets, at reference speed
        spent = [ms for samples in stream.ms.values() for ms in samples]
        return request_metrics(stream.ms[WATCHED],
                               len(spent) / (sum(spent) / 1000.0))

    # -- the traced layer pass ----------------------------------------------

    def layers(self) -> Dict[str, float]:
        ctx, rec = self.ctx, self.ctx.recorder
        budget = ctx.seconds / 4.0
        before = self.client.stats()["standing"]
        plain = self.run_stream(budget, 0, SpanRecorder(False))
        traced = self.run_stream(budget, 0, rec)
        self.check_maintained()
        after = self.client.stats()["standing"]
        watched = len(plain.ms[WATCHED]) + len(traced.ms[WATCHED])
        metrics: Dict[str, float] = {
            "update.plain_p50_ms": median(plain.ms[PLAIN]),
            "standing.delta_p50_ms": median(plain.delta_ms),
            "trace_overhead_pct":
                (median(traced.ms[WATCHED]) / median(plain.ms[WATCHED])
                 - 1.0) * 100.0,
            "standing.maintain_ms":
                (after["maintenance_seconds"]
                 - before["maintenance_seconds"]) / watched * 1e3,
            "chase.certain_ms":
                rec.self_times()["chase.certain"]["total_s"] * 1e3,
        }
        for key in ("deltas_pushed", "tuples_pushed",
                    "fallback_reexecutions"):
            metrics[f"standing.{key}"] = after[key] - before[key]
        ctx.tally.check(metrics["standing.fallback_reexecutions"] == 0,
                        f"{self.name}: maintenance fell back to "
                        "re-execution")
        # a graceful stop checkpoints the store: its size per fact
        self.server.stop()
        stored = sum(os.path.getsize(os.path.join(folder, name))
                     for folder, _, names in os.walk(self.data_dir)
                     for name in names)
        metrics["store.bytes_per_fact"] = stored / self.facts
        metrics.update(optional(self.embedded_layers, {}))
        return metrics

    def embedded_layers(self) -> Dict[str, float]:
        """The public calls an update passes through, each timed in
        process on the stream's own batches (insert, then delete)."""
        from repro.service import OMQService
        from repro.service.updates import rows_by_predicate
        from repro.store import DatasetStore

        ctx, rec = self.ctx, self.ctx.recorder
        rng = random.Random(ctx.rng.random())
        abox = inputs.table2_dataset("1.ttl")
        batches = [inputs.update_batch(rng, self.unmarked[PLAIN],
                                       10**6 + i) for i in range(40)]
        store_dir = tempfile.mkdtemp(prefix="store-", dir=ctx.out_dir)
        engine = create_engine("python", inputs.table2_dataset("1.ttl"))
        session = AnswerSession(inputs.table2_dataset("1.ttl"))
        service = OMQService(max_workers=2)
        store = DatasetStore(store_dir)
        try:
            omq = OMQ(self.tbox, chain_cq("RSR"))
            session.answer(omq)  # load the completed backend
            service.register_dataset(PLAIN, abox)
            service.answer(PLAIN, omq)
            service.register_dataset(WATCHED,
                                     inputs.table2_dataset("1.ttl"))
            sub = service.subscribe(WATCHED, OMQ(self.tbox,
                                                 chain_cq(POLLED)))
            store.save_dataset("", PLAIN, list(abox.atoms()))
            epoch = 0
            for batch in batches:
                fresh = sorted({c for _, args in batch for c in args
                                if c.startswith("u")})
                rows = rows_by_predicate(batch)
                with rec.span("engine.apply_delta"):
                    engine.apply_delta(rows, {}, adom_add=fresh)
                with rec.span("engine.apply_delta"):
                    engine.apply_delta({}, rows, adom_remove=fresh)
                for inserts, deletes in ((batch, ()), ((), batch)):
                    epoch += 1
                    with rec.span("service.updates.apply"):
                        session.apply_update(inserts=inserts,
                                             deletes=deletes)
                    with rec.span("service.update"):
                        service.update(PLAIN, inserts=inserts,
                                       deletes=deletes)
                    with rec.span("store.write"):
                        store.apply_delta("", PLAIN, inserts=list(inserts),
                                          deletes=list(deletes), epoch=epoch)
                    seen = sub.epoch
                    service.update(WATCHED, inserts=inserts, deletes=deletes)
                    with rec.span("standing.poll"):
                        body = service.poll(sub.subscription_id,
                                            since_epoch=seen, timeout=0.0)
                    ctx.tally.check(len(body["deltas"]) == 1,
                                    f"{self.name}: embedded poll returned "
                                    f"{len(body['deltas'])} deltas")
        finally:
            store.close()
            service.close()
            session.close()
            engine.close()
            shutil.rmtree(store_dir, ignore_errors=True)
        spans = rec.seconds_by_name()
        return {"engine.apply_delta_us":
                median(spans["engine.apply_delta"]) * 1e6,
                "service.updates.apply_us":
                median(spans["service.updates.apply"]) * 1e6,
                "service.update_us": median(spans["service.update"]) * 1e6,
                "store.write_us": median(spans["store.write"]) * 1e6,
                "standing.poll_us": median(spans["standing.poll"]) * 1e6}
