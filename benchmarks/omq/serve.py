"""serve-hot and serve-wide: cached-plan answers over HTTP.

Both drive one ``python -m repro serve --async-io --workers 2``
subprocess holding ``1.ttl`` through ``Client.connect``, one caller in
a closed loop (the layer pass adds a two-caller phase for throughput).
Every request carries fresh variable names, so a plan-cache hit needs
the canonical fingerprint; the cache is warmed in set-up and its hit
ratio over the run must read 1.0.

serve-hot (16 shapes, at most 200 rows): ``client``, ``aserve``,
``protocol``, ``service`` and ``fingerprint`` do most of the work — the
workload where the micro-batch window, the connection-per-request
client and HTTP parsing show, and where an engine speed-up must show
about nothing.

serve-wide (4 shapes, 2k-6k rows): the same front-end used differently
— row sort, JSON encode, client decode and the engine dominate and the
fixed per-request hops are small, so a wire-format change shows here
and a batch-window change does not.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
import time
from typing import Dict, List, Tuple
from urllib.parse import urlparse

import inputs
from common import (
    Context,
    median,
    optional,
    request_metrics,
    require_floor,
    timed,
)
from server import Served, Server

from repro import OMQ, AnswerSession, Client, TBox, certain_answers
from repro.client import cq_to_text, tbox_to_text
from repro.rewriting.plan import AnswerOptions

SETUP_REPEATS = 5  # start + register + warm is ~0.6 s: median of five
CLOCK = time.perf_counter  # the operations wait on the server subprocess
DATASET = "d1"


class Serve(Served):
    name = ""
    shapes: Tuple[str, ...] = ()
    #: samples a run of the reference length must produce
    floor = 0

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.tbox = TBox.parse(inputs.EXAMPLE11)
        self.abox = inputs.table2_dataset("1.ttl")
        self.warm: Dict[str, frozenset] = {}
        self.reference: Dict[str, frozenset] = {}

    # -- life cycle --------------------------------------------------------

    def setup(self) -> None:
        self.serve(Server(self.ctx.out_dir, self.name))
        self.client.register_dataset(DATASET, self.abox)
        for shape in self.shapes:
            self.warm[shape] = self.request(self.client, shape,
                                            self.ctx.rng)[0]

    # -- the operation -----------------------------------------------------

    def request(self, client, shape: str, rng: random.Random, host=None):
        """One ``Client.answer`` under fresh variable names; returns the
        answer set and the milliseconds of the call alone: wall, or at
        reference speed when given the ``host`` to read it from."""
        omq = OMQ(self.tbox, inputs.fresh_chain(shape, rng))
        result, seconds = (host.timed if host else timed)(
            client.answer, DATASET, omq)
        return result.answers, seconds * 1000.0

    def passes(self, rng: random.Random):
        """Every shape once per pass, in a fresh order each pass: a
        fixed order could keep step with the server's collector and
        give its pauses to the same shape all run long."""
        while True:
            yield from inputs.shuffled(self.shapes, rng)

    def caller(self, client, rng: random.Random, host, stop_at: float,
               floor: int, deadline: float, samples: List[float],
               failures: List[str]) -> None:
        """A closed loop: the next request leaves when the previous
        reply has been checked.  Runs to ``stop_at`` and on until
        ``floor`` samples exist, but never past ``deadline``."""
        for shape in self.passes(rng):
            now = time.perf_counter()
            if (now >= stop_at and len(samples) >= floor) or now >= deadline:
                return
            try:
                answers, wall_ms = self.request(client, shape, rng, host)
            except Exception as error:  # a failed request is a result
                failures.append(f"{shape}: {type(error).__name__}: {error}")
                continue
            if self.ctx.observed(answers) == self.reference[shape]:
                samples.append(wall_ms)
            else:
                failures.append(f"{shape}: wrong answer")

    def run_phase(self, callers: int, seconds: float, floor: int,
                  host=None) -> List[float]:
        """``callers`` closed loops for ``seconds``; returns the pooled
        latency samples.  Given ``host``, a lone caller reads the host's
        speed between its requests and reports them at reference speed
        (callers side by side would disturb the reading)."""
        samples: List[List[float]] = [[] for _ in range(callers)]
        failures: List[str] = []
        clients = [Client.connect(self.server.url) for _ in range(callers)]
        started = time.perf_counter()
        threads = [threading.Thread(
            target=self.caller,
            args=(clients[i], random.Random(self.ctx.rng.random()), host,
                  started + seconds, floor, started + 3 * seconds + 30,
                  samples[i], failures)) for i in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for client in clients:
            client.close()
        pooled = [ms for per_caller in samples for ms in per_caller]
        self.ctx.tally.attempted += len(pooled)
        for failure in failures:
            self.ctx.tally.fail(f"{self.name}: {failure}")
        return pooled

    def verify(self) -> None:
        """Embedded answers are the reference for every HTTP answer;
        the embedded pipeline itself is held to the oracle on the
        seeded down-scaled instance."""
        ctx = self.ctx
        small = inputs.oracle_instance(ctx.seed)
        with AnswerSession(self.abox) as full, \
                AnswerSession(small) as scaled:
            for shape in self.shapes:
                omq = OMQ(self.tbox, inputs.fresh_chain(shape, ctx.rng))
                self.reference[shape] = full.answer(omq).answers
                with ctx.recorder.span("chase.certain"):
                    expected = certain_answers(self.tbox, small, omq.query)
                ctx.tally.check(
                    ctx.observed(scaled.answer(omq).answers) == expected,
                    f"{self.name}: oracle {shape}")
                ctx.tally.check(
                    ctx.observed(self.warm[shape]) == self.reference[shape],
                    f"{self.name}: warm-up {shape} differs from embedded")

    def cache_counts(self) -> Tuple[int, int]:
        cache = self.client.stats()["cache"]
        return cache["hits"], cache["misses"]

    def measure(self) -> Dict[str, float]:
        """One caller for the whole run.  Its rate is its answers over
        the time it spent in them.  (Two callers side by side complete
        a fifth more on this host, but their rate over ten runs spreads
        12% whatever it is scaled by — five threads on two CPUs measure
        the scheduler — so it is a layer metric, ``serve.rps_2_callers``.)"""
        ctx = self.ctx
        floor = ctx.floor(self.floor)
        before = self.cache_counts()
        one = self.run_phase(1, ctx.seconds, floor, ctx.host)
        require_floor(len(one), floor, self.name)
        hits, misses = (after - start for after, start
                        in zip(self.cache_counts(), before))
        ctx.tally.check(misses == 0 and hits > 0,
                        f"{self.name}: plan cache hit ratio below 1.0 "
                        f"({hits} hits, {misses} misses)")
        return request_metrics(one, len(one) / (sum(one) / 1000.0))

    # -- the traced layer pass ----------------------------------------------

    def layers(self) -> Dict[str, float]:
        ctx, rec = self.ctx, self.ctx.recorder
        budget = ctx.seconds / 5.0
        before = self.cache_counts()
        # the same operations untraced, then under a span each
        plain = self.run_phase(1, budget, 0)
        traced: List[float] = []
        rng = random.Random(ctx.rng.random())
        stop_at = time.perf_counter() + budget
        for shape in self.passes(rng):
            if time.perf_counter() >= stop_at:
                break
            with rec.span("op.answer", op=shape):
                answers, wall_ms = self.request(self.client, shape, rng)
            traced.append(wall_ms)
            ctx.tally.check(ctx.observed(answers) == self.reference[shape],
                            f"{self.name}: traced {shape}")
        metrics = {"trace_overhead_pct":
                   (median(traced) - median(plain)) / median(plain) * 100.0}
        two, seconds = timed(self.run_phase, 2, budget, 0)
        metrics["serve.rps_2_callers"] = len(two) / seconds
        metrics["chase.certain_ms"] = (
            rec.self_times()["chase.certain"]["total_s"] * 1e3)
        metrics.update(optional(lambda: self.request_layers(budget), {}))
        metrics.update(self.server_counters(before))
        metrics["obs.trace_overhead_pct"] = optional(
            lambda: self.program_trace_overhead(budget))
        metrics["serve.roundtrip_us"] = optional(self.threaded_roundtrip)
        return metrics

    def wire_body(self, shape: str, rng: random.Random) -> bytes:
        query = inputs.fresh_chain(shape, rng)
        return json.dumps({
            "dataset": DATASET, "tbox_text": tbox_to_text(self.tbox),
            "query": cq_to_text(query), "answers": list(query.answer_vars),
            "options": AnswerOptions().as_dict()}).encode()

    def request_layers(self, budget: float) -> Dict[str, float]:
        """One request at a time, through every layer in turn: the
        client call, then the raw keep-alive round trip it contains,
        then in process the handler the server ran, then the handler's
        own steps — each linked to the span it runs inside."""
        from repro.service import OMQService
        from repro.service.protocol import (
            Router,
            decode_json_body,
            encode_body,
        )

        ctx, rec = self.ctx, self.ctx.recorder
        rng = random.Random(ctx.rng.random())
        service = OMQService(max_workers=2)
        service.register_dataset(DATASET, inputs.table2_dataset("1.ttl"))
        router = Router(service)
        session = AnswerSession(self.abox)
        address = urlparse(self.server.url)
        wire = http.client.HTTPConnection(address.hostname, address.port,
                                          timeout=30)
        client_self: List[float] = []
        trip_self: List[float] = []
        overhead: List[float] = []
        sizes: List[int] = []
        plans: Dict[str, object] = {}
        try:
            for shape in self.shapes:  # warm the embedded plan cache
                router.handle("POST", "/answer",
                              decode_json_body(self.wire_body(shape, rng)))
            stop_at = time.perf_counter() + budget
            for shape in itertools.cycle(self.shapes):
                if time.perf_counter() >= stop_at:
                    break
                with rec.span("client.answer", op=shape) as call:
                    self.request(self.client, shape, rng)
                body = self.wire_body(shape, rng)
                with rec.span("aserve.roundtrip", parent=call) as trip:
                    wire.request("POST", "/answer", body=body, headers={
                        "Content-Type": "application/json"})
                    reply = wire.getresponse()
                    raw = reply.read()
                ctx.tally.check(
                    reply.status == 200 and ctx.observed(
                        tuple(row) for row in json.loads(raw)["answers"])
                    == self.reference[shape],
                    f"{self.name}: keep-alive {shape}")
                sizes.append(len(raw))
                with rec.span("protocol.handle", parent=trip) as handle:
                    router.handle("POST", "/answer", decode_json_body(body))
                with rec.span("protocol.decode", parent=handle):
                    request = router.decode_answer(decode_json_body(body))
                with rec.span("service.answer", parent=handle) as answer:
                    result = service.answer(request.dataset, request.omq,
                                            options=request.options)
                with rec.span("protocol.payload", parent=handle):
                    rendered = router.result_payload(result)
                with rec.span("protocol.encode", parent=trip) as encode:
                    encode_body(rendered)
                with rec.span("service.cache.key", parent=answer):
                    service.cache.key(request.omq, request.options)
                plan = plans.get(shape)
                if plan is None:
                    plan = plans[shape] = session.compile(request.omq)
                with rec.span("rewriting.plan.execute",
                              parent=answer) as execute:
                    plan.execute(session)
                with rec.span("datalog.evaluate", parent=execute) as evaluate:
                    session.backend(None, plan.omq.tbox).evaluate(plan.ndl)
                with rec.span("fingerprint.omq", parent=answer):
                    OMQ(self.tbox, inputs.fresh_chain(shape, rng)
                        ).fingerprint()
                client_self.append(call.seconds - trip.seconds)
                trip_self.append(
                    trip.seconds - handle.seconds - encode.seconds)
                overhead.append(execute.seconds - evaluate.seconds)
        finally:
            wire.close()
            session.close()
            service.close()
        mid = {name: median(values)
               for name, values in rec.seconds_by_name().items()}
        call = mid["client.answer"]
        explained = (mid["protocol.handle"] + mid["protocol.encode"]
                     + median(trip_self) + median(client_self))
        return {
            "client.answer_us": median(client_self) * 1e6,
            "aserve.roundtrip_us": mid["aserve.roundtrip"] * 1e6,
            "protocol.handle_us": mid["protocol.handle"] * 1e6,
            "protocol.decode_us": mid["protocol.decode"] * 1e6,
            "protocol.payload_us": mid["protocol.payload"] * 1e6,
            "protocol.encode_us": mid["protocol.encode"] * 1e6,
            "service.answer_us": mid["service.answer"] * 1e6,
            "service.cache.key_us": mid["service.cache.key"] * 1e6,
            "fingerprint.omq_us": mid["fingerprint.omq"] * 1e6,
            "datalog.evaluate_ms.lin": mid["datalog.evaluate"] * 1e3,
            "rewriting.plan.execute_overhead_us": median(overhead) * 1e6,
            "protocol.response_bytes": sum(sizes) / len(sizes),
            "serve.unexplained_pct": abs(call - explained) / call * 100.0,
            # the share of Client.answer the layer spans itemise
            "layers.accounted_pct": explained / call * 100.0,
        }

    def server_counters(self, before: Tuple[int, int]) -> Dict[str, float]:
        """``GET /stats`` after the pass: the plan-cache hit ratio over
        the pass and the async front-end's counters."""
        stats = self.client.stats()
        hits = stats["cache"]["hits"] - before[0]
        misses = stats["cache"]["misses"] - before[1]
        front = stats.get("async_serving", {})
        return {"service.cache.hit_ratio": hits / max(1, hits + misses),
                "aserve.coalesced": front.get("coalesced", 0),
                "aserve.micro_batches": front.get("batches", 0),
                "aserve.rejected": front.get("rejected", 0)}

    def program_trace_overhead(self, budget: float) -> float:
        """p50 of requests with the program's own ``trace=True``
        against p50 without, alternating so drift hits both."""
        rng = random.Random(self.ctx.rng.random())
        walls = {False: [], True: []}
        stop_at = time.perf_counter() + budget
        for shape in itertools.cycle(self.shapes):
            if time.perf_counter() >= stop_at:
                break
            for flag in (False, True):
                omq = OMQ(self.tbox, inputs.fresh_chain(shape, rng))
                started = time.perf_counter()
                self.client.answer(DATASET, omq, trace=flag)
                walls[flag].append(time.perf_counter() - started)
        return (median(walls[True]) / median(walls[False]) - 1.0) * 100.0

    def threaded_roundtrip(self) -> float:
        """The keep-alive round trip against the threaded front-end
        (which stalls per request where the connection-per-request
        client hides it)."""
        rng = random.Random(self.ctx.rng.random())
        with Server(self.ctx.out_dir, f"{self.name}-threaded",
                    async_io=False) as threaded:
            with Client.connect(threaded.url) as client:
                client.register_dataset(DATASET, self.abox)
            address = urlparse(threaded.url)
            wire = http.client.HTTPConnection(address.hostname, address.port,
                                              timeout=30)
            try:
                trips: List[float] = []
                for shape in (self.shapes * 3)[:24]:
                    body = self.wire_body(shape, rng)
                    with self.ctx.recorder.span("serve.roundtrip",
                                                op=shape) as trip:
                        wire.request("POST", "/answer", body=body, headers={
                            "Content-Type": "application/json"})
                        wire.getresponse().read()
                    trips.append(trip.seconds)
            finally:
                wire.close()
        # the first pass over the shapes compiled the plans
        return median(trips[len(self.shapes):]) * 1e6


class ServeHot(Serve):
    name = "serve-hot"
    shapes = inputs.HOT_SHAPES
    floor = 2000


class ServeWide(Serve):
    name = "serve-wide"
    shapes = inputs.WIDE_SHAPES
    floor = 400
