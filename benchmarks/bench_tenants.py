"""80-tenant durable serving: load, SIGTERM, warm restart, parity.

The deployment story end-to-end, against a real ``repro serve
--data-dir`` subprocess:

1. **Load** — 80 tenants each register a dataset, answer queries,
   subscribe a standing query, push an update and drain the delta,
   all concurrently; throughput is recorded.
2. **Fairness** — one flooding tenant is driven into its token-bucket
   limit (structured 429 + Retry-After asserted) while a quiet
   tenant's p50 latency is measured; the flood must not widen it.
3. **Restart** — the server is SIGTERMed (graceful drain checkpoints
   the store), restarted on the same directory, and the warm-restart
   wall time is recorded.
4. **Parity** — every tenant's answers, dataset epochs and re-armed
   subscriptions must match the pre-restart state exactly.

Writes ``BENCH_tenants.json`` (see ``benchmarks/README.md``).
"""

import asyncio
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request

from repro import OMQ, AsyncClient, ServiceError
from repro.queries import CQ, chain_cq

from tests.helpers import example11_tbox, random_data

TENANTS = 80
CONCURRENCY = 16
RATE_LIMIT = 60.0   # per-tenant req/s: generous for the load phase
RATE_BURST = 90.0   # ... but finite, so the flood phase can hit it
FLOOD_REQUESTS = 150
CALM_SAMPLES = 25

TBOX = example11_tbox()
QUERIES = {"chain-RS": chain_cq("RS"),
           "unary-AP": CQ.parse("A_P(x)", answer_vars=["x"])}
UPDATE = {"inserts": [("R", ("f1", "f2")), ("S", ("f2", "f3"))]}


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _spawn(port: int, data_dir: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--host", "127.0.0.1", "--port", str(port),
         "--data-dir", data_dir, "--workers", "4",
         "--rate-limit", str(RATE_LIMIT),
         "--rate-burst", str(RATE_BURST)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(
                 filter(None, [os.path.abspath("src"),
                               os.environ.get("PYTHONPATH", "")]))})


def _wait_healthy(url: str, deadline: float = 60.0) -> dict:
    start = time.perf_counter()
    while time.perf_counter() - start < deadline:
        try:
            with urllib.request.urlopen(f"{url}/health",
                                        timeout=5.0) as reply:
                return json.loads(reply.read())
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.1)
    raise RuntimeError(f"server at {url} never became healthy")


def _stats(url: str) -> dict:
    with urllib.request.urlopen(f"{url}/stats", timeout=10.0) as reply:
        return json.loads(reply.read())


def _tenant_name(index: int) -> str:
    return f"t{index:02d}"


async def _load_tenant(url: str, index: int):
    """One tenant's mixed workload; returns its recorded state."""
    tenant = _tenant_name(index)
    async with AsyncClient.connect(url, timeout=60.0,
                                   tenant=tenant) as client:
        return await _tenant_workload(client, tenant, index)


async def _tenant_workload(client, tenant: str, index: int):
    await client.register_dataset("demo",
                                  random_data(index, atoms=24))
    answers = {}
    for name, query in sorted(QUERIES.items()):
        result = await client.answer("demo", OMQ(TBOX, query))
        answers[name] = sorted(list(row) for row in result.answers)
    sub = await client.subscribe("demo", OMQ(TBOX, QUERIES["chain-RS"]))
    await client.update("demo", **UPDATE)
    await sub.poll(timeout=10.0)
    post = {}
    for name, query in sorted(QUERIES.items()):
        result = await client.answer("demo", OMQ(TBOX, query))
        post[name] = sorted(list(row) for row in result.answers)
    return {"tenant": tenant, "requests": 4 + 2 * len(QUERIES),
            "initial": answers, "post": post,
            "subscription": sub.subscription_id,
            "sub_epoch": sub.epoch,
            "sub_answers": sorted(list(row) for row in sub.answers)}


async def _load_phase(url: str):
    gate = asyncio.Semaphore(CONCURRENCY)

    async def bounded(index):
        async with gate:
            return await _load_tenant(url, index)

    return await asyncio.gather(*[bounded(index)
                                  for index in range(TENANTS)])


async def _fairness_phase(url: str):
    """Drive one tenant into its rate limit while timing another."""
    flood = AsyncClient.connect(url, timeout=30.0, tenant="flood")
    await flood.register_dataset("demo", random_data(999, atoms=12))
    calm = AsyncClient.connect(url, timeout=30.0, tenant=_tenant_name(0))
    omq = OMQ(TBOX, QUERIES["chain-RS"])

    async def calm_latencies(samples):
        latencies = []
        for _ in range(samples):
            start = time.perf_counter()
            await calm.answer("demo", omq)
            latencies.append(time.perf_counter() - start)
            await asyncio.sleep(0.02)
        return latencies

    quiet = await calm_latencies(CALM_SAMPLES)

    throttled = {"count": 0, "retry_after": None}

    async def flood_run():
        for _ in range(FLOOD_REQUESTS):
            try:
                await flood.answer("demo", omq)
            except ServiceError as error:
                if error.status == 429:
                    throttled["count"] += 1
                    if throttled["retry_after"] is None:
                        throttled["retry_after"] = error.retry_after
                else:
                    raise

    flood_task = asyncio.ensure_future(flood_run())
    during = await calm_latencies(CALM_SAMPLES)
    await flood_task
    await flood.close()
    await calm.close()

    assert throttled["count"] > 0, "flooding tenant was never throttled"
    assert throttled["retry_after"] is not None and \
        throttled["retry_after"] >= 0, throttled
    return {"flood_requests": FLOOD_REQUESTS,
            "flood_429s": throttled["count"],
            "retry_after_sample": round(throttled["retry_after"], 4),
            "calm_p50_quiet_ms": round(
                statistics.median(quiet) * 1000, 2),
            "calm_p50_during_flood_ms": round(
                statistics.median(during) * 1000, 2)}


async def _parity_phase(url: str, records):
    """Every tenant's post-restart view must equal the recorded one."""
    gate = asyncio.Semaphore(CONCURRENCY)
    mismatches = []

    async def check(record):
        async with gate:
            client = AsyncClient.connect(url, timeout=60.0,
                                         tenant=record["tenant"])
            for name, query in sorted(QUERIES.items()):
                result = await client.answer("demo", OMQ(TBOX, query))
                produced = sorted(list(row) for row in result.answers)
                if produced != record["post"][name]:
                    mismatches.append((record["tenant"], name))
            # the re-armed subscription resyncs to the maintained set
            body = await client.poll(record["subscription"], 0)
            await client.close()
            resynced = sorted(list(row)
                              for row in body.get("answers", ()))
            if not body.get("resync") \
                    or resynced != record["sub_answers"] \
                    or int(body.get("epoch", -1)) != record["sub_epoch"]:
                mismatches.append((record["tenant"], "subscription"))

    await asyncio.gather(*[check(record) for record in records])
    return mismatches


def _terminate(process: subprocess.Popen) -> float:
    start = time.perf_counter()
    process.send_signal(signal.SIGTERM)
    process.wait(timeout=60)
    return time.perf_counter() - start


def test_eighty_tenants_survive_restart(tmp_path, report_writer):
    data_dir = str(tmp_path / "data")
    port = _free_port()
    url = f"http://127.0.0.1:{port}"

    process = _spawn(port, data_dir)
    try:
        _wait_healthy(url)

        load_start = time.perf_counter()
        records = asyncio.run(_load_phase(url))
        load_seconds = time.perf_counter() - load_start
        total_requests = sum(record["requests"] for record in records)

        fairness = asyncio.run(_fairness_phase(url))

        epochs_before = {
            name: entry["epoch"]
            for name, entry in _stats(url)["datasets"].items()}

        drain_seconds = _terminate(process)
    except BaseException:
        process.kill()
        raise

    restart_start = time.perf_counter()
    process = _spawn(port, data_dir)
    try:
        health = _wait_healthy(url)
        warm_restart_seconds = time.perf_counter() - restart_start
        # every tenant's dataset came back before the first request
        assert health["datasets"] == TENANTS + 1, health  # + flood's

        epochs_after = {
            name: entry["epoch"]
            for name, entry in _stats(url)["datasets"].items()}
        assert epochs_after == epochs_before

        mismatches = asyncio.run(_parity_phase(url, records))
        assert not mismatches, mismatches[:10]

        drain2 = _terminate(process)
    except BaseException:
        process.kill()
        raise

    report_writer("tenants", {
        "tenants": TENANTS,
        "concurrency": CONCURRENCY,
        "load_requests": total_requests,
        "load_seconds": round(load_seconds, 3),
        "requests_per_second": round(total_requests / load_seconds, 1),
        "fairness": fairness,
        "sigterm_drain_seconds": round(drain_seconds, 3),
        "warm_restart_seconds": round(warm_restart_seconds, 3),
        "second_drain_seconds": round(drain2, 3),
        "parity": {"datasets": TENANTS + 1,
                   "epochs_checked": len(epochs_before),
                   "subscriptions_checked": len(records),
                   "mismatches": 0},
    })
