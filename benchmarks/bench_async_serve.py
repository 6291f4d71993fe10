"""Async coalescing front-end vs the threaded server, wall clock.

The serving workload the async front-end exists for: 200 requests,
repeat-heavy (a handful of hot OMQs that every client regenerates
under fresh variable names, plus a cold tail), fired 32-at-a-time by
one asyncio driver.  The threaded server answers every request —
compilation is amortised by the plan cache, but each request still
pays a full ``Plan.execute``.  The async server coalesces identical
in-flight requests onto shared executions and micro-batches the rest,
so the evaluation count collapses to roughly (distinct shapes x
flush windows).

Parity is asserted before speed (both servers must return identical
answer sets per shape), a ``BENCH_async.json`` report is written, and
the >= 2x throughput floor from the PR's acceptance bar is asserted
only on machines with >= 4 cores (on fewer cores the ratio still
shows, but scheduler noise makes a hard floor flaky).
"""

import asyncio
import json
import os
import threading
import time

import pytest

from repro import OMQ, AsyncClient
from repro.experiments import print_table
from repro.queries import chain_cq
from repro.service import OMQService, serve_in_background
from repro.service.serve import build_server

from tests.helpers import example11_tbox, random_data

#: Hot shapes (repeated under fresh names — the coalescing target) and
#: the cold tail.
HOT = ("RSRSR", "SRSRS", "RSRS", "SRS")
COLD = ("RRS", "SSR", "RSS", "SRR", "RSRSRS", "SRSRSR")
REQUESTS = 200
CONCURRENCY = 32
MIN_SPEEDUP = 2.0
MIN_CORES = 4


def _workload(tbox):
    """The 200-request script: ~85% hot repeats, 15% cold."""
    omqs = []
    for position in range(REQUESTS):
        if position % 7 == 6:
            labels = COLD[(position // 7) % len(COLD)]
        else:
            labels = HOT[position % len(HOT)]
        # fresh variable names per request: only canonical
        # fingerprints can recognise the repeats
        omqs.append((labels,
                     OMQ(tbox, chain_cq(labels, prefix=f"v{position}_"))))
    return omqs


async def _drive(url: str, omqs) -> dict:
    """Fire the workload at ``url``, CONCURRENCY requests in flight;
    returns answer sets per shape (for parity checks)."""
    per_shape = {}
    semaphore = asyncio.Semaphore(CONCURRENCY)

    async with AsyncClient.connect(url, timeout=120.0) as client:
        async def one(labels, omq):
            async with semaphore:
                result = await client.answer("demo", omq)
            previous = per_shape.setdefault(labels, result.answers)
            assert previous == result.answers, labels

        await asyncio.gather(*[one(labels, omq) for labels, omq in omqs])
    return per_shape


def _bench(url: str, omqs) -> float:
    started = time.perf_counter()
    asyncio.run(_drive(url, omqs))
    return time.perf_counter() - started


@pytest.mark.bench
def test_async_coalescing_speedup(benchmark, report_writer):
    tbox = example11_tbox()
    abox = random_data(0, individuals=15, atoms=60)
    omqs = _workload(tbox)
    cores = os.cpu_count() or 1

    # -- threaded server baseline -------------------------------------------
    thread_service = OMQService(max_workers=4)
    thread_service.register_dataset("demo", random_data(
        0, individuals=15, atoms=60))
    server = build_server(thread_service, port=0, verbose=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    thread_url = f"http://{host}:{port}"
    try:
        thread_answers = asyncio.run(_drive(thread_url, omqs))  # warm
        thread_seconds = _bench(thread_url, omqs)
    finally:
        server.shutdown()
        server.server_close()
        thread_service.close()

    # -- async coalescing server --------------------------------------------
    async_service = OMQService(max_workers=4)
    async_service.register_dataset("demo", abox)
    with serve_in_background(async_service,
                             max_pending=4 * CONCURRENCY,
                             workers=4) as handle:
        async_answers = asyncio.run(_drive(handle.url, omqs))  # warm
        async_seconds = _bench(handle.url, omqs)
        stats = async_service.stats()
        import urllib.request

        serving = json.loads(urllib.request.urlopen(
            f"{handle.url}/stats").read())["async_serving"]
    async_service.close()

    # parity first: throughput means nothing if the answers drift
    assert async_answers == thread_answers

    speedup = thread_seconds / max(async_seconds, 1e-9)
    print_table(
        f"async coalescing vs threaded serving ({REQUESTS} requests, "
        f"concurrency {CONCURRENCY}, {cores} cores)",
        ["server", "seconds", "requests/sec", "speedup"],
        [["threaded (1 thread/request)", f"{thread_seconds:.3f}",
          f"{REQUESTS / thread_seconds:.0f}", "1.0x"],
         ["async (coalesce + batch)", f"{async_seconds:.3f}",
          f"{REQUESTS / async_seconds:.0f}", f"{speedup:.1f}x"]])
    print(f"coalesced {serving['coalesced']} / {serving['requests']} "
          f"requests into {serving['batches']} micro-batches "
          f"({serving['batched_requests']} executed)")

    report = {
        "requests": REQUESTS,
        "concurrency": CONCURRENCY,
        "hot_shapes": list(HOT),
        "cold_shapes": list(COLD),
        "cores": cores,
        "seconds": {"threaded": round(thread_seconds, 4),
                    "async": round(async_seconds, 4)},
        "requests_per_second": {
            "threaded": round(REQUESTS / thread_seconds, 1),
            "async": round(REQUESTS / async_seconds, 1)},
        "coalesced": serving["coalesced"],
        "micro_batches": serving["batches"],
        "executed_requests": serving["batched_requests"],
        "cache_hit_rate": stats["cache"]["hit_rate"],
        "speedup": round(speedup, 2),
        "speedup_asserted": cores >= MIN_CORES,
    }
    report_writer("async", report)

    # coalescing must have happened regardless of machine size
    assert serving["coalesced"] > 1

    if cores >= MIN_CORES:
        assert speedup >= MIN_SPEEDUP, (
            f"coalescing should beat per-request execution on the "
            f"repeat-heavy workload, got {speedup:.1f}x")

    service = OMQService(max_workers=4)
    service.register_dataset("demo", random_data(
        0, individuals=15, atoms=60))
    with serve_in_background(service,
                             max_pending=4 * CONCURRENCY) as handle:
        asyncio.run(_drive(handle.url, omqs))
        benchmark.pedantic(lambda: _bench(handle.url, omqs),
                           iterations=1, rounds=2)
    service.close()
