"""Async serving demo: coalescing identical in-flight queries.

Starts the HTTP server (what ``repro serve`` runs) in-process
over a small university-style dataset, then fires 40 concurrent
requests from one event loop via :class:`repro.AsyncClient` — 30 of
them the *same* query under client-regenerated variable names, which
is what heavy traffic on a hot OMQ looks like.  The server coalesces
the identical in-flight requests onto one shared ``Plan.execute``,
micro-batches the rest, and reports what it did in ``/stats``.

Run it::

    python examples/async_demo.py
"""

import asyncio

from repro import ABox, OMQ, AsyncClient, ServiceError, TBox
from repro.queries import chain_cq
from repro.service import OMQService, serve_in_background

TBOX = TBox.parse("roles: P, R, S\nP <= S\nP <= R-")

DATA = ABox.parse("""
    R(ada, grace), R(grace, edsger), R(edsger, barbara)
    S(grace, edsger), S(edsger, barbara), S(barbara, ada)
    P(ada, grace), A_P(barbara)
""")


async def drive(url: str) -> None:
    async with AsyncClient.connect(url) as client:
        await client.register_dataset("demo", DATA)

        # 30 renamed twins of one hot query + 10 colder shapes, all in
        # flight at once from this single event loop
        hot = [OMQ(TBOX, chain_cq("RS", prefix=f"client{i}_"))
               for i in range(30)]
        cold = [OMQ(TBOX, chain_cq(labels))
                for labels in ("RSR", "SR", "RR", "SS", "RSS",
                               "SRS", "RSRS", "SRR", "RRS", "SSR")]
        results = await asyncio.gather(
            *[client.answer("demo", omq) for omq in hot + cold])

        print(f"{len(results)} concurrent requests answered")
        print(f"hot query answers: {sorted(results[0].answers)}")

        stats = await client.stats()
        serving = stats["async_serving"]
        print(f"coalesced:        {serving['coalesced']} requests "
              "joined an identical in-flight execution")
        print(f"micro-batches:    {serving['batches']} batches for "
              f"{serving['batched_requests']} executed requests")
        print(f"peak queue depth: {serving['peak_pending']} "
              f"(backpressure at {serving['max_pending']})")

        # an update invalidates coalescing for the dataset, so the
        # next identical query re-executes against the new data
        await client.update("demo", inserts=[("R", ("barbara", "alan")),
                                             ("S", ("alan", "ada"))])
        fresh = await client.answer("demo", OMQ(TBOX, chain_cq("RS")))
        print(f"after update:     {len(fresh.answers)} answers "
              f"(was {len(results[0].answers)})")

        try:
            await client.answer("missing", OMQ(TBOX, chain_cq("RS")))
        except ServiceError as error:
            print(f"structured error: {error.status} "
                  f"{error.error_type}: {error}")


def main() -> None:
    service = OMQService(max_workers=4)
    with serve_in_background(service) as handle:
        print(f"async server on {handle.url}")
        asyncio.run(drive(handle.url))
    service.close()


if __name__ == "__main__":
    main()
