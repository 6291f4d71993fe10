"""Standing queries: subscribe once, receive exact answer deltas.

A monitoring dashboard should not re-run its query on a timer: it
should say once "tell me when the certain answers to this OMQ change"
and receive exactly the tuples that appeared and disappeared.  That
is ``Client.subscribe`` (see ``repro.standing``): the service keeps
every subscription's answers maintained inside its update path —
only the subscriptions whose rewriting mentions a changed predicate
are re-executed, once per distinct plan — and delivers
``AnswerDelta(added, removed, epoch)`` objects over long-poll or,
on the asyncio server, as a Server-Sent-Events stream.

Run with ``python examples/standing_demo.py``.
"""

import asyncio
import threading

from repro import ABox, AsyncClient, CQ, Client, OMQ, TBox
from repro.service import OMQService, serve_in_background

TBOX = TBox.parse("""
    roles: worksFor, manages
    Manager <= EmanagesEmployee
    EmanagesEmployee- <= Employee
    manages <= worksFor-
""".replace("EmanagesEmployee", "Emanages"))

QUERY = OMQ(TBOX, CQ.parse("worksFor(x, y), Manager(y)",
                           answer_vars=["x", "y"]))

def fresh_data() -> ABox:
    # each half registers its own copy: the service applies updates to
    # the registered ABox in place
    return ABox.parse("""
        worksFor(ana, bo)
        Manager(bo)
        worksFor(cy, dee)
    """)

UPDATES = (
    {"inserts": [("Manager", ("dee",))]},           # cy->dee appears
    {"inserts": [("manages", ("bo", "eve"))]},      # eve->bo via manages
    {"deletes": [("Manager", ("bo",))]},            # bo's pairs vanish
)


def show(delta):
    if delta.resync:  # full-state frame, not an increment
        for row in sorted(delta.answers or ()):
            print(f"  = {row}")
        return
    for row in sorted(delta.added):
        print(f"  + {row}")
    for row in sorted(delta.removed):
        print(f"  - {row}")


def embedded_long_poll() -> None:
    """One embedded service; a writer thread streams updates while the
    main thread polls its subscription."""
    print("== embedded service, long-poll ==")
    with Client.local() as client:
        client.register_dataset("org", fresh_data())
        sub = client.subscribe("org", QUERY)
        print(f"subscribed at epoch {sub.epoch}; initial answers:")
        for row in sorted(sub.answers):
            print(f"    {row}")

        def writer():
            for step in UPDATES:
                client.update("org",
                              inserts=step.get("inserts", ()),
                              deletes=step.get("deletes", ()))

        thread = threading.Thread(target=writer)
        thread.start()
        seen = 0
        while seen < len(UPDATES):
            for delta in sub.poll(timeout=5.0):
                print(f"epoch {delta.epoch}:")
                show(delta)
                seen += 1
        thread.join()
        print(f"final maintained answers: {sorted(sub.answers)}")
        sub.unsubscribe()


def sse_stream() -> None:
    """The same subscription pushed over the asyncio server's SSE
    endpoint — no polling at all."""
    print("\n== asyncio server, Server-Sent Events ==")
    service = OMQService()
    service.register_dataset("org", fresh_data())

    async def main() -> None:
        with serve_in_background(service) as handle:
            async with AsyncClient.connect(handle.url) as client:
                sub = await client.subscribe("org", QUERY)
                print(f"streaming from epoch {sub.epoch} ...")

                async def consume():
                    # exit on the epoch watermark, not a frame count: if
                    # an update lands before the stream attaches, its
                    # delta arrives folded into the snapshot/resync
                    # frame rather than individually
                    async for delta in sub.stream():
                        print(f"epoch {delta.epoch}:")
                        show(delta)
                        if sub.epoch >= len(UPDATES):
                            return

                task = asyncio.create_task(consume())
                await asyncio.sleep(0.2)  # let the stream attach
                for step in UPDATES:
                    await client.update(
                        "org",
                        inserts=step.get("inserts", ()),
                        deletes=step.get("deletes", ()))
                await asyncio.wait_for(task, timeout=30)
                print(f"final maintained answers: {sorted(sub.answers)}")
                await sub.unsubscribe()

    asyncio.run(main())
    service.close()


if __name__ == "__main__":
    embedded_long_poll()
    sse_stream()
