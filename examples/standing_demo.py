"""Standing queries: subscribe once, receive exact answer deltas.

A monitoring dashboard should not re-run its query on a timer: it
should say once "tell me when the certain answers to this OMQ change"
and receive exactly the tuples that appeared and disappeared.  That
is ``Client.subscribe`` (see ``repro.standing``): the service keeps
every subscription's answers maintained inside its update path —
only the subscriptions whose rewriting mentions a changed predicate
are re-executed, once per distinct plan — and delivers
``AnswerDelta(added, removed, epoch)`` objects by long-poll, embedded
or over HTTP.

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


def async_long_poll() -> None:
    """The same subscription over the asyncio server: a consumer task
    long-polls while the main coroutine sends the updates."""
    print("\n== asyncio server, long-poll ==")
    service = OMQService()
    service.register_dataset("org", fresh_data())

    async def main() -> None:
        with serve_in_background(service) as handle:
            async with AsyncClient.connect(handle.url) as client:
                sub = await client.subscribe("org", QUERY)
                print(f"polling from epoch {sub.epoch} ...")

                async def consume():
                    # each poll asks for what came after the epoch it
                    # last saw, so an update that lands between two
                    # polls is replayed from the history, not missed
                    while sub.epoch < len(UPDATES):
                        for delta in await sub.poll(timeout=5.0):
                            print(f"epoch {delta.epoch}:")
                            show(delta)

                task = asyncio.create_task(consume())
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
    async_long_poll()
