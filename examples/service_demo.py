"""The serving layer end to end: cache, batches, updates, HTTP.

Registers a dataset with an :class:`~repro.service.service.OMQService`,
shows the rewriting cache recognising a repeat query under fresh
variable names, answers a deduplicated batch across every available
engine,
applies incremental insertions/deletions (answers track the data with
no reload), and finally drives the same service over its JSON/HTTP
front-end on an ephemeral port.

Run with::

    python examples/service_demo.py
"""

import json
import urllib.request

from repro import ABox, CQ, OMQ, OMQService, TBox
from repro.engine import ENGINES
from repro.service import BatchRequest, serve_in_background

ONTOLOGY = """
    roles: P, R, S
    P <= S
    P <= R-
"""

DATA = """
    R(ada, turing), A_P(turing),
    R(turing, lovelace), S(lovelace, hopper)
"""


def main() -> None:
    tbox = TBox.parse(ONTOLOGY)
    service = OMQService(cache_size=64, max_workers=2)
    service.register_dataset("people", ABox.parse(DATA))

    # -- the rewriting cache -------------------------------------------
    query = CQ.parse("R(x, y), S(y, z)", answer_vars=["x"])
    first = service.answer("people", OMQ(tbox, query))
    # a client regenerating variable names still hits the cache: keys
    # are canonical up to variable renaming
    renamed = CQ.parse("R(a, b), S(b, c)", answer_vars=["a"])
    second = service.answer("people", OMQ(tbox, renamed))
    print(f"answers:            {sorted(first.answers)}")
    print(f"first request:      cached_rewriting={first.cached_rewriting}")
    print(f"renamed repeat:     cached_rewriting={second.cached_rewriting} "
          f"({second.seconds * 1000:.2f} ms)")

    # -- batch answering with deduplication ----------------------------
    batch = service.answer_batch(
        [BatchRequest("people", OMQ(tbox, query), {"engine": engine})
         for engine in ENGINES]
        + [BatchRequest("people", OMQ(tbox, renamed))])
    print("batch agreement:    "
          f"{len({frozenset(r.answers) for r in batch})} distinct "
          f"answer set(s) from {len(batch)} requests")

    # -- incremental updates -------------------------------------------
    service.insert_facts("people", [("R", ("hopper", "curie")),
                                    ("A_P", ("curie",))])
    after_insert = service.answer("people", OMQ(tbox, query))
    service.delete_facts("people", [("R", ("ada", "turing"))])
    after_delete = service.answer("people", OMQ(tbox, query))
    print(f"after insert:       {sorted(after_insert.answers)}")
    print(f"after delete:       {sorted(after_delete.answers)}")
    stats = service.stats()
    print(f"cache:              {stats['cache']['hits']} hits / "
          f"{stats['cache']['misses']} misses")

    # -- the HTTP front-end --------------------------------------------
    with serve_in_background(service) as server:
        request = urllib.request.Request(
            f"{server.url}/answer",
            json.dumps({"dataset": "people", "tbox": ONTOLOGY,
                        "query": "R(x, y), S(y, z)",
                        "answers": ["x"]}).encode(),
            {"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
    print(f"HTTP /answer:       {payload['answers']} "
          f"(cached_rewriting={payload['cached_rewriting']})")
    service.close()


if __name__ == "__main__":
    main()
