"""The observability layer end to end: metrics, traces, slow queries.

Boots the HTTP front-end on an ephemeral port with a 0ms slow-query
threshold (so every request lands in the slow-query log), then:

* answers a query twice with a caller-chosen ``X-Repro-Trace-Id`` and
  ``"trace": true``, printing the per-span breakdown of the cached
  repeat (decode / cache-lookup / execute / encode);
* scrapes ``GET /metrics`` and shows a few of the Prometheus families
  the server exports;
* reads the slow-query log back from ``/stats`` — each entry carries
  the trace ID and plan fingerprint that make a slow request
  attributable;
* switches the ``repro.*`` loggers to structured JSON lines, the
  shape a log pipeline would ingest.

Run with::

    python examples/obs_demo.py
"""

import io
import json
import urllib.request

from repro import ABox, OMQService
from repro.obs import configure_logging, get_logger
from repro.service import serve_in_background

ONTOLOGY = """
    roles: P, R, S
    P <= S
    P <= R-
"""

DATA = """
    R(ada, turing), A_P(turing),
    R(turing, lovelace), S(lovelace, hopper)
"""


def call(url, path, payload=None, trace_id=None):
    headers = {"Content-Type": "application/json"}
    if trace_id:
        headers["X-Repro-Trace-Id"] = trace_id
    data = None if payload is None else json.dumps(payload).encode()
    with urllib.request.urlopen(
            urllib.request.Request(url + path, data, headers)) as reply:
        raw = reply.read()
        echoed = reply.headers.get("X-Repro-Trace-Id")
    if reply.headers.get("Content-Type", "").startswith("application/json"):
        return json.loads(raw), echoed
    return raw.decode(), echoed


def main() -> None:
    service = OMQService(cache_size=64, max_workers=2)
    service.obs.slow_query_ms = 0.0  # demo: everything is "slow"
    service.register_dataset("people", ABox.parse(DATA))
    server = serve_in_background(service)
    url = server.url

    # -- traced requests ----------------------------------------------
    payload = {"dataset": "people", "tbox_text": ONTOLOGY,
               "query": "R(x, y), S(y, z)", "answers": ["x"],
               "trace": True}
    call(url, "/answer", payload, trace_id="demo-cold")  # warms cache
    body, echoed = call(url, "/answer", payload, trace_id="demo-hot")
    print(f"answers:          {sorted(map(tuple, body['answers']))}")
    print(f"echoed trace id:  {echoed}")
    print("span breakdown of the cached repeat:")
    for span in body["trace"]["spans"]:
        print(f"  {span['name']:<14} {span['seconds'] * 1000:8.3f} ms "
              f"{span.get('attrs', '')}")
    annotations = body["trace"]["annotations"]
    print(f"plan fingerprint: {annotations['plan_fingerprint'][:16]}... "
          f"(cached={annotations['cached_rewriting']})")

    # -- the Prometheus exporter ---------------------------------------
    text, _ = call(url, "/metrics")
    wanted = ("repro_http_requests_total", "repro_cache_hits_total",
              "repro_answer_seconds_count")
    print("\nGET /metrics (excerpt):")
    for line in text.splitlines():
        if line.startswith(wanted):
            print(f"  {line}")

    # -- the slow-query log --------------------------------------------
    stats, _ = call(url, "/stats")
    print("\nslow-query log (threshold 0ms, so every request logs):")
    for entry in stats["observability"]["slow_query_log"][-2:]:
        print(f"  {entry['route']} {entry['ms']}ms "
              f"trace_id={entry.get('trace_id')}")

    # -- structured JSON logs ------------------------------------------
    stream = io.StringIO()
    configure_logging("info", json_output=True, stream=stream)
    get_logger("demo").info("request finished",
                            extra={"route": "/answer", "status": 200})
    print("\none structured log line:")
    print(f"  {stream.getvalue().strip()}")

    server.stop()
    service.close()


if __name__ == "__main__":
    main()
