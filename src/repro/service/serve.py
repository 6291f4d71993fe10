"""``python -m repro serve``: :class:`OMQService` as a process.

This module is the command's plumbing — its options, the service they
build, and the run loop that serves until SIGTERM/SIGINT; the HTTP
server itself is :class:`repro.service.aserve.AsyncServiceServer`.  The
protocol is deliberately small and text-based — TBoxes, queries and
data use the same surface syntax as the CLI and test suite.  Its
routes are declared once, in
:data:`repro.service.protocol.ENDPOINTS`; each route's request type
there documents its body, and the README's "HTTP server" table lists
them (a test keeps the two equal).

Every route is tenant-aware: the ``X-Repro-Tenant`` header (or a
``tenant`` payload field, which wins) scopes dataset/ontology/
subscription names into that tenant's namespace and charges its
quotas and token-bucket rate limit (429 + ``Retry-After`` past the
rate, 403 past a quota); requests without a tenant keep today's
un-scoped behavior.  ``--data-dir`` makes the service durable: state
is persisted per tenant as it changes, checkpointed on graceful
shutdown, and warm-restored on the next start (see
:mod:`repro.store`).

POSTs are admission-controlled: past ``--max-pending`` queued or
executing requests the server answers 429 with ``Retry-After``
(:func:`repro.service.protocol.overloaded_error`).  ``/poll`` counts
against its own ``--max-polls`` budget instead, so parked long-pollers
neither starve answer/update work nor park in unbounded numbers.

Pipeline configuration travels as one ``"options"`` object (the JSON
form of :class:`~repro.rewriting.plan.AnswerOptions`); an option key
beside it, or a key inside it that is not an option, is a 400.
Answers come back as ``{"answers": [[...], ...], "seconds": ...,
"cached_rewriting": ...}`` with the answer tuples sorted, or, to an
``Accept`` naming ``application/x-repro-rows`` with a nonzero ``q`` (as
:class:`~repro.client.Client` sends), dictionary-coded
(:meth:`Answers.wire`).  Errors come back as ``{"error": <message>,
"error_type": <kind>}`` with a 4xx status — including malformed JSON
bodies and bad ``Content-Length`` headers, which are the client's
bugs, not internal errors.  Inline TBox texts are interned by exact
text (and by fingerprint behind that), so re-sending the same ontology
per request costs a dictionary lookup, never a second parse or
completion.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
from typing import Optional

from ..data.abox import ABox
from ..engine import ENGINES
from ..obs import configure_logging
from ..ontology import TBox
from ..store import TenantQuota
from .aserve import AsyncServiceServer
from .service import OMQService


def add_serve_arguments(parser) -> None:
    """Install the ``serve`` options on an (argparse) parser."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--engine", default="python", choices=ENGINES,
                        help="default evaluation backend")
    parser.add_argument("--cache-size", type=int, default=256,
                        help="rewriting cache entries")
    parser.add_argument("--workers", type=int, default=4,
                        help="batch threads / SQLite sessions per dataset")
    parser.add_argument("--dataset", action="append", default=[],
                        metavar="NAME=PATH",
                        help="preload a dataset from an ABox file")
    parser.add_argument("--tbox", action="append", default=[],
                        metavar="NAME=PATH",
                        help="preload an ontology from a TBox file")
    parser.add_argument("--async-io", action="store_true",
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--max-pending", type=int, default=128,
                        help="reject new POST work with 429 + Retry-After "
                             "once this many requests are queued or "
                             "executing (/poll has its own budget, see "
                             "--max-polls)")
    parser.add_argument("--max-polls", type=int, default=64,
                        help="reject new long-polls with 429 once this "
                             "many are parked (each parked poll holds a "
                             "thread)")
    parser.add_argument("--max-batch", type=int, default=16,
                        help="cap on the requests gathered into one "
                             "micro-batch while every worker is busy")
    parser.add_argument("--data-dir", default=None, metavar="DIR",
                        help="persist datasets, ontologies and "
                             "subscriptions to per-tenant SQLite files "
                             "under DIR (WAL mode); on startup the "
                             "server warm-restores everything the "
                             "directory holds")
    parser.add_argument("--max-datasets", type=int, default=None,
                        help="per-tenant dataset quota (403 past it)")
    parser.add_argument("--max-facts", type=int, default=None,
                        help="per-tenant stored-fact quota (403 past it)")
    parser.add_argument("--max-subscriptions", type=int, default=None,
                        help="per-tenant standing-query quota "
                             "(403 past it)")
    parser.add_argument("--rate-limit", type=float, default=None,
                        metavar="RPS",
                        help="per-tenant sustained requests/second; a "
                             "tenant exceeding it gets 429 + "
                             "Retry-After while others are unaffected")
    parser.add_argument("--rate-burst", type=float, default=20.0,
                        help="token-bucket burst headroom on top of "
                             "--rate-limit")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        metavar="MS",
                        help="log requests slower than MS milliseconds, "
                             "parked /poll excepted (trace ID, plan "
                             "fingerprint and per-span timings; also "
                             "kept in /stats under "
                             "observability.slow_query_log)")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"],
                        help="repro.* logger level")
    parser.add_argument("--log-json", action="store_true",
                        help="emit structured JSON log lines (one "
                             "object per line, trace-aware) instead of "
                             "plain text")


def build_service(args, error) -> OMQService:
    """An :class:`OMQService` from a parsed ``serve`` namespace, with
    the ``--dataset``/``--tbox`` preloads applied."""
    quota = TenantQuota(
        max_datasets=getattr(args, "max_datasets", None),
        max_facts=getattr(args, "max_facts", None),
        max_subscriptions=getattr(args, "max_subscriptions", None),
        rate_limit=getattr(args, "rate_limit", None),
        rate_burst=getattr(args, "rate_burst", 20.0))
    service = OMQService(cache_size=args.cache_size,
                         max_workers=args.workers,
                         default_engine=args.engine,
                         data_dir=getattr(args, "data_dir", None),
                         quota=quota)
    if service.store is not None:
        restored = service.restore()
        if restored["datasets"] or restored["subscriptions"]:
            print(f"warm restart: restored {restored['datasets']} "
                  f"dataset(s), {restored['subscriptions']} "
                  f"subscription(s) across {restored['tenants']} "
                  f"tenant(s) from {service.store.data_dir}")
    for spec in args.dataset:
        name, _, path = spec.partition("=")
        if not path:
            return error(f"--dataset expects NAME=PATH, got {spec!r}")
        with open(path) as handle:
            # an explicit preload wins over a restored copy of the
            # same name (the file is the operator's source of truth)
            service.register_dataset(name, ABox.parse(handle.read()),
                                     replace=service.store is not None)
    for spec in args.tbox:
        name, _, path = spec.partition("=")
        if not path:
            return error(f"--tbox expects NAME=PATH, got {spec!r}")
        with open(path) as handle:
            service.register_tbox(name, TBox.parse(handle.read()))
    slow_ms = getattr(args, "slow_query_ms", None)
    if slow_ms is not None:
        service.obs.slow_query_ms = float(slow_ms)
    return service


def run(args, parser: Optional[argparse.ArgumentParser] = None) -> int:
    """Run the server from a parsed ``serve`` namespace."""
    def error(message: str) -> int:
        if parser is not None:
            parser.error(message)
        raise SystemExit(message)

    configure_logging(getattr(args, "log_level", "info"),
                      bool(getattr(args, "log_json", False)))
    service = build_service(args, error)
    try:
        asyncio.run(_serve_until_signalled(service, args))
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    print("repro service stopped")
    return 0


async def _serve_until_signalled(service: OMQService, args) -> None:
    """Serve until SIGTERM/SIGINT, then stop *gracefully*: in-flight
    requests finish and the store is checkpointed before returning."""
    server = AsyncServiceServer(
        service, args.host, args.port, workers=args.workers,
        max_pending=args.max_pending, max_batch=args.max_batch,
        max_polls=getattr(args, "max_polls", 64), verbose=True)
    await server.start()
    print(f"repro service on {server.url} "
          f"(datasets: {', '.join(service.datasets()) or 'none'}; "
          f"max_batch={server.max_batch}, "
          f"max_pending={server.max_pending})", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for name in ("SIGTERM", "SIGINT"):
        signum = getattr(signal, name, None)
        if signum is None:
            continue
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            break
    try:
        await stop.wait()
    finally:
        await server.stop()
