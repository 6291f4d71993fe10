"""`OMQService`: a thread-safe, multi-dataset OMQ answering front door.

The serving analogue of the paper's Tables 3-5 workload: many
ontology-mediated queries, a few evolving data instances.  The service
owns

* a shared :class:`~repro.service.cache.RewritingCache` (one per
  service, injected into every session, so a query rewritten for any
  dataset is free everywhere);
* per-dataset pools of :class:`~repro.rewriting.api.AnswerSession`
  (SQLite connections cannot be shared concurrently, so concurrency is
  bought with pooled sessions; the Python engine pools a single
  session, whose in-memory database all requests share);
* a per-dataset readers/writer lock: answering holds a read lock,
  :meth:`update` a write lock, so incremental updates only run against
  quiescent sessions.

The pools, the lock and the update sequence with its failure story
live on each :class:`~repro.service.dataset.Dataset`; this module is
the registry around them.

:meth:`answer_batch` deduplicates requests that share a rewriting
fingerprint within the batch and fans the unique work out on a
``ThreadPoolExecutor``.
"""

from __future__ import annotations

import dataclasses
import logging
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..data.abox import ABox, GroundAtom
from ..engine import ENGINES
from ..fingerprint import tbox_fingerprint
from ..obs import Observability
from ..obs import trace as _trace
from ..ontology import TBox
from ..rewriting.api import OMQ
from ..rewriting.plan import AnswerOptions, Answers, compile_omq
from ..standing.maintain import initialize
from ..standing.registry import StandingQuery, StandingRegistry
from ..store import (
    DEFAULT_TENANT,
    DatasetStore,
    StoredSubscription,
    TenantManager,
    TenantQuota,
)
from .cache import RewritingCache
from .dataset import Dataset
from .protocol import BatchRequest, cq_to_text, tbox_to_text
from .updates import UpdateResult

log = logging.getLogger("repro.service")

#: Entries kept by each of the service's two inline-ontology memos (the
#: exact-text memo in front of ``TBox.parse`` and the fingerprint ->
#: TBox intern registry behind it); least recently used goes first.
TBOX_MEMO_SIZE = 64


class OMQService:
    """Concurrent OMQ answering over named, updatable datasets.

    Usage::

        service = OMQService()
        service.register_dataset("demo", abox)
        result = service.answer("demo", OMQ(tbox, query))
        service.insert_facts("demo", [("R", ("a", "b"))])
        service.stats()

    ``max_workers`` bounds both the batch executor and the number of
    pooled SQLite sessions per dataset.

    Multi-tenant serving (see :mod:`repro.store`): every public method
    takes a ``tenant`` keyword (default: the unscoped tenant, which
    preserves the single-tenant behavior) and scopes dataset/ontology
    names per tenant; ``quota`` caps per-tenant datasets, facts and
    subscriptions.  ``data_dir`` (or an explicit ``store``) turns on
    durability: registrations and updates are persisted as they
    happen, :meth:`checkpoint` folds the WAL down on shutdown, and
    :meth:`restore` warm-loads everything — datasets at their
    persisted epochs and re-armed standing subscriptions — into a
    fresh service.
    """

    def __init__(self, cache_size: int = 256, max_workers: int = 4,
                 default_engine: str = "python",
                 store: Optional[DatasetStore] = None,
                 data_dir: Optional[str] = None,
                 quota: Optional[TenantQuota] = None,
                 obs: Optional[Observability] = None):
        if default_engine not in ENGINES:
            raise ValueError(f"unknown engine {default_engine!r}; "
                             f"expected one of {ENGINES}")
        self.default_engine = default_engine
        self.max_workers = max(1, max_workers)
        #: The service-wide metrics registry + slow-query log (see
        #: :mod:`repro.obs`); every subsystem below shares it.
        self.obs = obs or Observability()
        self.cache = RewritingCache(maxsize=cache_size, obs=self.obs)
        #: Standing-query subscriptions (see :mod:`repro.standing`).
        self.standing = StandingRegistry(obs=self.obs)
        if store is None and data_dir is not None:
            store = DatasetStore(data_dir)
        #: Durable backing store (``None`` = in-memory only).
        self.store = store
        #: Per-tenant namespaces, quotas and rate limits.
        self.tenants = TenantManager(quota, obs=self.obs)
        self._storage_errors = self.obs.storage_write_errors
        self._datasets: Dict[str, Dataset] = {}
        #: fingerprint -> interned TBox, LRU-bounded
        self._tboxes: "OrderedDict[str, TBox]" = OrderedDict()
        #: The interned TBox for inline ontology text, memoised by
        #: exact text: a client that re-sends the same ontology with
        #: every request pays ``TBox.parse`` (a saturation) once.
        self.parse_tbox = lru_cache(maxsize=TBOX_MEMO_SIZE)(
            lambda text: self.intern_tbox(TBox.parse(text)))
        self._named_tboxes: Dict[str, object] = {}
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._requests = self.obs.service_requests
        self._batches = self.obs.service_batches
        self._batch_requests = self.obs.service_batch_requests
        self._batch_deduped = self.obs.service_batch_deduped
        self._updates = self.obs.service_updates
        self._started = time.time()

    # -- registration --------------------------------------------------------

    def register_dataset(self, name: str, abox: ABox,
                         replace: bool = False,
                         tenant: str = DEFAULT_TENANT,
                         _persist: bool = True, _epoch: int = 0) -> None:
        """Register ``abox`` under ``name`` (the service owns it: it is
        mutated in place by :meth:`update`).

        ``tenant`` scopes the name into that tenant's namespace and
        charges its quota; ``_persist=False`` is the :meth:`restore`
        path (already durable, at ``_epoch``; quotas accounted but not
        enforced).
        """
        scoped = TenantManager.scope(tenant, name)
        dataset = Dataset(
            scoped, abox, self.cache, self.standing, self._store_write,
            self.max_workers, tenant, name, epoch=_epoch)
        with self._lock:
            existing = self._datasets.get(scoped)
            if existing is not None and not replace:
                raise ValueError(f"dataset {name!r} already registered")
            # may raise QuotaError before anything is registered
            self.tenants.charge_dataset(
                tenant, len(abox),
                replacing_facts=(len(existing.abox)
                                 if existing is not None else None),
                enforce=_persist)
            self._datasets[scoped] = dataset
        if existing is not None:
            self._retire(existing)
        if _persist:
            with dataset.lock.reading():
                dataset.save("register")

    def unregister_dataset(self, name: str,
                           tenant: str = DEFAULT_TENANT) -> None:
        scoped = TenantManager.scope(tenant, name)
        with self._lock:
            dataset = self._datasets.pop(scoped)
        self.tenants.release_dataset(tenant, len(dataset.abox))
        self._retire(dataset)
        self._store_write(
            f"unregister {scoped!r}",
            lambda store: store.delete_dataset(tenant, name))

    def _retire(self, dataset: Dataset) -> None:
        """Close a replaced or unregistered dataset, already out of the
        registry.  No new request can check a session out or subscribe
        (:meth:`_acquire` re-validates), so the write lock drains the
        ones still in flight before the pools close.  Its subscriptions
        materialized data that is gone: they are closed (pollers get a
        closed-subscription error, clients re-subscribe against a
        replacement), releasing quota and durable rows — once the lock
        is held, so a subscribe that was in flight is among them, and
        by owner, so one to the replacement is not."""
        with dataset.lock.writing():
            dataset.close()
            dropped = self.standing.drop_dataset(dataset.name, dataset)
        for sub in dropped:
            self.tenants.release_subscription(sub.tenant)
            self._store_write(
                f"drop subscription {sub.subscription_id!r}",
                lambda store, sub=sub: store.delete_subscription(
                    sub.tenant, sub.subscription_id))

    def _store_write(self, description: str, write) -> bool:
        """Run one durable write, ``write(store)``, absorbing failures:
        serving state is already committed when these run, so a broken
        disk degrades durability (counted, logged) instead of failing
        requests.  ``False`` means the write failed; an in-memory
        service has nothing to fail."""
        if self.store is None:
            return True
        try:
            write(self.store)
        except Exception as error:
            self._storage_errors.inc()
            log.error("dataset store write failed (%s): %s: %s",
                      description, type(error).__name__, error)
            return False
        return True

    def datasets(self, tenant: Optional[str] = None) -> Tuple[str, ...]:
        """All registered (tenant-scoped) names, or one tenant's
        un-scoped names when ``tenant`` is given."""
        with self._lock:
            names = sorted(self._datasets)
        if tenant is None:
            return tuple(names)
        TenantManager.validate(tenant)
        return tuple(base for scoped in names
                     for owner, base in (TenantManager.split(scoped),)
                     if owner == tenant)

    def register_tbox(self, name: str, tbox,
                      tenant: str = DEFAULT_TENANT,
                      _persist: bool = True) -> None:
        """Name an ontology for by-name reference (the HTTP front-end)."""
        scoped = TenantManager.scope(tenant, name)
        interned = self.intern_tbox(tbox)
        with self._lock:
            self._named_tboxes[scoped] = interned
        if _persist:
            self._store_write(
                f"tbox {scoped!r}",
                lambda store: store.save_tbox(tenant, name,
                                              tbox_to_text(interned)))

    def named_tbox(self, name: str, tenant: str = DEFAULT_TENANT):
        scoped = TenantManager.scope(tenant, name)
        with self._lock:
            try:
                return self._named_tboxes[scoped]
            except KeyError:
                raise ValueError(f"unknown tbox {name!r}") from None

    def _dataset(self, name: str) -> Dataset:
        with self._lock:
            try:
                return self._datasets[name]
            except KeyError:
                raise ValueError(f"unknown dataset {name!r}") from None

    @contextmanager
    def _acquire(self, name: str, write: bool = False
                 ) -> Iterator[Dataset]:
        """The registered dataset, with its read (or write) lock held
        for the block — the one way in for answers and updates alike.

        Re-validated after acquisition: between the registry lookup and
        the lock, ``unregister_dataset``/``register_dataset(replace=
        True)`` may have swapped the entry and closed the old pools —
        answering from that state would serve unregistered data, and
        updating it would rebuild sessions on the orphan and commit its
        answers and epoch to the replacement's subscribers and store
        rows.
        """
        while True:
            dataset = self._dataset(name)
            lock = dataset.lock
            with lock.writing() if write else lock.reading():
                with self._lock:
                    current = self._datasets.get(name)
                if current is dataset:
                    yield dataset
                    return

    def intern_tbox(self, tbox):
        """One canonical TBox object per fingerprint: equal-but-
        distinct TBoxes must collapse to one representative or every
        request would pay completion again (sessions key completions
        by object identity).  The registry is a small LRU, so a stream
        of distinct inline ontologies cannot pin them all forever."""
        key = tbox_fingerprint(tbox)
        with self._lock:
            tbox = self._tboxes.setdefault(key, tbox)
            self._tboxes.move_to_end(key)
            if len(self._tboxes) > TBOX_MEMO_SIZE:
                self._tboxes.popitem(last=False)
            return tbox

    def _canonical_omq(self, omq: OMQ) -> OMQ:
        interned = self.intern_tbox(omq.tbox)
        if interned is omq.tbox:
            return omq
        return OMQ(interned, omq.query)

    # -- answering -----------------------------------------------------------

    def answer(self, dataset: str, omq: OMQ, options=None,
               tenant: str = DEFAULT_TENANT, **overrides) -> Answers:
        """Certain answers to ``omq`` over the named dataset, under
        ``options`` / ``overrides`` (one
        :class:`~repro.rewriting.plan.AnswerOptions`, as everywhere)."""
        options = AnswerOptions.coerce(options, **overrides)
        with self._acquire(TenantManager.scope(tenant, dataset)) as state:
            return self._answer_locked(state, omq, options)

    def _answer_locked(self, state: Dataset, omq: OMQ,
                       options: AnswerOptions) -> Answers:
        omq = self._canonical_omq(omq)
        engine_name = options.engine or self.default_engine
        was_cached = (not options.data_dependent
                      and self.cache.contains(self.cache.key(omq, options)))
        with state.session(engine_name) as session:
            start = time.perf_counter()
            result = session.answer(omq, options)
            elapsed = time.perf_counter() - start
        self._requests.inc()
        self.obs.answer_seconds.labels(engine=engine_name).observe(elapsed)
        _trace.annotate("plan_fingerprint", result.plan_fingerprint)
        _trace.annotate("dataset", state.name)
        _trace.annotate("cached_rewriting", was_cached)
        state.requests += 1
        # the plan's own record, stamped with what only the service
        # knows (``seconds`` here includes compilation)
        return dataclasses.replace(result, dataset=state.base_name,
                                   seconds=elapsed,
                                   cached_rewriting=was_cached)

    def answer_batch(self, requests: Sequence[BatchRequest]
                     ) -> List[Answers]:
        """Answer many requests, deduplicating shared rewritings.

        Requests with the same (dataset, engine, timeout, plan-cache
        key) are evaluated once and the result shared; unique work
        runs concurrently on a thread pool.  Read locks on every
        involved dataset are held for the whole batch, so all requests
        see one consistent data version.
        """
        requests = [request if isinstance(request, BatchRequest)
                    else BatchRequest(**request) for request in requests]
        canonical = [self._canonical_omq(request.omq)
                     for request in requests]
        scoped = [TenantManager.scope(request.tenant, request.dataset)
                  for request in requests]
        names = sorted(set(scoped))
        unique: Dict[Tuple, List[int]] = {}
        for position, (request, omq) in enumerate(zip(requests, canonical)):
            options = request.options
            # the cache key folds in every compile-relevant option
            # (method, over); timeout is execution-only but shapes
            # the shared result's timed_out flag, so it must
            # partition the dedup (never the plan cache)
            key = (scoped[position],
                   options.engine or self.default_engine, options.timeout,
                   self.cache.key(omq, options))
            unique.setdefault(key, []).append(position)

        jobs = list(unique.items())
        with ExitStack() as held:
            states = {name: held.enter_context(self._acquire(name))
                      for name in names}

            def run(job) -> Answers:
                first = job[1][0]
                request = requests[first]
                # a job on a pool thread has no ambient trace:
                # activate the originating request's (contexts are
                # per-thread, so concurrent jobs record into distinct
                # traces); one run inline keeps the caller's
                with _trace.tracing(request.trace
                                    or _trace.current_trace()):
                    return self._answer_locked(states[scoped[first]],
                                               canonical[first],
                                               request.options)

            if len(jobs) == 1:
                outcomes = [run(jobs[0])]
            else:
                outcomes = list(self._pool().map(run, jobs))

        results: List[Optional[Answers]] = [None] * len(requests)
        for (_, positions), outcome in zip(jobs, outcomes):
            for position in positions:
                results[position] = outcome
        self._batches.inc()
        self._batch_requests.inc(len(requests))
        self._batch_deduped.inc(len(requests) - len(jobs))
        return results

    def explain(self, omq: OMQ, options: Optional[AnswerOptions] = None,
                dataset: Optional[str] = None,
                tenant: str = DEFAULT_TENANT,
                **overrides) -> Dict[str, object]:
        """The compiled plan's :meth:`~repro.rewriting.plan.Plan.explain`
        report, without evaluating anything.

        Compilations go through (and warm) the shared rewriting cache.
        With ``dataset`` the report also shows what :meth:`answer`
        would run there — the plan specialised to that dataset's
        nonempty signature.
        ``method="adaptive"`` needs ``dataset``: it costs its
        candidates against that dataset's completion.
        """
        options = AnswerOptions.coerce(options, **overrides)
        omq = self._canonical_omq(omq)
        if dataset is None:
            if options.data_dependent:
                raise ValueError(
                    f"options {options.rewrite_fingerprint()} are "
                    "data-dependent: explain needs a dataset")
            return compile_omq(omq, options, cache=self.cache).explain()
        with self._acquire(TenantManager.scope(tenant, dataset)) as state:
            engine_name = options.engine or self.default_engine
            with state.session(engine_name) as session:
                plan = session.compile(omq, options)
                return plan.explain(
                    session.backend(engine_name, plan._variant_tbox()))

    def _pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="omq-service")
            return self._executor

    # -- updates -------------------------------------------------------------

    def update(self, dataset: str,
               inserts: Iterable[GroundAtom] = (),
               deletes: Iterable[GroundAtom] = (),
               tenant: str = DEFAULT_TENANT) -> UpdateResult:
        """Incrementally mutate a dataset (deletions apply first).

        Holds the dataset's write lock — in-flight answers finish
        first — while :meth:`Dataset.apply <repro.service.dataset
        .Dataset.apply>` runs the update sequence (patch in place,
        epoch, store, standing queries; what each step's failure costs
        is stated there).  The returned result carries the new epoch.
        """
        inserts = list(inserts)
        deletes = list(deletes)
        # conservative pre-admission: an update can grow the tenant by
        # at most len(inserts) facts (duplicates make it smaller)
        self.tenants.charge_facts(tenant, len(inserts))
        with _trace.span("update"), self._acquire(
                TenantManager.scope(tenant, dataset), write=True) as state:
            facts = len(state.abox)
            try:
                result = state.apply(inserts, deletes)
            finally:
                # the account follows the ABox, not the happy path: a
                # failed update may have kept part of its delta
                self.tenants.adjust_facts(tenant, len(state.abox) - facts)
            self._updates.inc()
        return result

    def insert_facts(self, dataset: str, atoms: Iterable[GroundAtom],
                     tenant: str = DEFAULT_TENANT) -> UpdateResult:
        return self.update(dataset, inserts=atoms, tenant=tenant)

    def delete_facts(self, dataset: str, atoms: Iterable[GroundAtom],
                     tenant: str = DEFAULT_TENANT) -> UpdateResult:
        return self.update(dataset, deletes=atoms, tenant=tenant)

    # -- standing queries ----------------------------------------------------

    def subscribe(self, dataset: str, omq: OMQ,
                  options: Optional[AnswerOptions] = None,
                  tenant: str = DEFAULT_TENANT,
                  subscription_id: Optional[str] = None,
                  _persist: bool = True,
                  **overrides) -> StandingQuery:
        """Register a standing query: compile, materialize the current
        answers, and keep them delta-maintained by every subsequent
        :meth:`update`.

        Returns the live :class:`~repro.standing.registry.StandingQuery`
        — consume it via :meth:`poll` (or the server's ``POST /poll``)
        and release it with :meth:`unsubscribe`.  The
        materialization happens under the dataset's read lock, so the
        snapshot and its epoch watermark are consistent: the first
        delta a subscriber sees corresponds to exactly the first update
        after its snapshot.
        """
        options = AnswerOptions.coerce(options, **overrides)
        scoped = TenantManager.scope(tenant, dataset)
        # may raise QuotaError; released again if registration fails
        self.tenants.charge_subscription(tenant, enforce=_persist)
        try:
            with self._acquire(scoped) as state:
                omq = self._canonical_omq(omq)
                engine_name = options.engine or self.default_engine
                with state.session(engine_name) as session:
                    plan = session.compile(omq, options)
                    sub = StandingQuery(
                        subscription_id=(subscription_id
                                         or self.standing.new_id()),
                        dataset=scoped, plan=plan, options=options,
                        engine=engine_name, tenant=tenant,
                        epoch=state.epoch, oldest_epoch=state.epoch,
                        owner=state)
                    initialize(sub, session)
                self.standing.add(sub)
                if _persist:
                    self._store_write(
                        f"subscription {sub.subscription_id!r}",
                        lambda store: store.save_subscription(
                            tenant, StoredSubscription(
                                subscription_id=sub.subscription_id,
                                dataset=state.base_name,
                                tbox_text=tbox_to_text(omq.tbox),
                                query=cq_to_text(omq.query),
                                answer_vars=tuple(omq.query.answer_vars),
                                options=options.as_dict(),
                                engine=engine_name, epoch=state.epoch)))
                return sub
        except Exception:
            self.tenants.release_subscription(tenant)
            raise

    def _owned_subscription(self, subscription_id: str,
                            tenant: str) -> StandingQuery:
        """The live subscription, provided ``tenant`` owns it — a
        wrong tenant gets the same error as a nonexistent id, so ids
        cannot be probed across namespaces."""
        sub = self.standing.get(subscription_id)
        if sub.tenant != tenant:
            raise ValueError(
                f"unknown subscription {subscription_id!r}")
        return sub

    def unsubscribe(self, subscription_id: str,
                    tenant: str = DEFAULT_TENANT) -> None:
        """Drop a subscription; blocked pollers wake with a
        closed-subscription error.  A plan group's last member waits
        for the dataset's write lock to drop the group's view."""
        self._owned_subscription(subscription_id, tenant)
        sub = self.standing.remove(subscription_id)
        sub.owner.release(sub)
        self.tenants.release_subscription(tenant)
        self._store_write(
            f"unsubscribe {subscription_id!r}",
            lambda store: store.delete_subscription(
                tenant, subscription_id))

    def poll(self, subscription_id: str,
             since_epoch: Optional[int] = None,
             timeout: float = 0.0,
             tenant: str = DEFAULT_TENANT) -> Dict[str, object]:
        """Deltas newer than ``since_epoch`` (long-poll up to
        ``timeout`` seconds); see
        :meth:`~repro.standing.registry.StandingRegistry.poll`."""
        self._owned_subscription(subscription_id, tenant)
        return self.standing.poll(subscription_id,
                                  since_epoch=since_epoch,
                                  timeout=timeout)

    # -- durability ----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Re-save every registered dataset wholesale (under its read
        lock, so each write sees one consistent epoch).  Registrations,
        updates and subscriptions are already persisted as they happen;
        the snapshot exists to fold drift from absorbed write failures
        back into the store before a checkpoint."""
        if self.store is None:
            return {"enabled": False, "datasets": 0}
        with self._lock:
            datasets = list(self._datasets.values())
        saved = 0
        for state in datasets:
            with state.lock.reading():
                if state.save("snapshot"):
                    saved += 1
        return {"enabled": True, "datasets": saved}

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot every dataset, then truncate the WAL files — what
        the servers run on graceful shutdown, so a clean stop leaves
        fully-folded database files with no tail to replay."""
        summary = self.snapshot()
        self._store_write(
            "checkpoint", lambda store: summary.update(store.checkpoint()))
        return summary

    def restore(self) -> Dict[str, object]:
        """Warm-load everything the store holds: every tenant's named
        ontologies, datasets (re-registered at their persisted epochs)
        and standing subscriptions (re-armed under their original ids,
        re-materialized from the restored facts).  Quotas are accounted
        but not enforced — restores never fail on a tightened quota.
        """
        counts = {"tenants": 0, "datasets": 0, "tboxes": 0,
                  "subscriptions": 0}
        if self.store is None:
            return counts
        from ..ontology import TBox
        from ..queries import CQ

        # a store written by an earlier version may carry settings this
        # one no longer has (option keys, a dataset's shard count, the
        # ``sql-views`` engine, which restores on ``sql``, and the
        # ``tw_star`` method, which restores on ``tw``); the store is
        # not outside input (a typo cannot arrive through it), so they
        # are dropped here, with one warning, rather than failing every
        # standing query in ``coerce``
        known = {f.name for f in dataclasses.fields(AnswerOptions)}
        retired = set()
        for tenant, snap in sorted(self.store.load_all().items()):
            counts["tenants"] += 1
            for name, text in snap.tboxes.items():
                try:
                    self.register_tbox(name, TBox.parse(text),
                                       tenant=tenant, _persist=False)
                    counts["tboxes"] += 1
                except Exception as error:
                    log.error("restore of tbox %r/%r failed: %s: %s",
                              tenant, name, type(error).__name__, error)
            for name, (atoms, shards, epoch) in snap.datasets.items():
                if shards:
                    retired.add("shards")
                try:
                    self.register_dataset(name, ABox(atoms), replace=True,
                                          tenant=tenant, _persist=False,
                                          _epoch=epoch)
                    counts["datasets"] += 1
                except Exception as error:
                    log.error("restore of dataset %r/%r failed: %s: %s",
                              tenant, name, type(error).__name__, error)
            for stored in snap.subscriptions:
                try:
                    omq = OMQ(TBox.parse(stored.tbox_text),
                              CQ.parse(stored.query,
                                       answer_vars=stored.answer_vars))
                    retired.update(set(stored.options) - known)
                    options = {key: value
                               for key, value in stored.options.items()
                               if key in known}
                    if "sql-views" in (stored.engine,
                                       options.get("engine")):
                        retired.add("sql-views")
                        options["engine"] = "sql"
                    if options.get("method") == "tw_star":
                        retired.add("tw_star")
                        options["method"] = "tw"
                    self.subscribe(
                        stored.dataset, omq, options=options,
                        tenant=tenant,
                        subscription_id=stored.subscription_id,
                        _persist=False)
                    counts["subscriptions"] += 1
                except Exception as error:
                    log.error("restore of subscription %r failed: "
                              "%s: %s", stored.subscription_id,
                              type(error).__name__, error)
        if retired:
            log.warning("restore dropped stored setting(s) this "
                        "version no longer has: %s", sorted(retired))
        return counts

    def health(self) -> Dict[str, object]:
        """``GET /health``: liveness plus what an orchestrator needs to
        gate on — the engines this process answers with, storage state,
        uptime."""
        return {"status": "ok",
                "engines": list(ENGINES),
                "datasets": len(self.datasets()),
                "uptime_seconds": round(time.time() - self._started, 3),
                "storage": self.storage_status()}

    def storage_status(self) -> Dict[str, object]:
        """The ``storage`` block of ``/health`` and ``/stats``."""
        if self.store is None:
            return {"enabled": False}
        try:
            status = self.store.status()
        except Exception as error:  # pragma: no cover - defensive
            status = {"enabled": True, "error": str(error)}
        status["write_errors"] = int(self._storage_errors.value)
        return status

    # -- stats and lifecycle -------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            datasets = dict(self._datasets)
        counters = {"requests": int(self._requests.value),
                    "batches": int(self._batches.value),
                    "batch_requests": int(self._batch_requests.value),
                    "batch_deduplicated": int(self._batch_deduped.value),
                    "updates": int(self._updates.value),
                    "uptime_seconds": round(
                        time.time() - self._started, 3)}
        counters["cache"] = self.cache.stats().as_dict()
        counters["standing"] = self.standing.stats()
        counters["tenants"] = self.tenants.stats()
        counters["storage"] = self.storage_status()
        counters["observability"] = self.obs.stats()
        counters["datasets"] = {name: state.stats() for name, state
                                in sorted(datasets.items())}
        return counters

    def close(self) -> None:
        # checkpoint while the datasets are still registered, so a
        # graceful stop leaves fully-folded store files behind
        if self.store is not None:
            self.checkpoint()
        # close subscriptions first: blocked pollers wake with a
        # closed-subscription error instead of waiting out their
        # timeouts
        self.standing.close_all()
        with self._lock:
            datasets = list(self._datasets.values())
            self._datasets.clear()
            executor = self._executor
            self._executor = None
        for state in datasets:
            state.close()
        if executor is not None:
            executor.shutdown(wait=True)
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "OMQService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            names = sorted(self._datasets)
        requests = int(self._requests.value)
        return (f"OMQService({len(names)} datasets, {requests} requests, "
                f"cache={self.cache.stats().size})")
