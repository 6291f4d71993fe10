"""`Dataset`: one registered data instance and its update sequence.

A dataset owns its ABox, the completions and session pools built over
it, its readers/writer lock, its epoch and counters, its rows in the
backing store (:meth:`Dataset.save`) and the refresh of its standing
subscriptions.  What an update does to all of that, in what order, and
what each step's failure costs is decided here and nowhere else:
:meth:`Dataset.apply` runs :attr:`Dataset.STAGES`, one method and one
trace span per stage, and each stage's docstring states its failure's
cost.  The rule (README, "Standing queries", has it as a table and
``tests/test_service_faults.py`` asserts it row by row): a fault costs
a disposable part — this update, a subscription's freshness, a store
write — never the dataset, which keeps answering from whatever its
ABox holds.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..data.abox import ABox, GroundAtom
from ..obs.trace import span
from ..rewriting.api import AnswerSession
from ..standing.maintain import (View, full_reexecute, refresh,
                                 variant_changed_predicates)
from ..standing.registry import (
    AnswerDelta,
    GroupLog,
    StandingQuery,
    StandingRegistry,
)
from .cache import RewritingCache
from .updates import UpdateResult, apply_update

log = logging.getLogger("repro.service")


class RWLock:
    """A readers/writer lock (writer-preferring enough for our use)."""

    def __init__(self):
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._waiting_writers = 0

    @contextmanager
    def reading(self) -> Iterator[None]:
        with self._condition:
            while self._writer or self._waiting_writers:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._readers -= 1
                if not self._readers:
                    self._condition.notify_all()

    @contextmanager
    def writing(self) -> Iterator[None]:
        with self._condition:
            self._waiting_writers += 1
            try:
                while self._writer or self._readers:
                    self._condition.wait()
            finally:
                self._waiting_writers -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._condition:
                self._writer = False
                self._condition.notify_all()


class SessionPool:
    """Bounded pool of ``AnswerSession``s for one (dataset, engine)."""

    def __init__(self, factory, capacity: int):
        self._factory = factory
        self._capacity = max(1, capacity)
        self._condition = threading.Condition()
        self._free: List[AnswerSession] = []
        self._all: List[AnswerSession] = []

    @contextmanager
    def session(self) -> Iterator[AnswerSession]:
        """One session, checked out for the block (built on demand up
        to the capacity; past it the caller waits for a checkin)."""
        with self._condition:
            while not self._free and len(self._all) >= self._capacity:
                self._condition.wait()
            if self._free:
                session = self._free.pop()
            else:
                session = self._factory()
                self._all.append(session)
        try:
            yield session
        finally:
            with self._condition:
                self._free.append(session)
                self._condition.notify()

    @property
    def sessions(self) -> Tuple[AnswerSession, ...]:
        with self._condition:
            return tuple(self._all)

    @property
    def idle(self) -> bool:
        """Whether a built session is checked in: taking one now
        builds nothing and waits for nothing."""
        with self._condition:
            return bool(self._free)

    def close(self) -> None:
        with self._condition:
            for session in self._all:
                session.close()
            self._all.clear()
            self._free.clear()


@dataclass
class _Update:
    """One update on its way through the stages: the requested atoms,
    and what ``patch`` found they changed."""

    inserts: List[GroundAtom]
    deletes: List[GroundAtom]
    result: Optional[UpdateResult] = None


class Dataset:
    """A registered data instance: ABox, sessions, lock, epoch, store
    rows and standing subscriptions."""

    #: What :meth:`apply` runs, in order: stage ``name`` is the method
    #: ``_name`` and the span ``name`` of a traced ``/update``.
    STAGES = ("patch", "epoch", "store", "standing")

    def __init__(self, name: str, abox: ABox, cache: RewritingCache,
                 standing: StandingRegistry,
                 store_write: Callable[[str, Callable], bool],
                 pool_capacity: int, tenant: str, base_name: str,
                 epoch: int = 0):
        #: The tenant-scoped registry key, the owning tenant and the
        #: un-scoped name it registered.
        self.name = name
        self.tenant = tenant
        self.base_name = base_name
        self.abox = abox
        self.lock = RWLock()
        #: Shared by every pooled session so the per-TBox completion is
        #: computed once per dataset and patched once per update.
        self.completions: Dict[int, Tuple[object, ABox]] = {}
        #: The service's registry (it files this object's plan groups)
        #: and its failure-absorbing store writer.
        self._registry = standing
        self._store_write = store_write
        self._cache = cache
        self._pool_capacity = pool_capacity
        self._pools: Dict[str, SessionPool] = {}
        self._pool_lock = threading.Lock()
        #: (plan fingerprint, engine) -> the group's view, touched under
        #: the write lock only, dropped with the group's last member
        self._views: Dict[Tuple[str, str], View] = {}
        self.requests = 0
        self.updates = 0
        #: Bumped under the write lock on every update attempt; the
        #: version standing-query watermarks and ``since_epoch`` polls
        #: speak in.  A restored dataset starts at its persisted epoch.
        self.epoch = epoch

    # -- sessions ------------------------------------------------------------

    def session(self, engine: str):
        """``with dataset.session(engine) as session``: a pooled session
        for the block (the caller holds the dataset lock, either side)."""
        with self._pool_lock:
            pool = self._pools.get(engine)
            if pool is None:
                # one session is enough for the Python engine: its
                # backends share one interned Database and evaluation
                # is GIL-bound anyway.  The SQLite engine pools up to
                # ``pool_capacity`` independent connections.
                capacity = 1 if engine == "python" else self._pool_capacity
                pool = SessionPool(
                    lambda: AnswerSession(
                        self.abox, engine=engine,
                        rewriting_cache=self._cache,
                        shared_completions=self.completions),
                    capacity)
                self._pools[engine] = pool
        return pool.session()

    def session_idle(self, engine: str) -> bool:
        """Whether an ``engine`` session is built and checked in."""
        with self._pool_lock:
            pool = self._pools.get(engine)
        return pool is not None and pool.idle

    def all_sessions(self) -> List[AnswerSession]:
        with self._pool_lock:
            pools = list(self._pools.values())
        return [session for pool in pools for session in pool.sessions]

    def close(self) -> None:
        with self._pool_lock:
            for pool in self._pools.values():
                pool.close()
            self._pools.clear()

    def stats(self) -> Dict[str, object]:
        """This dataset's block of ``stats()["datasets"]``."""
        # the read lock keeps apply() from mutating the ABox while its
        # relations are being counted
        with self.lock.reading(), self._pool_lock:
            return {"facts": len(self.abox),
                    "requests": self.requests,
                    "updates": self.updates,
                    "epoch": self.epoch,
                    "sessions": {engine: len(pool.sessions)
                                 for engine, pool in self._pools.items()},
                    "completions": len(self.completions)}

    def save(self, why: str) -> bool:
        """Rewrite this dataset's store rows wholesale from the ABox at
        the current epoch (caller holds the dataset lock, either side,
        so the write sees one consistent version).  ``False`` when the
        write failed: absorbed, counted and logged by the service."""
        return self._store_write(
            f"{why} {self.name!r}",
            lambda store: store.save_dataset(
                self.tenant, self.base_name, list(self.abox.atoms()),
                epoch=self.epoch))

    # -- the update sequence -------------------------------------------------

    def apply(self, inserts: List[GroundAtom],
              deletes: List[GroundAtom]) -> UpdateResult:
        """Run one update through :attr:`STAGES` (deletions apply
        first).  The caller holds the write lock — taken, and
        re-validated against the registry, by ``OMQService._acquire`` —
        so pooled sessions are quiescent and nothing observes the
        dataset between two stages: no subscriber sees a torn epoch.
        A stage that raises costs this update, never the dataset
        (:meth:`_recover`); ``store`` and ``standing`` absorb the
        failures they expect, so in practice only ``patch`` raises."""
        update = _Update(inserts, deletes)
        try:
            for stage in self.STAGES:
                with span(stage):
                    getattr(self, "_" + stage)(update)
        except Exception:
            self._recover()
            raise
        self.updates += 1
        return update.result

    def _patch(self, update: _Update) -> None:
        """Patch the raw ABox, the shared completions and every pooled
        session's loaded backends in place (:mod:`repro.service
        .updates`), so the next answer reflects the update without any
        reload.  Fails when a backend rejects its delta, leaving the
        data partially applied: the update fails."""
        update.result = apply_update(
            self.abox, self.completions, self.all_sessions(),
            inserts=update.inserts, deletes=update.deletes)

    def _epoch(self, update: _Update) -> None:
        """Version the new data.  Cannot fail."""
        self.epoch += 1
        update.result.epoch = self.epoch

    def _store(self, update: _Update) -> None:
        """Append the requested delta to the store rows: ``DELETE``
        then ``INSERT OR IGNORE`` in one transaction reproduces the
        in-memory deletes-first semantics idempotently, so a crash
        between the in-memory commit and the durable write loses at
        most this update, never tears the file.  A failed write is
        counted and rolled back, and the rows are rewritten from the
        committed ABox instead; the update succeeds either way."""
        if not self._store_write(
                f"delta {self.name!r}",
                lambda store: store.apply_delta(
                    self.tenant, self.base_name, inserts=update.inserts,
                    deletes=update.deletes, epoch=self.epoch)):
            self.save("fallback save")

    def _standing(self, update: Optional[_Update]) -> None:
        """Bring this dataset object's plan groups to the current epoch
        and commit their deltas before the lock drops (sessions are
        quiescent and already patched), one group — one view,
        :mod:`repro.standing.maintain`, and one log — at a time, one
        session per engine.  A group whose rewriting reads a predicate
        the update changed in its data variant, or a stale one, is
        refreshed once (a child span named for its route); the rest
        just move their epoch.  With ``None`` (recovery) each group is
        re-executed and sent a ``resync``.  Groups are filed by this
        object: after a ``register_dataset(replace=True)`` an update
        still running here does not reach the replacement's
        subscribers.

        Never raises — it also runs on :meth:`apply`'s exception path.
        A failed refresh costs its group's view and freshness: the
        group is marked ``stale``, which its members' poll and
        snapshot bodies expose so the consumer knows to re-subscribe
        or retry, until a later pass or a new member heals it.  A pass
        that fails as a whole costs every group's.
        """
        groups = self._registry.groups(self)
        if not groups:
            return
        delta = update.result.delta if update is not None else None
        epoch = self.epoch
        started = time.perf_counter()
        try:
            changed = None
            if delta is not None:  # mapped into each data variant once
                changed = {}
                for group in groups:
                    tbox = group.founder.plan._variant_tbox()
                    if id(tbox) not in changed:
                        changed[id(tbox)] = variant_changed_predicates(
                            tbox, delta)
            moved = self._registry.affected(groups, changed)
            with ExitStack() as held:
                sessions: Dict[str, object] = {}
                for group in groups:
                    if group not in moved:
                        if group.key in self._views:  # nothing it reads moved
                            self._views[group.key].skip()
                        group.epoch = epoch  # no delta: nobody to wake
                        continue
                    try:
                        engine = group.founder.engine
                        if engine not in sessions:
                            sessions[engine] = held.enter_context(
                                self.session(engine))
                        self._refresh(group, sessions[engine], epoch,
                                      delta is None)
                    except Exception as error:
                        self._views.pop(group.key, None)
                        log.error("standing refresh failed for %s (%r); "
                                  "marked stale", [sub.subscription_id
                                                   for sub in group.members],
                                  error)
                        group.stale = True
        except Exception as error:
            log.error("standing pass failed for %r (%s: %s); its "
                      "subscriptions are marked stale", self.name,
                      type(error).__name__, error)
            for group in groups:
                self._views.pop(group.key, None)
                group.stale = True
        finally:
            self._registry.record_maintenance(
                time.perf_counter() - started)

    def _refresh(self, group: GroupLog, session, epoch: int,
                 resync: bool) -> None:
        """Refresh one group's view and commit its delta (on
        ``resync``, its answers) to the group's log, once."""
        view = self._views.setdefault(group.key, View())
        if resync:
            with span("resync"):
                view.reset()  # the next update materialises
                answers = full_reexecute(group.founder, session)
            delta = AnswerDelta(epoch=epoch, resync=True, answers=answers)
            self._registry.record_resync(len(group.members))
        else:
            added, removed = refresh(view, group.founder, session)
            delta = AnswerDelta(epoch=epoch, added=added, removed=removed)
        group.commit(delta)
        if not group.members:  # :meth:`release` raced
            self._views.pop(group.key, None)

    def release(self, sub: StandingQuery) -> None:
        """Drop ``sub``'s group view once its group has no member left;
        only that drop waits for the write lock."""
        if sub.key in self._views and not sub.log.members:
            with self.lock.writing():
                self._views.pop(sub.key, None)

    def _recover(self) -> None:
        """What a failed update costs.  The ABox is the truth and may
        hold part of the delta; sessions and completions are caches of
        it that may have missed that part, so they are dropped
        and the next answer rebuilds them.  Then the data is versioned,
        every subscription re-materialized against whatever it now
        holds — subscribers are not left on answers from before the
        partial application until a next update that may never come;
        a group whose resync fails stays ``stale`` — and the store rows
        rewritten wholesale to mirror it."""
        self.close()
        self.completions.clear()
        self.epoch += 1
        self._standing(None)
        self.save("post-failure save")
