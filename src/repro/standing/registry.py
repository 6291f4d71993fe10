"""Standing-query state: subscriptions, deltas, and their registry.

A :class:`StandingQuery` is one live subscription: the compiled
:class:`~repro.rewriting.plan.Plan`, its execution options and engine,
the materialized answer set, and an epoch watermark (the dataset epoch
the materialization reflects).  The :class:`StandingRegistry` owns
every subscription, indexed per dataset *and* per EDB predicate of the
subscription's rewriting, so one update only ever touches the
subscriptions whose answers could have changed.

Maintenance (see :mod:`repro.standing.maintain`) runs inside the
service's writer-lock update path and commits one
:class:`AnswerDelta` per affected plan group to its subscriptions;
unaffected subscriptions just advance their watermark.  Consumers read
the state through :meth:`StandingRegistry.poll` (long-poll with
``since_epoch``).
"""

from __future__ import annotations

import itertools
import threading
import uuid
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..obs import Observability
from ..store.tenants import TenantManager

Row = Tuple[str, ...]

#: Default per-subscription delta history (polls further back resync).
HISTORY_LIMIT = 256


@dataclass(frozen=True)
class AnswerDelta:
    """One maintenance step's effect on a subscription's answers.

    ``added``/``removed`` are exact against the materialized set (an
    update that re-derives an existing answer emits nothing).  A
    ``resync`` delta replaces the subscriber's state with ``answers``
    wholesale — emitted when a poll asked for epochs older than the
    retained history.
    """

    epoch: int
    added: FrozenSet[Row] = frozenset()
    removed: FrozenSet[Row] = frozenset()
    resync: bool = False
    answers: Optional[FrozenSet[Row]] = None

    @property
    def empty(self) -> bool:
        return not self.added and not self.removed and not self.resync

    def payload(self) -> Dict[str, object]:
        """The JSON wire shape (rows as sorted lists)."""
        body: Dict[str, object] = {
            "epoch": self.epoch,
            "added": sorted(list(row) for row in self.added),
            "removed": sorted(list(row) for row in self.removed)}
        if self.resync:
            body["resync"] = True
            body["answers"] = sorted(
                list(row) for row in (self.answers or frozenset()))
        return body

    @classmethod
    def from_payload(cls, body: Dict) -> "AnswerDelta":
        resync = bool(body.get("resync"))
        answers = None
        if resync:
            answers = frozenset(tuple(row)
                                for row in body.get("answers", ()))
        return cls(epoch=int(body.get("epoch", 0)),
                   added=frozenset(tuple(row)
                                   for row in body.get("added", ())),
                   removed=frozenset(tuple(row)
                                     for row in body.get("removed", ())),
                   resync=resync, answers=answers)


@dataclass
class StandingQuery:
    """One live subscription (mutable state guarded by ``condition``):
    the plan, the engine and options it subscribed with, and the
    materialized :attr:`answers` as of :attr:`epoch`, which the
    subscriptions of one plan group share with their view
    (:mod:`repro.standing.maintain`) until one of them falls behind."""

    subscription_id: str
    #: Tenant-scoped registry key (wire bodies carry :attr:`base_name`).
    dataset: str
    plan: object
    options: object
    engine: str
    #: Owning tenant (see :mod:`repro.store.tenants`): poll and
    #: unsubscribe reject callers presenting another tenant's id.
    tenant: str = ""
    answers: FrozenSet[Row] = frozenset()
    #: Dataset epoch the materialization reflects.
    epoch: int = 0
    #: Epoch at/below which deltas are no longer retained in history.
    oldest_epoch: int = 0
    #: The ``Dataset`` object the answers were materialized against.
    #: :attr:`dataset` names whatever is registered now; an update
    #: still running on a replaced dataset must not reach the
    #: replacement's subscribers, so the update path checks identity.
    #: Never on the wire.
    owner: object = field(default=None, repr=False, compare=False)
    #: Set when an update failed partway: the materialization may not
    #: reflect the data, so the next update must refresh regardless of
    #: which predicates it touches.
    stale: bool = False
    closed: bool = False
    condition: threading.Condition = field(
        default_factory=threading.Condition)
    history: Deque[AnswerDelta] = field(default_factory=deque)

    @property
    def predicates(self) -> FrozenSet[str]:
        """EDB predicates of the rewriting — the only relations whose
        change can move this subscription's answers (``__adom__``
        included iff the program uses it)."""
        return self.plan.ndl.program.edb_predicates

    @cached_property
    def variant_key(self):
        """Identity of the data variant the plan evaluates over
        (``None`` = raw data, else the interned TBox's id)."""
        tbox = self.plan._variant_tbox()
        return None if tbox is None else id(tbox)

    @property
    def base_name(self) -> str:
        """The dataset under the name its tenant registered — the only
        one the tenant may send back (``::`` is reserved)."""
        return TenantManager.split(self.dataset)[1]

    def snapshot_payload(self) -> Dict[str, object]:
        """The JSON shape of ``POST /subscribe`` responses and resyncs
        (caller holds ``condition`` or tolerates a racy read)."""
        return {"subscription": self.subscription_id,
                "dataset": self.base_name,
                "epoch": self.epoch,
                "answers": sorted(list(row) for row in self.answers),
                "count": len(self.answers),
                "stale": self.stale,
                "plan_fingerprint": self.plan.fingerprint,
                "method": self.plan.method,
                "engine": self.engine}


class StandingRegistry:
    """Thread-safe home of every subscription, with per-dataset and
    per-predicate indexes.

    The registry never touches dataset locks: maintenance (running
    under a dataset's write lock) and pollers (holding no dataset
    lock) only meet on the registry lock and per-subscription
    conditions, so there is no lock-order cycle.
    """

    def __init__(self, history_limit: int = HISTORY_LIMIT,
                 obs: Optional[Observability] = None):
        self.history_limit = max(1, history_limit)
        self._lock = threading.RLock()
        self._subs: Dict[str, StandingQuery] = {}
        self._by_dataset: Dict[str, Set[str]] = {}
        #: dataset -> predicate -> subscription ids
        self._index: Dict[str, Dict[str, Set[str]]] = {}
        self._counter = itertools.count(1)
        # counters (served under "standing" in /stats and as
        # ``repro_standing_*`` metric families)
        self._obs = obs or Observability()
        self._subscribed_total = self._obs.standing_subscribed
        self._deltas_pushed = self._obs.standing_deltas
        self._tuples_pushed = self._obs.standing_tuples
        self._resyncs = self._obs.standing_resyncs
        self._polls = self._obs.standing_polls
        self._maintenance_seconds = self._obs.standing_maintenance_seconds

    # -- membership ----------------------------------------------------------

    def new_id(self) -> str:
        return f"sub-{next(self._counter)}-{uuid.uuid4().hex[:8]}"

    def add(self, sub: StandingQuery) -> None:
        with self._lock:
            self._subs[sub.subscription_id] = sub
            self._by_dataset.setdefault(sub.dataset, set()).add(
                sub.subscription_id)
            index = self._index.setdefault(sub.dataset, {})
            for predicate in sub.predicates:
                index.setdefault(predicate, set()).add(sub.subscription_id)
            self._subscribed_total.inc()

    def get(self, subscription_id: str) -> StandingQuery:
        with self._lock:
            sub = self._subs.get(subscription_id)
        if sub is None:
            raise ValueError(
                f"unknown subscription {subscription_id!r}")
        return sub

    def remove(self, subscription_id: str) -> StandingQuery:
        with self._lock:
            sub = self._subs.pop(subscription_id, None)
            if sub is None:
                raise ValueError(
                    f"unknown subscription {subscription_id!r}")
            self._unindex(sub)
        self._close(sub)
        return sub

    def drop_dataset(self, dataset: str, owner) -> List[StandingQuery]:
        """Remove (and close) every subscription ``owner`` holds under
        ``dataset`` — called when that dataset object is unregistered
        or replaced wholesale.  A subscription to the replacement,
        filed under the same name, is not its to drop."""
        with self._lock:
            dropped = [sub for sub in self.for_dataset(dataset)
                       if sub.owner is owner]
            for sub in dropped:
                del self._subs[sub.subscription_id]
                self._unindex(sub)
        for sub in dropped:
            self._close(sub)
        return dropped

    def close_all(self) -> None:
        with self._lock:
            subs = list(self._subs.values())
            self._subs.clear()
            self._by_dataset.clear()
            self._index.clear()
        for sub in subs:
            self._close(sub)

    def _unindex(self, sub: StandingQuery) -> None:
        ids = self._by_dataset.get(sub.dataset)
        if ids is not None:
            ids.discard(sub.subscription_id)
            if not ids:
                self._by_dataset.pop(sub.dataset, None)
        index = self._index.get(sub.dataset)
        if index is not None:
            for predicate in sub.predicates:
                members = index.get(predicate)
                if members is not None:
                    members.discard(sub.subscription_id)
                    if not members:
                        index.pop(predicate, None)
            if not index:
                self._index.pop(sub.dataset, None)

    @staticmethod
    def _close(sub: StandingQuery) -> None:
        with sub.condition:
            sub.closed = True
            sub.condition.notify_all()

    def for_dataset(self, dataset: str) -> List[StandingQuery]:
        with self._lock:
            ids = self._by_dataset.get(dataset, set())
            return [self._subs[sid] for sid in sorted(ids)
                    if sid in self._subs]

    def affected(self, dataset: str,
                 changed_by_variant: Dict[object, FrozenSet[str]]
                 ) -> List[StandingQuery]:
        """Subscriptions one update may have moved: looked up through
        the per-predicate index with each data variant's own changed
        set, plus any ``stale`` subscription (its materialization is
        behind regardless of predicates)."""
        with self._lock:
            index = self._index.get(dataset, {})
            ids: Set[str] = set()
            for key, changed in changed_by_variant.items():
                for predicate in changed:
                    for sid in index.get(predicate, ()):
                        if sid in ids:
                            continue
                        sub = self._subs.get(sid)
                        if sub is not None and sub.variant_key == key:
                            ids.add(sid)
            for sid in self._by_dataset.get(dataset, ()):
                sub = self._subs.get(sid)
                if sub is not None and sub.stale:
                    ids.add(sid)
            return [self._subs[sid] for sid in sorted(ids)
                    if sid in self._subs]

    @staticmethod
    def invalidate(subs: Sequence[StandingQuery]) -> None:
        """Mark subscriptions stale (an update failed partway).  The
        dataset follows up with a proactive resync; any subscription
        that resists it stays stale — surfaced in poll/snapshot
        bodies — until a later update's maintenance pass succeeds for
        it."""
        for sub in subs:
            with sub.condition:
                sub.stale = True

    def count(self) -> int:
        with self._lock:
            return len(self._subs)

    # -- commits (called under the dataset write lock) -----------------------

    def commit(self, subs: Sequence[StandingQuery], delta: AnswerDelta,
               new_answers: FrozenSet[Row]) -> None:
        """Apply one maintenance outcome to each of ``subs``: update
        materialization and watermark, record the delta, wake pollers."""
        empty = delta.empty
        for sub in subs:
            with sub.condition:
                sub.answers = new_answers
                sub.epoch = delta.epoch
                if not empty:
                    sub.history.append(delta)
                    while len(sub.history) > self.history_limit:
                        dropped = sub.history.popleft()
                        sub.oldest_epoch = max(sub.oldest_epoch,
                                               dropped.epoch)
                    sub.condition.notify_all()  # a poll waits for deltas
        if not empty:
            self._deltas_pushed.inc(len(subs))
            self._tuples_pushed.inc(
                (len(delta.added) + len(delta.removed)) * len(subs))

    def advance(self, sub: StandingQuery, epoch: int) -> None:
        """Move an unaffected subscription's watermark forward."""
        with sub.condition:
            sub.epoch = max(sub.epoch, epoch)

    def record_resync(self, count: int = 1) -> None:
        self._resyncs.inc(count)

    def record_maintenance(self, seconds: float) -> None:
        self._maintenance_seconds.inc(seconds)

    # -- consumption ---------------------------------------------------------

    def snapshot(self, subscription_id: str) -> Dict[str, object]:
        sub = self.get(subscription_id)
        with sub.condition:
            return sub.snapshot_payload()

    def poll(self, subscription_id: str,
             since_epoch: Optional[int] = None,
             timeout: float = 0.0) -> Dict[str, object]:
        """Deltas newer than ``since_epoch`` (default: the watermark —
        only future changes), blocking up to ``timeout`` seconds for
        one to arrive.  A ``since_epoch`` older than the retained
        history returns a full-snapshot resync instead."""
        import time

        sub = self.get(subscription_id)
        self._polls.inc()
        deadline = time.monotonic() + max(0.0, timeout)
        with sub.condition:
            if since_epoch is None:
                since_epoch = sub.epoch
            while True:
                if sub.closed:
                    raise ValueError(
                        f"subscription {subscription_id!r} is closed")
                if since_epoch < sub.oldest_epoch:
                    body = sub.snapshot_payload()
                    body["resync"] = True
                    body["deltas"] = []
                    self.record_resync()
                    return body
                deltas = [delta for delta in sub.history
                          if delta.epoch > since_epoch]
                remaining = deadline - time.monotonic()
                if deltas or remaining <= 0:
                    return {"subscription": sub.subscription_id,
                            "dataset": sub.base_name,
                            "epoch": sub.epoch,
                            "resync": False,
                            "stale": sub.stale,
                            "deltas": [delta.payload()
                                       for delta in deltas]}
                sub.condition.wait(remaining)

    # -- stats ---------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            per_dataset = {dataset: len(ids) for dataset, ids
                           in sorted(self._by_dataset.items())}
            return {"subscriptions": len(self._subs),
                    "subscribed_total": int(self._subscribed_total.value),
                    "per_dataset": per_dataset,
                    "deltas_pushed": int(self._deltas_pushed.value),
                    "tuples_pushed": int(self._tuples_pushed.value),
                    "resyncs": int(self._resyncs.value),
                    # nothing can fall back any more; the frozen
                    # benchmarks/omq/update_standing.py reads the key
                    "fallback_reexecutions": 0,
                    "polls": int(self._polls.value),
                    "maintenance_seconds": round(
                        self._maintenance_seconds.value, 6)}
