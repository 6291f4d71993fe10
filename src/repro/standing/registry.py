"""Standing-query state: subscriptions, their group logs, the registry.

A :class:`StandingQuery` is one live subscription: the compiled
:class:`~repro.rewriting.plan.Plan`, its execution options and engine,
and the epoch it joined at.  Subscriptions of one dataset object that
share a plan fingerprint and an engine are one plan group, and the
group keeps one :class:`GroupLog`: the materialized answers, the epoch
they reflect, and one bounded :class:`AnswerDelta` history.  A member
holds nothing else of the group's state: it reads the log from its
join epoch on.  The :class:`StandingRegistry` owns every subscription
and every group log.

Maintenance (see :mod:`repro.standing.maintain`) runs inside the
service's writer-lock update path and commits one
:class:`AnswerDelta` per affected group, once, to the group's log;
unaffected groups just move their epoch.  Consumers read the state
through :meth:`StandingRegistry.poll` (long-poll with
``since_epoch``).
"""

from __future__ import annotations

import itertools
import threading
import uuid
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from ..obs import Observability
from ..store.tenants import TenantManager

Row = Tuple[str, ...]

#: Default per-group delta history (polls further back resync).
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
    """One live subscription: the plan, the engine and options it
    subscribed with, the epoch it :attr:`joined` at, and the
    :attr:`log` of its plan group.  Its :attr:`answers`,
    :attr:`epoch`, :attr:`stale` and :attr:`history` are read-only
    views of that log; the history shows only the deltas after the
    join."""

    subscription_id: str
    #: Tenant-scoped registry key (wire bodies carry :attr:`base_name`).
    dataset: str
    plan: object
    options: object
    engine: str
    #: Owning tenant (see :mod:`repro.store.tenants`): poll and
    #: unsubscribe reject callers presenting another tenant's id.
    tenant: str = ""
    #: Dataset epoch of the answers it started from: deltas at or
    #: below it are not its own, polls from before it resync.
    joined: int = 0
    #: The ``Dataset`` object the answers were materialized against.
    #: :attr:`dataset` names whatever is registered now; an update
    #: still running on a replaced dataset must not reach the
    #: replacement's subscribers, so groups are keyed by this object.
    #: Never on the wire.
    owner: object = field(default=None, repr=False, compare=False)
    closed: bool = False
    log: Optional[GroupLog] = field(default=None, repr=False,
                                    compare=False)

    @property
    def key(self) -> Tuple[str, str]:
        """The plan group within its dataset: (fingerprint, engine)."""
        return self.plan.fingerprint, self.engine

    @property
    def answers(self) -> FrozenSet[Row]:
        return self.log.answers

    @property
    def epoch(self) -> int:
        """Dataset epoch the group's answers reflect."""
        return self.log.epoch

    @property
    def stale(self) -> bool:
        return self.log.stale

    @property
    def history(self) -> List[AnswerDelta]:
        with self.log.condition:
            return [delta for delta in self.log.history
                    if delta.epoch > self.joined]

    @property
    def base_name(self) -> str:
        """The dataset under the name its tenant registered — the only
        one the tenant may send back (``::`` is reserved)."""
        return TenantManager.split(self.dataset)[1]

    def snapshot_payload(self) -> Dict[str, object]:
        """The JSON shape of ``POST /subscribe`` responses and resyncs
        (caller holds the log's ``condition`` or tolerates a racy
        read)."""
        return {"subscription": self.subscription_id,
                "dataset": self.base_name,
                "epoch": self.epoch,
                "answers": sorted(list(row) for row in self.answers),
                "count": len(self.answers),
                "stale": self.stale,
                "plan_fingerprint": self.plan.fingerprint,
                "method": self.plan.method,
                "engine": self.engine}


class GroupLog:
    """One plan group's state, shared by its members (guarded by
    ``condition``): the :attr:`answers` as of :attr:`epoch`, ``stale``
    while they may not reflect the data (new, or a refresh failed),
    and one bounded history of the group's deltas, which no longer
    holds those at or below :attr:`oldest_epoch`.  Maintenance runs
    the plan of its :attr:`founder`, the member that created it."""

    def __init__(self, registry: StandingRegistry, founder: StandingQuery):
        self.registry, self.founder = registry, founder
        self.key = founder.key
        self.answers: FrozenSet[Row] = frozenset()
        self.epoch = self.oldest_epoch = founder.joined
        self.stale = True
        self.condition = threading.Condition()
        self.history: Deque[AnswerDelta] = deque()
        #: replaced whole under the registry lock, so read without it
        self.members: Tuple[StandingQuery, ...] = ()

    def commit(self, delta: AnswerDelta) -> None:
        """Move the group to ``delta``: its epoch, and for a nonempty
        delta its answers, one history entry and one wake-up of its
        pollers.  Each member counts as pushed the delta; a group with
        no member keeps no history (no later member can ask for it)."""
        with self.condition:
            self.epoch, self.stale = delta.epoch, False
            if delta.empty:
                return
            self.answers = (delta.answers if delta.resync else
                            (self.answers - delta.removed) | delta.added)
            if not self.members:
                return
            self.history.append(delta)
            while len(self.history) > self.registry.history_limit:
                self.oldest_epoch = self.history.popleft().epoch
            self.condition.notify_all()
        members = len(self.members)
        self.registry._deltas_pushed.inc(members)
        self.registry._tuples_pushed.inc(
            (len(delta.added) + len(delta.removed)) * members)


class StandingRegistry:
    """Thread-safe home of every subscription and every group log,
    the logs filed per dataset object.

    The registry never touches dataset locks: maintenance (running
    under a dataset's write lock) and pollers (holding no dataset
    lock) only meet on the registry lock and the group logs'
    conditions, so there is no lock-order cycle.
    """

    def __init__(self, history_limit: int = HISTORY_LIMIT,
                 obs: Optional[Observability] = None):
        self.history_limit = max(1, history_limit)
        self._lock = threading.RLock()
        self._subs: Dict[str, StandingQuery] = {}
        #: dataset object -> (fingerprint, engine) -> its group's log
        self._groups: Dict[object, Dict[Tuple[str, str], GroupLog]] = {}
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

    def attach(self, sub: StandingQuery) -> None:
        """Point a new subscription at its group's log: the one filed,
        else a new, ``stale`` one that :meth:`add` files."""
        with self._lock:
            group = self._groups.get(sub.owner, {}).get(sub.key)
        sub.log = group or GroupLog(self, sub)

    def add(self, sub: StandingQuery) -> None:
        """File an attached, initialized subscription in its group.  A
        first subscriber to the group racing this one may have filed
        its own new log: both were initialized under the dataset's
        read lock, at one epoch, so this one joins the filed log."""
        with self._lock:
            group = self._groups.setdefault(sub.owner, {}).setdefault(
                sub.key, sub.log)
            sub.log, group.members = group, group.members + (sub,)
            self._subs[sub.subscription_id] = sub
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
            group = sub.log
            group.members = tuple(member for member in group.members
                                  if member is not sub)
            groups = self._groups.get(sub.owner, {})
            if not group.members and groups.get(sub.key) is group:
                del groups[sub.key]
                if not groups:
                    del self._groups[sub.owner]
        self._close(sub)
        return sub

    def drop_dataset(self, owner) -> List[StandingQuery]:
        """Remove (and close) every subscription to the dataset object
        ``owner`` — called when it is unregistered or replaced
        wholesale.  A subscription to the replacement, filed under the
        same name, is not its to drop."""
        with self._lock:
            dropped = [sub for group in self._groups.pop(owner, {}).values()
                       for sub in group.members]
            for sub in dropped:
                del self._subs[sub.subscription_id]
        for sub in dropped:
            self._close(sub)
        return dropped

    def close_all(self) -> None:
        with self._lock:
            subs = list(self._subs.values())
            self._subs.clear()
            self._groups.clear()
        for sub in subs:
            self._close(sub)

    @staticmethod
    def _close(sub: StandingQuery) -> None:
        with sub.log.condition:
            sub.closed = True
            sub.log.condition.notify_all()

    def groups(self, owner) -> List[GroupLog]:
        """The group logs of the dataset object ``owner``."""
        with self._lock:
            return list(self._groups.get(owner, {}).values())

    def affected(self, groups: List[GroupLog],
                 changed: Optional[Dict[int, FrozenSet[str]]]
                 ) -> Set[GroupLog]:
        """The ``groups`` one update may have moved: all of them on
        recovery (``changed`` is ``None``), else each ``stale`` one and
        each whose rewriting reads a predicate the update changed in
        its data variant (``changed`` maps the ``id`` of the variant's
        TBox to that set)."""
        if changed is None:
            return set(groups)
        return {group for group in groups if group.stale or not
                group.founder.plan.ndl.program.edb_predicates.isdisjoint(
                    changed[id(group.founder.plan._variant_tbox())])}

    def count(self) -> int:
        with self._lock:
            return len(self._subs)

    def record_resync(self, count: int = 1) -> None:
        self._resyncs.inc(count)

    def record_maintenance(self, seconds: float) -> None:
        self._maintenance_seconds.inc(seconds)

    # -- consumption ---------------------------------------------------------

    def snapshot(self, subscription_id: str) -> Dict[str, object]:
        sub = self.get(subscription_id)
        with sub.log.condition:
            return sub.snapshot_payload()

    def poll(self, subscription_id: str,
             since_epoch: Optional[int] = None,
             timeout: float = 0.0) -> Dict[str, object]:
        """The group's deltas newer than ``since_epoch`` (default: the
        watermark — only future changes), blocking up to ``timeout``
        seconds for one to arrive.  A ``since_epoch`` from before the
        retained history or before the subscription joined returns a
        full-snapshot resync instead."""
        import time

        sub = self.get(subscription_id)
        group = sub.log
        self._polls.inc()
        deadline = time.monotonic() + max(0.0, timeout)
        with group.condition:
            if since_epoch is None:
                since_epoch = group.epoch
            while True:
                if sub.closed:
                    raise ValueError(
                        f"subscription {subscription_id!r} is closed")
                if since_epoch < max(group.oldest_epoch, sub.joined):
                    body = sub.snapshot_payload()
                    body["resync"] = True
                    body["deltas"] = []
                    self.record_resync()
                    return body
                deltas = [delta for delta in group.history
                          if delta.epoch > since_epoch]
                remaining = deadline - time.monotonic()
                if deltas or remaining <= 0:
                    return {"subscription": sub.subscription_id,
                            "dataset": sub.base_name,
                            "epoch": group.epoch,
                            "resync": False,
                            "stale": group.stale,
                            "deltas": [delta.payload()
                                       for delta in deltas]}
                group.condition.wait(remaining)

    # -- stats ---------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            per_dataset = Counter(sub.dataset for sub in self._subs.values())
            return {"subscriptions": len(self._subs),
                    "subscribed_total": int(self._subscribed_total.value),
                    "per_dataset": dict(sorted(per_dataset.items())),
                    "deltas_pushed": int(self._deltas_pushed.value),
                    "tuples_pushed": int(self._tuples_pushed.value),
                    "resyncs": int(self._resyncs.value),
                    # nothing can fall back any more; the frozen
                    # benchmarks/omq/update_standing.py reads the key
                    "fallback_reexecutions": 0,
                    "polls": int(self._polls.value),
                    "maintenance_seconds": round(
                        self._maintenance_seconds.value, 6)}
