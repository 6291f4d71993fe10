""":class:`DatasetStore`: the service's durable state, per tenant.

One SQLite file per tenant (see :mod:`repro.store.sqlite` for the WAL
and pooling recipe) holding everything a restarted server needs to
warm-start that tenant:

* ``datasets`` — name and the current epoch (plus a ``shards`` column
  earlier versions wrote; it is read only so a restore can warn that
  the setting is gone, and a wholesale save resets it);
* ``facts`` — the ABox atoms, one row per ground atom (unary atoms
  store an empty second argument; constants never parse to the empty
  string, so the encoding is unambiguous);
* ``tboxes`` — named ontologies in the surface syntax;
* ``subscriptions`` — standing queries: ontology text, CQ text,
  answer variables, serialized options, engine, and the epoch at
  registration (on restore the subscription is re-materialized from
  the restored facts and re-armed at the dataset's persisted epoch).

Write discipline: registration and checkpoints rewrite a dataset
wholesale; :meth:`apply_delta` appends only the update's atoms plus
the new epoch.  Deltas are executed as ``DELETE`` then ``INSERT OR
IGNORE`` — both idempotent — in the same order the in-memory update
applies them, so replaying the requested atoms reproduces exactly the
final in-memory state even when requests carry duplicates or no-ops.
Every mutation runs in one transaction: a crash mid-update rolls back
to the previous consistent state instead of persisting a torn write.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..data.abox import GroundAtom
from .sqlite import SQLitePool
from .tenants import DEFAULT_TENANT, TenantManager

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS datasets (
    name   TEXT PRIMARY KEY,
    shards INTEGER NOT NULL DEFAULT 0,
    epoch  INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS facts (
    dataset   TEXT NOT NULL,
    predicate TEXT NOT NULL,
    arity     INTEGER NOT NULL,
    arg0      TEXT NOT NULL,
    arg1      TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (dataset, predicate, arity, arg0, arg1)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS tboxes (
    name TEXT PRIMARY KEY,
    text TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS subscriptions (
    id          TEXT PRIMARY KEY,
    dataset     TEXT NOT NULL,
    tbox_text   TEXT NOT NULL,
    query       TEXT NOT NULL,
    answer_vars TEXT NOT NULL,
    options     TEXT NOT NULL,
    engine      TEXT NOT NULL,
    epoch       INTEGER NOT NULL DEFAULT 0
);
"""

#: Filename of the default (unnamed) tenant.  Validated tenant names
#: must start with an alphanumeric, so the underscore cannot collide.
_DEFAULT_FILE = "_default"


@dataclass(frozen=True)
class StoredSubscription:
    """One persisted standing query, in wire-text form."""

    subscription_id: str
    dataset: str
    tbox_text: str
    query: str
    answer_vars: Tuple[str, ...]
    options: Dict[str, object]
    engine: str
    epoch: int = 0


@dataclass
class TenantSnapshot:
    """Everything one tenant file holds, decoded for restore."""

    tenant: str
    #: name -> (atoms, stored ``shards`` column, epoch)
    datasets: Dict[str, Tuple[List[GroundAtom], object, int]] = field(
        default_factory=dict)
    tboxes: Dict[str, str] = field(default_factory=dict)
    subscriptions: List[StoredSubscription] = field(default_factory=list)


def _atom_rows(dataset: str, atoms: Iterable[GroundAtom]):
    for predicate, args in atoms:
        if len(args) == 1:
            yield (dataset, predicate, 1, args[0], "")
        else:
            yield (dataset, predicate, 2, args[0], args[1])


class DatasetStore:
    """Durable multi-tenant dataset storage under one directory.

    Thread-safe: every write is one SQLite transaction on a pooled
    connection, and the service only writes a given dataset under its
    writer lock, so per-file write contention is already serialized
    upstream.  ``pool_size`` bounds connections per tenant file.
    """

    def __init__(self, data_dir: str, pool_size: int = 4):
        self.data_dir = os.path.abspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self._pool_size = pool_size
        self._pools: Dict[str, SQLitePool] = {}
        self._lock = threading.Lock()
        self._writes = 0
        self._last_checkpoint: Optional[Dict[str, object]] = None

    # -- files and pools -----------------------------------------------------

    def path_for(self, tenant: str) -> str:
        TenantManager.validate(tenant)
        stem = _DEFAULT_FILE if tenant == DEFAULT_TENANT else tenant
        return os.path.join(self.data_dir, f"{stem}.db")

    def tenants(self) -> List[str]:
        """Every tenant with a store file on disk."""
        names = []
        for entry in sorted(os.listdir(self.data_dir)):
            if not entry.endswith(".db"):
                continue
            stem = entry[:-3]
            names.append(DEFAULT_TENANT if stem == _DEFAULT_FILE else stem)
        return names

    def _pool(self, tenant: str) -> SQLitePool:
        with self._lock:
            pool = self._pools.get(tenant)
            if pool is None:
                pool = SQLitePool(self.path_for(tenant),
                                  capacity=self._pool_size)
                self._pools[tenant] = pool
                with pool.connection() as connection:
                    with connection:
                        connection.executescript(_SCHEMA)
                        connection.execute(
                            "INSERT OR IGNORE INTO meta (key, value) "
                            "VALUES ('schema_version', ?)",
                            (str(SCHEMA_VERSION),))
            return pool

    def _count_write(self) -> None:
        with self._lock:
            self._writes += 1

    # -- writes --------------------------------------------------------------

    def save_dataset(self, tenant: str, name: str,
                     atoms: Iterable[GroundAtom], epoch: int = 0) -> None:
        """Persist a dataset wholesale (registration and checkpoints);
        one transaction replaces any previous facts and metadata."""
        rows = list(_atom_rows(name, atoms))
        with self._pool(tenant).connection() as connection:
            with connection:
                connection.execute(
                    "DELETE FROM facts WHERE dataset = ?", (name,))
                connection.executemany(
                    "INSERT OR IGNORE INTO facts "
                    "(dataset, predicate, arity, arg0, arg1) "
                    "VALUES (?, ?, ?, ?, ?)", rows)
                connection.execute(
                    "INSERT OR REPLACE INTO datasets (name, epoch) "
                    "VALUES (?, ?)", (name, epoch))
        self._count_write()

    def apply_delta(self, tenant: str, name: str,
                    inserts: Sequence[GroundAtom] = (),
                    deletes: Sequence[GroundAtom] = (),
                    epoch: int = 0) -> None:
        """Append one update — deletes first, then inserts, both
        idempotent — and advance the epoch, atomically."""
        with self._pool(tenant).connection() as connection:
            with connection:
                connection.executemany(
                    "DELETE FROM facts WHERE dataset = ? AND "
                    "predicate = ? AND arity = ? AND arg0 = ? AND "
                    "arg1 = ?", list(_atom_rows(name, deletes)))
                connection.executemany(
                    "INSERT OR IGNORE INTO facts "
                    "(dataset, predicate, arity, arg0, arg1) "
                    "VALUES (?, ?, ?, ?, ?)",
                    list(_atom_rows(name, inserts)))
                connection.execute(
                    "UPDATE datasets SET epoch = ? WHERE name = ?",
                    (epoch, name))
        self._count_write()

    def delete_dataset(self, tenant: str, name: str) -> None:
        """Drop a dataset, its facts and its subscriptions."""
        with self._pool(tenant).connection() as connection:
            with connection:
                connection.execute(
                    "DELETE FROM facts WHERE dataset = ?", (name,))
                connection.execute(
                    "DELETE FROM datasets WHERE name = ?", (name,))
                connection.execute(
                    "DELETE FROM subscriptions WHERE dataset = ?",
                    (name,))
        self._count_write()

    def save_tbox(self, tenant: str, name: str, text: str) -> None:
        with self._pool(tenant).connection() as connection:
            with connection:
                connection.execute(
                    "INSERT INTO tboxes (name, text) VALUES (?, ?) "
                    "ON CONFLICT(name) DO UPDATE SET text = excluded.text",
                    (name, text))
        self._count_write()

    def save_subscription(self, tenant: str,
                          subscription: StoredSubscription) -> None:
        with self._pool(tenant).connection() as connection:
            with connection:
                connection.execute(
                    "INSERT INTO subscriptions (id, dataset, tbox_text, "
                    "query, answer_vars, options, engine, epoch) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?) "
                    "ON CONFLICT(id) DO UPDATE SET epoch = excluded.epoch",
                    (subscription.subscription_id, subscription.dataset,
                     subscription.tbox_text, subscription.query,
                     json.dumps(list(subscription.answer_vars)),
                     json.dumps(subscription.options),
                     subscription.engine, subscription.epoch))
        self._count_write()

    def delete_subscription(self, tenant: str,
                            subscription_id: str) -> None:
        with self._pool(tenant).connection() as connection:
            with connection:
                connection.execute(
                    "DELETE FROM subscriptions WHERE id = ?",
                    (subscription_id,))
        self._count_write()

    # -- reads ---------------------------------------------------------------

    def load_tenant(self, tenant: str) -> TenantSnapshot:
        snapshot = TenantSnapshot(tenant=tenant)
        with self._pool(tenant).connection() as connection:
            for name, shards, epoch in connection.execute(
                    "SELECT name, shards, epoch FROM datasets "
                    "ORDER BY name"):
                snapshot.datasets[name] = ([], shards, int(epoch))
            for dataset, predicate, arity, arg0, arg1 in connection.execute(
                    "SELECT dataset, predicate, arity, arg0, arg1 "
                    "FROM facts"):
                entry = snapshot.datasets.get(dataset)
                if entry is None:  # orphan rows from a torn manual edit
                    continue
                args = (arg0,) if arity == 1 else (arg0, arg1)
                entry[0].append((predicate, args))
            for name, text in connection.execute(
                    "SELECT name, text FROM tboxes ORDER BY name"):
                snapshot.tboxes[name] = text
            for row in connection.execute(
                    "SELECT id, dataset, tbox_text, query, answer_vars, "
                    "options, engine, epoch FROM subscriptions "
                    "ORDER BY id"):
                snapshot.subscriptions.append(StoredSubscription(
                    subscription_id=row[0], dataset=row[1],
                    tbox_text=row[2], query=row[3],
                    answer_vars=tuple(json.loads(row[4])),
                    options=json.loads(row[5]), engine=row[6],
                    epoch=int(row[7])))
        return snapshot

    def load_all(self) -> Dict[str, TenantSnapshot]:
        return {tenant: self.load_tenant(tenant)
                for tenant in self.tenants()}

    # -- lifecycle -----------------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Truncate every open WAL into its main file and record the
        high-water epoch, so a clean shutdown leaves nothing to replay
        and ``/health`` can report the last durable point."""
        max_epoch = 0
        datasets = 0
        with self._lock:
            pools = dict(self._pools)
        for pool in pools.values():
            with pool.connection() as connection:
                for epoch, in connection.execute(
                        "SELECT epoch FROM datasets"):
                    datasets += 1
                    max_epoch = max(max_epoch, int(epoch))
            pool.checkpoint()
        summary = {"at": time.time(), "tenants": len(pools),
                   "datasets": datasets, "epoch": max_epoch}
        with self._lock:
            self._last_checkpoint = summary
        return summary

    def status(self) -> Dict[str, object]:
        """The ``storage`` block of ``/health`` and ``/stats``."""
        with self._lock:
            status: Dict[str, object] = {
                "enabled": True,
                "data_dir": self.data_dir,
                "writes": self._writes,
                "open_tenants": len(self._pools)}
            checkpoint = self._last_checkpoint
        status["tenant_files"] = len(self.tenants())
        if checkpoint is not None:
            status["last_checkpoint_epoch"] = checkpoint["epoch"]
            status["last_checkpoint_at"] = checkpoint["at"]
        return status

    def close(self) -> None:
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.close()

    def __enter__(self) -> "DatasetStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"DatasetStore({self.data_dir!r}, "
                f"tenants={len(self.tenants())})")
