"""Durable storage: :mod:`repro.store` and warm restart.

Three layers of guarantees:

* :class:`~repro.store.DatasetStore` round-trips datasets, ontologies
  and subscriptions through per-tenant SQLite files, applies deltas
  idempotently and atomically (a torn write rolls back wholesale);
* a restarted :class:`~repro.service.OMQService` pointed at the same
  ``data_dir`` restores every tenant's state — answers, epochs and
  re-armed standing queries — identically to the pre-restart service;
* crash recovery, property-tested: after killing the store mid-update
  the reopened state answers exactly like a from-scratch load of the
  durable prefix, on every available engine.

The golden fixtures of ``tests/golden`` double as restart oracles:
the post-update snapshots there were blessed from scratch, so a
warm-restarted service must reproduce them byte-for-byte.
"""

import dataclasses
import json
import logging
import pathlib
import sqlite3

from hypothesis import given, strategies as st

from repro import ENGINES, OMQ, AnswerSession
from repro.data import ABox
from repro.queries import chain_cq
from repro.service import OMQService
from repro.store import DatasetStore, StoredSubscription

from .helpers import example11_tbox, hypothesis_settings, random_data

TBOX = example11_tbox()
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def _atoms(abox):
    return sorted(abox.atoms())


class TestDatasetStore:
    def test_dataset_round_trip(self, tmp_path):
        with DatasetStore(str(tmp_path)) as store:
            abox = random_data(1)
            store.save_dataset("alice", "demo", abox.atoms(), epoch=7)
            snap = store.load_tenant("alice")
        assert sorted(snap.datasets) == ["demo"]
        atoms, _, epoch = snap.datasets["demo"]
        assert sorted(atoms) == _atoms(abox)
        assert epoch == 7

    def test_save_dataset_replaces_wholesale(self, tmp_path):
        with DatasetStore(str(tmp_path)) as store:
            store.save_dataset("", "d", [("R", ("a", "b"))], epoch=1)
            store.save_dataset("", "d", [("S", ("x", "y"))], epoch=2)
            atoms, _, epoch = store.load_tenant("").datasets["d"]
        assert atoms == [("S", ("x", "y"))] and epoch == 2

    def test_apply_delta_is_idempotent(self, tmp_path):
        with DatasetStore(str(tmp_path)) as store:
            store.save_dataset("", "d", [("R", ("a", "b")),
                                         ("A", ("a",))], epoch=1)
            delta = dict(inserts=[("S", ("a", "b")), ("S", ("a", "b"))],
                         deletes=[("A", ("a",)), ("B", ("zz",))])
            store.apply_delta("", "d", epoch=2, **delta)
            store.apply_delta("", "d", epoch=2, **delta)  # replay
            atoms, _, epoch = store.load_tenant("").datasets["d"]
        assert sorted(atoms) == [("R", ("a", "b")), ("S", ("a", "b"))]
        assert epoch == 2

    def test_unary_and_binary_atoms_are_distinct(self, tmp_path):
        with DatasetStore(str(tmp_path)) as store:
            store.save_dataset("", "d", [("A", ("x",)), ("A", ("x", ""))])
            atoms, _, _ = store.load_tenant("").datasets["d"]
        assert sorted(atoms) == [("A", ("x",)), ("A", ("x", ""))]

    def test_delete_dataset_drops_facts_and_subscriptions(self, tmp_path):
        with DatasetStore(str(tmp_path)) as store:
            store.save_dataset("", "d", [("R", ("a", "b"))])
            store.save_subscription("", StoredSubscription(
                subscription_id="s1", dataset="d", tbox_text="P <= R",
                query="R(x, y)", answer_vars=("x",), options={},
                engine="python", epoch=3))
            store.delete_dataset("", "d")
            snap = store.load_tenant("")
        assert not snap.datasets and not snap.subscriptions

    def test_subscription_round_trip(self, tmp_path):
        stored = StoredSubscription(
            subscription_id="sub-1", dataset="demo",
            tbox_text="roles: P, R, S\nP <= S\nP <= R-",
            query="R(x, y), S(y, z)", answer_vars=("x",),
            options={"method": "tw"}, engine="sql", epoch=5)
        with DatasetStore(str(tmp_path)) as store:
            store.save_tbox("t1", "uni", "P <= R")
            store.save_subscription("t1", stored)
            snap = store.load_tenant("t1")
        assert snap.tboxes == {"uni": "P <= R"}
        assert snap.subscriptions == [stored]

    def test_tenant_files_are_separate(self, tmp_path):
        with DatasetStore(str(tmp_path)) as store:
            store.save_dataset("", "d", [("R", ("a", "b"))])
            store.save_dataset("alice", "d", [("R", ("x", "y"))])
            assert store.tenants() == ["", "alice"]
            assert store.load_tenant("").datasets["d"][0] \
                != store.load_tenant("alice").datasets["d"][0]
        assert (tmp_path / "_default.db").exists()
        assert (tmp_path / "alice.db").exists()

    def test_torn_write_rolls_back(self, tmp_path):
        """A transaction interrupted mid-way (process death) must
        leave the previous consistent state, not half an update."""
        with DatasetStore(str(tmp_path)) as store:
            store.save_dataset("", "d", [("R", ("a", "b"))], epoch=1)
        # a raw connection mutates without committing, then "dies"
        raw = sqlite3.connect(str(tmp_path / "_default.db"))
        raw.execute("BEGIN")
        raw.execute("DELETE FROM facts WHERE dataset = 'd'")
        raw.execute("UPDATE datasets SET epoch = 99 WHERE name = 'd'")
        raw.close()  # no commit: rollback
        with DatasetStore(str(tmp_path)) as store:
            atoms, _, epoch = store.load_tenant("").datasets["d"]
        assert atoms == [("R", ("a", "b"))] and epoch == 1

    def test_checkpoint_and_status(self, tmp_path):
        with DatasetStore(str(tmp_path)) as store:
            store.save_dataset("", "d", [("R", ("a", "b"))], epoch=4)
            summary = store.checkpoint()
            assert summary["datasets"] == 1 and summary["epoch"] == 4
            status = store.status()
        assert status["enabled"] and status["writes"] == 1
        assert status["last_checkpoint_epoch"] == 4


class TestWarmRestart:
    """Kill a service, start a fresh one on the same data dir, and the
    world must come back exactly — the tentpole's core differential."""

    def _populate(self, service):
        service.register_tbox("uni", TBOX, tenant="alice")
        service.register_dataset("demo", random_data(1), tenant="alice")
        service.register_dataset("demo", random_data(2), tenant="bob")
        service.register_dataset("plain", random_data(3))  # default tenant
        sub = service.subscribe("demo", OMQ(TBOX, chain_cq("RS")),
                                tenant="alice")
        service.update("demo", inserts=[("R", ("w1", "w2")),
                                        ("S", ("w2", "w3"))],
                       tenant="alice")
        service.update("plain", deletes=list(random_data(3).atoms())[:3])
        return sub

    def _answers(self, service, dataset, tenant=""):
        result = service.answer(dataset, OMQ(TBOX, chain_cq("RS")),
                                tenant=tenant)
        return sorted(list(row) for row in result.answers)

    def test_restart_restores_answers_epochs_and_subscriptions(
            self, tmp_path, caplog):
        service = OMQService(max_workers=2, data_dir=str(tmp_path))
        sub = self._populate(service)
        before = {
            ("demo", "alice"): self._answers(service, "demo", "alice"),
            ("demo", "bob"): self._answers(service, "demo", "bob"),
            ("plain", ""): self._answers(service, "plain"),
        }
        epochs_before = {name: service.stats()["datasets"][name]["epoch"]
                         for name in service.datasets()}
        sub_id, sub_epoch = sub.subscription_id, sub.epoch
        sub_answers = set(sub.answers)
        service.close()
        # the rows as earlier versions wrote them: option keys that no
        # longer exist, and a dataset served over two shards — an
        # upgrade must cost the tenant neither its standing queries nor
        # its data, and restores every dataset monolithic
        with DatasetStore(str(tmp_path)) as store:
            (stored,) = store.load_tenant("alice").subscriptions
            store.delete_subscription("alice", sub_id)
            store.save_subscription("alice", dataclasses.replace(
                stored, options={**stored.options, "magic": True,
                                 "optimize": False, "start_method": None,
                                 "shards": 0}))
        raw = sqlite3.connect(str(tmp_path / "alice.db"))
        with raw:
            raw.execute("UPDATE datasets SET shards = 2")
        raw.close()

        restarted = OMQService(max_workers=2, data_dir=str(tmp_path))
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            counts = restarted.restore()
        try:
            assert counts == {"tenants": 3, "datasets": 3, "tboxes": 1,
                              "subscriptions": 1}
            assert [record.getMessage() for record in caplog.records] == [
                "restore dropped stored setting(s) this version no "
                "longer has: ['magic', 'optimize', 'shards', "
                "'start_method']"]
            for (dataset, tenant), answers in before.items():
                assert self._answers(restarted, dataset, tenant) \
                    == answers, (dataset, tenant)
            epochs_after = {
                name: restarted.stats()["datasets"][name]["epoch"]
                for name in restarted.datasets()}
            assert epochs_after == epochs_before
            # the standing query is re-armed under its original id at
            # the persisted epoch, with its maintained answers intact
            restored = restarted.standing.get(sub_id)
            assert restored.epoch == sub_epoch
            assert set(restored.answers) == sub_answers
            # ... and it keeps maintaining: a fresh update yields a
            # delta strictly after the restored watermark
            restarted.update("demo", inserts=[("R", ("z1", "z2")),
                                              ("S", ("z2", "z3"))],
                             tenant="alice")
            polled = restarted.poll(sub_id, since_epoch=sub_epoch,
                                    tenant="alice")
            assert polled["deltas"], polled
            assert all(delta["epoch"] > sub_epoch
                       for delta in polled["deltas"])
        finally:
            restarted.close()
        # the checkpoint on close rewrote the row without the setting,
        # so the next restart has nothing to warn about
        raw = sqlite3.connect(str(tmp_path / "alice.db"))
        assert raw.execute("SELECT shards FROM datasets").fetchall() \
            == [(0,)]
        raw.close()

    def test_restart_moves_sql_views_subscriptions_to_sql(
            self, tmp_path, caplog):
        """Subscriptions an earlier version stored on the retired
        ``sql-views`` engine (as an option, or as the default engine
        they ran on) and with the retired ``optimize_sql`` option come
        back on ``sql``, under the one restore warning."""
        service = OMQService(max_workers=2, data_dir=str(tmp_path))
        service.register_dataset("d", random_data(1))
        omq = OMQ(TBOX, chain_cq("RS"))
        subs = [service.subscribe("d", omq, engine="sql"),
                service.subscribe("d", omq)]
        expected = set(subs[0].answers)
        service.close()
        with DatasetStore(str(tmp_path)) as store:
            pinned, default = store.load_tenant("").subscriptions
            for stored, changes in (
                    (pinned, {"options": {**pinned.options,
                                          "engine": "sql-views",
                                          "optimize_sql": True}}),
                    (default, {"options": {**default.options,
                                           "optimize_sql": False},
                               "engine": "sql-views"})):
                store.delete_subscription("", stored.subscription_id)
                store.save_subscription(
                    "", dataclasses.replace(stored, **changes))

        restarted = OMQService(max_workers=2, data_dir=str(tmp_path))
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            counts = restarted.restore()
        try:
            assert counts["subscriptions"] == 2
            assert [record.getMessage() for record in caplog.records] == [
                "restore dropped stored setting(s) this version no "
                "longer has: ['optimize_sql', 'sql-views']"]
            for sub in subs:
                restored = restarted.standing.get(sub.subscription_id)
                assert restored.engine == "sql"
                assert set(restored.answers) == expected
        finally:
            restarted.close()

    def test_restart_is_idempotent(self, tmp_path):
        """close() checkpoints; a second restart round-trips the same
        state again (restore → close → restore is a fixed point)."""
        service = OMQService(max_workers=2, data_dir=str(tmp_path))
        self._populate(service)
        expected = self._answers(service, "demo", "alice")
        service.close()
        for _ in range(2):
            service = OMQService(max_workers=2, data_dir=str(tmp_path))
            service.restore()
            assert self._answers(service, "demo", "alice") == expected
            service.close()

    def test_golden_parity_after_restart(self, tmp_path):
        """A warm-restarted service must reproduce the from-scratch
        golden post-update snapshots on every available engine."""
        from .test_golden import _cases, _update_script

        for case, (tbox, abox, queries) in sorted(_cases().items()):
            data_dir = tmp_path / case
            service = OMQService(max_workers=2, data_dir=str(data_dir))
            service.register_dataset("g", abox)
            for step in _update_script(case):
                service.update("g", inserts=step["insert"],
                               deletes=step["delete"])
            service.close()

            golden = json.loads((GOLDEN_DIR / f"{case}.json").read_text())
            restarted = OMQService(max_workers=2, data_dir=str(data_dir))
            restarted.restore()
            try:
                for name, query in sorted(queries.items()):
                    expected = golden["queries"][name]["post_update"]
                    for engine in ENGINES:
                        result = restarted.answer(
                            "g", OMQ(tbox, query), engine=engine)
                        produced = sorted(list(row)
                                          for row in result.answers)
                        assert produced == expected, (case, name, engine)
            finally:
                restarted.close()


def _fold(atoms, script):
    atoms = set(atoms)
    for inserts, deletes in script:
        atoms -= set(deletes)
        atoms |= set(inserts)
    return atoms


_atom_strategy = st.tuples(
    st.sampled_from(["P", "R", "S"]),
    st.tuples(st.sampled_from(["n0", "n1", "n2", "n3"]),
              st.sampled_from(["n0", "n1", "n2", "n3"])))

_script_strategy = st.lists(
    st.tuples(st.lists(_atom_strategy, max_size=4),
              st.lists(_atom_strategy, max_size=4)),
    min_size=1, max_size=5)


class TestCrashRecovery:
    @hypothesis_settings(max_examples=25)
    @given(script=_script_strategy, killed=st.booleans())
    def test_restored_answers_equal_from_scratch_load(
            self, tmp_path_factory, script, killed):
        """Apply a random update script; optionally kill the store so
        the last update never becomes durable.  The reopened store must
        answer exactly like a session loaded from scratch with the
        durable prefix, on every available engine."""
        tmp_path = tmp_path_factory.mktemp("crash")
        base = random_data(5)
        # the service mutates the registered ABox in place; capture
        # the baseline before any update touches it
        base_atoms = list(base.atoms())
        service = OMQService(max_workers=1, data_dir=str(tmp_path))
        service.register_dataset("d", base)
        durable = script if not killed else script[:-1]
        for inserts, deletes in durable:
            service.update("d", inserts=inserts, deletes=deletes)
        if killed:
            # the process dies mid-update: the in-memory write happens
            # but nothing of it reaches disk (the store transaction
            # never commits, so recovery sees the previous state)
            def crash(*args, **kwargs):
                raise sqlite3.OperationalError("simulated crash")

            inserts, deletes = script[-1]
            service.store.apply_delta = crash
            service.store.save_dataset = crash
            service.update("d", inserts=inserts, deletes=deletes)
        # abrupt stop: close the pools without checkpointing
        service.store.close()
        service.store = None
        service.close()

        restarted = OMQService(max_workers=1, data_dir=str(tmp_path))
        restarted.restore()
        expected_atoms = _fold(base_atoms, durable)
        omq = OMQ(TBOX, chain_cq("RS"))
        try:
            scratch = ABox()
            for predicate, args in sorted(expected_atoms):
                scratch.add(predicate, *args)
            for engine in ENGINES:
                with AnswerSession(scratch, engine=engine) as session:
                    expected = sorted(
                        list(row)
                        for row in session.answer(omq).answers)
                result = restarted.answer("d", omq, engine=engine)
                assert sorted(list(row) for row in result.answers) \
                    == expected, engine
        finally:
            restarted.close()


class TestServiceStorageSurface:
    def test_storage_disabled_by_default(self):
        service = OMQService(max_workers=1)
        try:
            assert service.store is None
            assert service.storage_status() == {"enabled": False}
            assert service.restore() == {"tenants": 0, "datasets": 0,
                                         "tboxes": 0, "subscriptions": 0}
            assert service.snapshot() == {"enabled": False, "datasets": 0}
        finally:
            service.close()

    def test_write_failures_never_fail_requests(self, tmp_path):
        """Durability is best-effort per request: a broken store is
        absorbed (and counted) rather than surfaced to the caller."""
        service = OMQService(max_workers=1, data_dir=str(tmp_path))
        try:
            def boom(*args, **kwargs):
                raise sqlite3.OperationalError("disk on fire")

            service.store.save_dataset = boom
            service.store.apply_delta = boom
            service.register_dataset("d", random_data(1))
            service.update("d", inserts=[("R", ("a", "b"))])
            assert service.storage_status()["write_errors"] >= 2
            result = service.answer("d", OMQ(TBOX, chain_cq("RS")))
            assert result.answers is not None
        finally:
            service.close()

    def test_unregister_removes_durable_state(self, tmp_path):
        service = OMQService(max_workers=1, data_dir=str(tmp_path))
        service.register_dataset("d", random_data(1), tenant="t1")
        service.unregister_dataset("d", tenant="t1")
        service.close()
        restarted = OMQService(max_workers=1, data_dir=str(tmp_path))
        counts = restarted.restore()
        try:
            assert counts["datasets"] == 0
            assert restarted.datasets(tenant="t1") == ()
        finally:
            restarted.close()

    def test_stats_and_health_carry_storage_block(self, tmp_path):
        service = OMQService(max_workers=1, data_dir=str(tmp_path))
        try:
            storage = service.stats()["storage"]
            assert storage["enabled"]
            assert storage["data_dir"] == str(tmp_path)
        finally:
            service.close()
