"""The update sequence's stage x failure matrix.

``repro.service.dataset.Dataset.apply`` runs a fixed list of stages and
promises that a fault costs a disposable part — this update, a
subscription's freshness, a store write — never the dataset.  Each row
of :data:`FAULTS` injects one failure (patching the stage method, or
the store / maintain call inside it, *is* the injection point) and
:func:`check_blast_radius` asserts what README's table says it costs,
with and without a store.

Beside the matrix: an update that raced ``register_dataset(replace=
True)`` lands on the live dataset, not the orphan, and one already
running on the orphan reaches neither the replacement's subscribers
nor, in the end, its store rows; and tenant fact accounting follows
the ABox when an update fails halfway.
"""

import contextlib
import threading
from typing import Callable, NamedTuple

import pytest

from repro import ABox, AnswerSession, OMQ
from repro.queries import chain_cq
from repro.service import OMQService
from repro.service import service as service_module
from repro.service.dataset import Dataset
from repro.standing import AnswerDelta

from .helpers import example11_tbox, random_data

TBOX = example11_tbox()
OMQS = (OMQ(TBOX, chain_cq("RS")), OMQ(TBOX, chain_cq("SR")))
#: moves the answers of both standing queries
FAULTED = [("R", ("x1", "x2")), ("S", ("x2", "x3")), ("R", ("x3", "x4"))]
CLEAN = [("R", ("y1", "y2")), ("S", ("y2", "y3")), ("R", ("y3", "y4"))]


def _raise_once(real, error="injected fault"):
    """``real`` with its first call replaced by a raise."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError(error)
        return real(*args, **kwargs)

    return wrapper


def _boom(*args, **kwargs):
    raise RuntimeError("injected fault")


class Fault(NamedTuple):
    """One row: what is patched, and what that must cost."""

    #: the stage of ``Dataset.STAGES`` the failure is injected in
    stage: str
    #: ``inject(monkeypatch, service, dataset)`` arms the failure
    inject: Callable
    #: the update raises (and recovers) / succeeds
    raises: bool
    #: how many of the subscriptions end up ``stale`` (the rest must
    #: equal a fresh answer): ``"none"``, ``"one"``, ``"all"``
    stale: str
    #: store writes lost — such a row needs a durable service
    write_errors: int = 0


def _stage_raises(stage):
    def inject(monkeypatch, service, dataset):
        name = "_" + stage
        monkeypatch.setattr(dataset, name,
                            _raise_once(getattr(dataset, name)))
    return inject


def _store_call_fails(*methods):
    def inject(monkeypatch, service, dataset):
        for method in methods:
            monkeypatch.setattr(
                service.store, method,
                _raise_once(getattr(service.store, method)))
    return inject


def _one_refresh_fails(monkeypatch, service, dataset):
    from repro.service import dataset as module

    monkeypatch.setattr(module, "refresh", _raise_once(module.refresh))


def _pass_fails(monkeypatch, service, dataset):
    monkeypatch.setattr(service.standing, "affected",
                        _raise_once(service.standing.affected))


def _patch_then_resync_fails(monkeypatch, service, dataset):
    _stage_raises("patch")(monkeypatch, service, dataset)
    monkeypatch.setattr("repro.service.dataset.full_reexecute", _boom)


FAULTS = {
    # a stage method raises: the update fails, the dataset recovers
    "patch-raises": Fault("patch", _stage_raises("patch"), True, "none"),
    "store-raises": Fault("store", _stage_raises("store"), True, "none"),
    "standing-raises": Fault("standing", _stage_raises("standing"), True,
                             "none"),
    # ...and the recovery's own resync fails for every subscription
    "patch-raises+resync-fails": Fault(
        "patch", _patch_then_resync_fails, True, "all"),
    # failures the stages absorb: the update succeeds
    "store-delta-fails": Fault(
        "store", _store_call_fails("apply_delta"), False, "none",
        write_errors=1),
    "store-delta-and-fallback-fail": Fault(
        "store", _store_call_fails("apply_delta", "save_dataset"), False,
        "none", write_errors=2),
    "standing-one-refresh-fails": Fault(
        "standing", _one_refresh_fails, False, "one"),
    "standing-pass-fails": Fault("standing", _pass_fails, False, "all"),
}


def _fresh_answers(abox, omq):
    with AnswerSession(ABox(abox.atoms())) as session:
        return session.answer(omq).answers


def _restored(data_dir):
    """A second service warm-loaded from the store as it is on disk
    right now; stopped abruptly so it writes nothing back."""
    service = OMQService(max_workers=1, data_dir=data_dir)
    service.restore()

    @contextlib.contextmanager
    def scope():
        try:
            yield service
        finally:
            service.store.close()
            service.store = None
            service.close()

    return scope()


def check_blast_radius(service, subs, data_dir, expect_stale):
    """What every row must leave behind, whatever failed."""
    dataset = service._dataset("d")
    stats = service.stats()
    for omq, sub in zip(OMQS, subs):
        # the dataset still answers, from whatever its ABox now holds
        answers = service.answer("d", omq).answers
        assert answers == _fresh_answers(dataset.abox, omq)
        # every subscriber is resynced to that answer or says "stale"
        body = service.poll(sub.subscription_id)
        snapshot = service.standing.snapshot(sub.subscription_id)
        assert body["stale"] == snapshot["stale"] == sub.stale
        if not sub.stale:
            assert sub.answers == answers
            assert sub.epoch == dataset.epoch
    assert sum(sub.stale for sub in subs) == expect_stale
    # the tenant's account follows the ABox
    assert (stats["tenants"]["per_tenant"]["default"]["facts"]
            == stats["datasets"]["d"]["facts"] == len(dataset.abox))
    if data_dir is not None:
        # the store restores to the same answers at the same epoch
        with _restored(data_dir) as restored:
            assert (restored.stats()["datasets"]["d"]["epoch"]
                    == dataset.epoch)
            for omq in OMQS:
                assert (restored.answer("d", omq).answers
                        == service.answer("d", omq).answers)


#: fault x {memory, durable} on a monolithic dataset; a store write can
#: only fail on a durable service
MATRIX = [pytest.param(fault, durable, id=f"{fault}-monolithic-{kind}")
          for fault, row in sorted(FAULTS.items())
          for durable, kind in ((False, "memory"), (True, "durable"))
          if durable or not row.write_errors]


@pytest.mark.parametrize("fault, durable", MATRIX)
def test_stage_failure_matrix(fault, durable, tmp_path, monkeypatch):
    row = FAULTS[fault]
    assert row.stage in Dataset.STAGES
    data_dir = str(tmp_path) if durable else None
    service = OMQService(max_workers=2, data_dir=data_dir)
    try:
        service.register_dataset("d", random_data(1))
        subs = [service.subscribe("d", omq) for omq in OMQS]
        # a warm update first: sessions loaded, epoch 1, store rows live
        service.update("d", inserts=[("P", ("w1", "w2"))])
        dataset = service._dataset("d")
        before = dataset.epoch

        row.inject(monkeypatch, service, dataset)
        if row.raises:
            with pytest.raises(RuntimeError, match="injected fault"):
                service.update("d", inserts=FAULTED)
        else:
            result = service.update("d", inserts=FAULTED)
            assert result.inserted == len(FAULTED)
            assert result.epoch == dataset.epoch
        assert dataset.epoch > before
        if row.raises and row.stale == "none":
            # the failure epoch carried a proactive resync delta
            for sub in subs:
                body = service.poll(sub.subscription_id,
                                    since_epoch=before)
                deltas = [AnswerDelta.from_payload(raw)
                          for raw in body["deltas"]]
                assert any(delta.resync for delta in deltas)
            assert service.stats()["standing"]["resyncs"] >= len(subs)
        if durable:
            assert (service.storage_status()["write_errors"]
                    == row.write_errors)
            if row.write_errors == 2:
                # both writes of the epoch were lost: the store lags
                # until the next snapshot folds the drift back in
                assert service.snapshot() == {"enabled": True,
                                              "datasets": 1}
        expect_stale = {"none": 0, "one": 1, "all": len(subs)}[row.stale]
        check_blast_radius(service, subs, data_dir, expect_stale)

        # the next clean update maintains normally and heals the stale
        monkeypatch.undo()
        service.update("d", inserts=CLEAN)
        check_blast_radius(service, subs, data_dir, 0)
        for sub in subs:
            body = service.poll(sub.subscription_id,
                                since_epoch=dataset.epoch - 1)
            assert not body["stale"] and not body["resync"]
    finally:
        service.close()


# -- an update racing a replace ---------------------------------------------


def test_update_that_looked_up_a_replaced_dataset_lands_on_the_live_one(
        tmp_path, monkeypatch):
    omq = OMQS[0]
    service = OMQService(max_workers=2, data_dir=str(tmp_path))
    try:
        service.register_dataset("d", ABox([("R", ("a", "b"))]))
        service.answer("d", omq)
        orphan = service._dataset("d")
        service.register_dataset("d", random_data(1), replace=True)
        sub = service.subscribe("d", omq)

        # the race, made deterministic: the update's registry lookup
        # happened just before the replace and returns the orphan
        lookup = service._dataset
        stale = [orphan]
        monkeypatch.setattr(
            service, "_dataset",
            lambda name: stale.pop() if stale else lookup(name))
        insert = [("R", ("x1", "x2")), ("S", ("x2", "x3"))]
        result = service.update("d", inserts=insert)
        monkeypatch.undo()

        assert not stale and result.inserted == 2
        live = service._dataset("d")
        assert all(atom in live.abox for atom in insert)
        assert not any(atom in orphan.abox for atom in insert)
        # nothing was rebuilt on the closed orphan
        assert orphan.all_sessions() == [] and orphan.epoch == 0
        assert ("x1", "x3") in sub.answers and not sub.stale
        assert sub.answers == service.answer("d", omq).answers
        assert sub.epoch == live.epoch == result.epoch == 1
        with _restored(str(tmp_path)) as restored:
            assert restored.stats()["datasets"]["d"]["epoch"] == 1
            assert (restored.answer("d", omq).answers
                    == service.answer("d", omq).answers)
    finally:
        service.close()


def test_update_on_a_replaced_dataset_leaves_the_new_subscriber_alone():
    """The other half of the race: the update validated, *then* the
    dataset was replaced and a client subscribed to the replacement
    while the update was still running on the orphan.  The registry
    files both under the name; the subscription belongs to the object
    it was materialized against."""
    omq = OMQS[0]
    with OMQService(max_workers=2) as service:
        service.register_dataset("d", ABox([("R", ("a", "b"))]))
        gone = service.subscribe("d", omq)
        old = service._dataset("d")
        service.register_dataset("d", random_data(1), replace=True)
        assert gone.closed
        sub = service.subscribe("d", omq)
        answers, history = sub.answers, list(sub.history)

        with old.lock.writing():
            result = old.apply([("R", ("x1", "x2")),
                                ("S", ("x2", "x3"))], [])

        assert result.inserted == 2 and old.epoch == 1
        assert (sub.answers, sub.epoch, list(sub.history), sub.stale) \
            == (answers, 0, history, False)
        assert answers == _fresh_answers(service._dataset("d").abox, omq)
        # nothing was evaluated, so no session pool was built, on the
        # orphan: nobody is left to close one
        assert old.all_sessions() == []
        # ...and a failing update on it does not mark the live ones
        old._patch = _boom
        with old.lock.writing(), pytest.raises(RuntimeError):
            old.apply([("R", ("x5", "x6"))], [])
        assert not sub.stale and sub.epoch == 0
        assert old.all_sessions() == []


def test_an_update_parked_on_a_replaced_dataset_leaves_no_store_residue(
        tmp_path, monkeypatch):
    """The store rows are keyed by name, so the orphan's ``store``
    delta and the replacement's first save write the same rows.  The
    replace retires the orphan, draining its write lock, before it
    saves: the update parked in the orphan's ``patch`` writes first and
    is overwritten, and the rows on disk are the replacement's."""
    service = OMQService(max_workers=2, data_dir=str(tmp_path))
    try:
        service.register_dataset("d", ABox([("R", ("a", "b"))]))
        orphan = service._dataset("d")
        parked, release = threading.Event(), threading.Event()
        patch = orphan._patch

        def park(update):
            parked.set()
            release.wait(10)
            patch(update)

        monkeypatch.setattr(orphan, "_patch", park)
        results = []
        updater = threading.Thread(target=lambda: results.append(
            service.update("d", inserts=[("R", ("x1", "x2"))])))
        updater.start()
        assert parked.wait(10)
        replacement = random_data(1)
        replace = threading.Thread(
            target=service.register_dataset, args=("d", replacement),
            kwargs={"replace": True})
        replace.start()
        while service._dataset("d") is orphan:
            replace.join(0.01)
        # swapped in the registry, and the retire is waiting on the
        # parked update's write lock
        replace.join(0.1)
        assert replace.is_alive()
        release.set()
        updater.join(10)
        replace.join(10)
        assert not updater.is_alive() and not replace.is_alive()
        (result,) = results
        assert result.inserted == 1 and orphan.epoch == 1

        live = service._dataset("d")
        assert set(live.abox.atoms()) == set(replacement.atoms())
        with _restored(str(tmp_path)) as restored:
            assert (set(restored._dataset("d").abox.atoms())
                    == set(replacement.atoms()))
            assert restored.stats()["datasets"]["d"]["epoch"] == live.epoch
    finally:
        service.close()


def test_retiring_a_dataset_drops_its_subscriptions_and_no_others(
        monkeypatch):
    """``register_dataset(replace=True)`` swaps the registry entry and
    then retires the old object.  A subscription to the replacement
    made in between is not the old object's to close; one that was
    being materialized on the old object when the swap happened is."""
    omq = OMQS[0]
    with OMQService(max_workers=2) as service:
        service.register_dataset("d", ABox([("R", ("a", "b"))]))
        old_sub = service.subscribe("d", omq)
        early = []
        retire = service._retire

        def subscribe_then_retire(dataset):
            early.append(service.subscribe("d", omq))
            retire(dataset)

        monkeypatch.setattr(service, "_retire", subscribe_then_retire)
        service.register_dataset("d", random_data(1), replace=True)
        monkeypatch.undo()
        (new_sub,) = early
        assert old_sub.closed and not new_sub.closed
        assert service.poll(new_sub.subscription_id)["epoch"] == 0
        service.update("d", inserts=FAULTED)
        assert new_sub.epoch == 1 and ("x1", "x3") in new_sub.answers

        # a subscribe in flight on the object being replaced: it holds
        # the read lock, the swap happens, the retire waits for it
        replace = threading.Thread(
            target=service.register_dataset,
            args=("d", random_data(2)), kwargs={"replace": True})
        initialize = service_module.initialize

        def initialize_then_replace(sub, session):
            initialize(sub, session)
            live = service._dataset("d")
            replace.start()
            while service._dataset("d") is live:
                replace.join(0.01)
                assert replace.is_alive()

        monkeypatch.setattr(service_module, "initialize",
                            initialize_then_replace)
        late = service.subscribe("d", omq)
        monkeypatch.undo()
        replace.join(10)
        assert not replace.is_alive()
        # it materialized data that is gone: closed with it, not left
        # in the registry where no update would ever reach it
        assert late.closed and new_sub.closed
        assert service.standing.count() == 0
        assert (service.stats()["tenants"]["per_tenant"]["default"]
                ["subscriptions"] == 0)


# -- tenant accounting on a failed update ------------------------------------


def test_tenant_facts_follow_the_abox_when_a_backend_rejects_its_delta():
    """The ABox took the whole delta before a loaded backend refused
    its share."""
    omq = OMQS[0]
    with OMQService() as service:
        service.register_dataset("d", ABox([("R", ("a", "b"))]))
        service.answer("d", omq)
        (session,) = service._dataset("d").all_sessions()
        for _, backend in session.loaded_backends():
            backend.apply_delta = _boom
        with pytest.raises(RuntimeError, match="injected fault"):
            service.update("d", inserts=[("S", ("b", "c"))])
        stats = service.stats()
        assert stats["datasets"]["d"]["facts"] == 2
        assert stats["tenants"]["per_tenant"]["default"]["facts"] == 2
        # the failed attempt is versioned but not counted as an update
        assert stats["datasets"]["d"]["epoch"] == 1
        assert stats["datasets"]["d"]["updates"] == stats["updates"] == 0
        # the sessions that missed the delta were dropped: the next
        # answer is rebuilt from the ABox
        assert ("a", "c") in service.answer("d", omq).answers
