"""Standing queries: answer maintenance and push delivery.

The contract under test (see :mod:`repro.standing`): a subscriber's
maintained answer set must equal the certain answers over the data as
it is after *every* update, and the deltas it receives must be exactly
the difference between consecutive materializations.  The property
suites drive random insert/delete sequences through every available
engine and every rewriter and check both invariants
against oracles that share nothing with the maintained route — the
chase, and a session loaded from scratch over a copy of the atoms;
the serving tests cover long-poll end to end over HTTP on both
clients, plus the epoch in the update response and the parked-poll
429.
"""

import asyncio
import http.client
import json
import sys
import threading
import time
from urllib.parse import urlparse

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    ENGINES,
    OMQ,
    AsyncClient,
    Client,
    ServiceError,
    certain_answers,
)
from repro.data import ABox
from repro.datalog.evaluate import materialise
from repro.datalog.program import ADOM
from repro.engine.database import build_index
from repro.ontology import TBox
from repro.queries import CQ, chain_cq
from repro.rewriting import AnswerSession
from repro.rewriting.plan import Plan
from repro.service import OMQService, serve_in_background
from repro.standing import AnswerDelta
from repro.standing import maintain

from .helpers import (
    example11_tbox,
    hypothesis_settings,
    random_data,
)

TBOX = example11_tbox()
SETTINGS = hypothesis_settings(20)

NAMES = tuple(f"n{i}" for i in range(6))
BINARY = ("P", "R", "S")
UNARY = ("A_P", "A_P-")


# ---------------------------------------------------------------------------
# property: maintained answers == from-scratch execution


@st.composite
def update_scripts(draw):
    """A short sequence of insert/delete steps over a small universe.

    Deletions pick from a pool that overlaps the likely-present atoms,
    so both effective and no-op deletes occur.
    """
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        inserts = []
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                inserts.append((draw(st.sampled_from(BINARY)),
                                (draw(st.sampled_from(NAMES)),
                                 draw(st.sampled_from(NAMES)))))
            else:
                inserts.append((draw(st.sampled_from(UNARY)),
                                (draw(st.sampled_from(NAMES)),)))
        deletes = []
        for _ in range(draw(st.integers(0, 2))):
            deletes.append((draw(st.sampled_from(BINARY)),
                            (draw(st.sampled_from(NAMES)),
                             draw(st.sampled_from(NAMES)))))
        steps.append((tuple(inserts), tuple(deletes)))
    return tuple(steps)


QUERIES = (
    chain_cq("RS"),
    chain_cq("RSR"),
    CQ.parse("A_P(x)", answer_vars=["x"]),
    CQ.parse("R(x, y), S(y, z)", answer_vars=["x", "z"]),
    CQ.parse("R(x, y), S(u, v)", answer_vars=["x", "u"]),  # disconnected
)


#: the rewriters whose plans the monolithic suite maintains
METHODS = ("lin", "log", "tw", "ucq")


def _oracle(abox, query):
    """The certain answers over ``abox`` as it is now, by two routes
    that share nothing with maintenance: the chase, and a session that
    loads a copy of the atoms from scratch (``service.answer`` would
    not do — it is ``Plan.execute`` over the same patched session the
    subscriptions were refreshed on)."""
    atoms = ABox(abox.atoms())
    expected = certain_answers(TBOX, atoms, query)
    with AnswerSession(atoms) as session:
        assert session.answer(OMQ(TBOX, query)).answers == expected
    return expected


def _drive_and_check(service, dataset, subs, script):
    """Apply the script; after each step every subscription's
    maintained answers must equal the oracle's, and its polled deltas
    must replay to the same set."""
    replayed = {sid: set(sub.answers) for sid, (sub, _) in subs.items()}
    epochs = {sid: sub.epoch for sid, (sub, _) in subs.items()}
    abox = service._dataset(dataset).abox
    for sub, query in subs.values():
        assert sub.answers == _oracle(abox, query)
    for inserts, deletes in script:
        service.update(dataset, inserts=inserts, deletes=deletes)
        for sid, (sub, query) in subs.items():
            expected = _oracle(abox, query)
            assert sub.answers == expected, (
                f"maintained != from-scratch after "
                f"+{inserts} -{deletes}")
            body = service.poll(sid, since_epoch=epochs[sid])
            assert not body["resync"]
            for raw in body["deltas"]:
                delta = AnswerDelta.from_payload(raw)
                assert not (delta.added & replayed[sid])
                assert delta.removed <= replayed[sid]
                replayed[sid] |= delta.added
                replayed[sid] -= delta.removed
            epochs[sid] = body["epoch"]
            assert replayed[sid] == expected, "deltas do not replay"


def _subscribe_all(service, dataset, engine=None, method=None):
    """``{id: (subscription, query)}``, one per query of
    :data:`QUERIES` (the disconnected one keeps the default rewriter:
    ``lin`` and ``tw`` need a tree)."""
    subs = {}
    for query in QUERIES:
        sub = service.subscribe(
            dataset, OMQ(TBOX, query), engine=engine,
            method=method if query.is_connected else None)
        subs[sub.subscription_id] = (sub, query)
    return subs


class TestMaintenanceDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    @SETTINGS
    @given(script=update_scripts(), seed=st.integers(0, 5),
           method=st.sampled_from(METHODS))
    def test_monolithic_matches_from_scratch(self, engine, script, seed,
                                             method):
        service = OMQService(default_engine=engine)
        try:
            service.register_dataset("d", random_data(seed, atoms=14))
            subs = _subscribe_all(service, "d", engine=engine,
                                  method=method)
            _drive_and_check(service, "d", subs, script)
        finally:
            service.close()

    def test_counters_track_maintenance(self):
        service = OMQService()
        try:
            service.register_dataset("d", random_data(1))
            sub = service.subscribe("d", OMQ(TBOX, chain_cq("RS")))
            service.update("d", inserts=[("P", ("x1", "x2"))])
            stats = service.stats()["standing"]
            assert stats["subscriptions"] == 1
            assert stats["deltas_pushed"] >= 1
            assert stats["maintenance_seconds"] > 0
            assert service.stats()["datasets"]["d"]["epoch"] == 1
            assert sub.epoch == 1
        finally:
            service.close()


# ---------------------------------------------------------------------------
# poll semantics: watermarks, history bounds, resync


class TestPollSemantics:
    def _service(self):
        service = OMQService()
        service.register_dataset("d", random_data(1))
        return service

    def test_poll_default_watermark_sees_only_future(self):
        service = self._service()
        try:
            sub = service.subscribe("d", OMQ(TBOX, chain_cq("RS")))
            service.update("d", inserts=[("P", ("x1", "x2"))])
            # polling from the *current* watermark returns nothing
            body = service.poll(sub.subscription_id)
            assert body["deltas"] == [] and not body["resync"]
        finally:
            service.close()

    def test_poll_blocks_until_delta(self):
        service = self._service()
        try:
            sub = service.subscribe("d", OMQ(TBOX, chain_cq("RS")))

            def later():
                time.sleep(0.15)
                service.update("d", inserts=[("P", ("x1", "x2"))])

            thread = threading.Thread(target=later)
            thread.start()
            started = time.monotonic()
            body = service.poll(sub.subscription_id, since_epoch=0,
                                timeout=5.0)
            elapsed = time.monotonic() - started
            thread.join()
            assert body["deltas"], "poll returned without the delta"
            assert elapsed < 5.0
        finally:
            service.close()

    def test_history_eviction_forces_resync(self):
        service = self._service()
        try:
            service.standing.history_limit = 2
            sub = service.subscribe("d", OMQ(TBOX, chain_cq("RS")))
            for i in range(5):
                service.update("d", inserts=[("P", (f"h{i}", f"h{i+1}"))])
            body = service.poll(sub.subscription_id, since_epoch=0)
            assert body["resync"]
            answers = frozenset(tuple(row) for row in body["answers"])
            assert answers == sub.answers
            assert service.stats()["standing"]["resyncs"] >= 1
        finally:
            service.close()

    def test_unsubscribe_wakes_blocked_poller(self):
        service = self._service()
        try:
            sub = service.subscribe("d", OMQ(TBOX, chain_cq("RS")))
            caught = []

            def poller():
                try:
                    service.poll(sub.subscription_id, since_epoch=0,
                                 timeout=30.0)
                except ValueError as error:
                    caught.append(error)

            thread = threading.Thread(target=poller)
            thread.start()
            time.sleep(0.1)
            service.unsubscribe(sub.subscription_id)
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "poller still parked"
            assert caught, "closed subscription should raise"
        finally:
            service.close()

    def test_replace_dataset_closes_subscriptions(self):
        service = self._service()
        try:
            sub = service.subscribe("d", OMQ(TBOX, chain_cq("RS")))
            service.register_dataset("d", random_data(2), replace=True)
            with pytest.raises(ValueError):
                service.poll(sub.subscription_id)
            assert sub.closed
        finally:
            service.close()


# ---------------------------------------------------------------------------
# end-to-end over HTTP


@pytest.fixture
def served_stack():
    service = OMQService()
    service.register_dataset("demo", random_data(1))
    with serve_in_background(service) as handle:
        yield service, handle.url
    service.close()


class TestBlockingClientServing:
    def test_update_response_carries_epoch(self, served_stack):
        _, url = served_stack
        client = Client.connect(url)
        body = client.update("demo", inserts=[("P", ("e1", "e2"))])
        assert body["epoch"] == 1
        body = client.update("demo", deletes=[("P", ("e1", "e2"))])
        assert body["epoch"] == 2
        client.close()

    def test_subscribe_poll_unsubscribe_round_trip(self, served_stack):
        service, url = served_stack
        client = Client.connect(url)
        omq = OMQ(TBOX, chain_cq("RS"))
        with client.subscribe("demo", omq) as sub:
            assert sub.answers == client.answer("demo", omq).answers
            client.update("demo", inserts=[("P", ("w1", "w2"))])
            deltas = sub.poll(timeout=5.0)
            assert deltas and sub.epoch == 1
            assert sub.answers == client.answer("demo", omq).answers
        # the context manager unsubscribed
        with pytest.raises(ServiceError):
            sub.poll()
        client.close()

    def test_poll_past_history_resyncs_both_clients(self, served_stack):
        """A watermark older than the retained history comes back as
        one ``resync`` delta carrying the whole answer set, on the
        blocking and the asyncio subscription alike."""
        service, url = served_stack
        service.standing.history_limit = 1
        omq = OMQ(TBOX, chain_cq("RS"))
        # an AsyncClient's pool holds no loop state: one client may
        # serve one asyncio.run after another
        client, aclient = Client.connect(url), AsyncClient.connect(url)
        try:
            blocking = client.subscribe("demo", omq)
            asynchronous = asyncio.run(aclient.subscribe("demo", omq))
            for i in range(3):
                client.update("demo", inserts=[("P", (f"h{i}", f"h{i+1}"))])
            expected = client.answer("demo", omq).answers
            epoch = client.stats()["datasets"]["demo"]["epoch"]
            assert epoch == 3
            for sub, deltas in ((blocking, blocking.poll()),
                                (asynchronous,
                                 asyncio.run(asynchronous.poll()))):
                assert [delta.resync for delta in deltas] == [True]
                assert deltas[0].answers == sub.answers == expected
                assert sub.epoch == epoch
        finally:
            client.close()
            asyncio.run(aclient.close())


class TestFailedUpdateRecovery:
    """A failed update may leave the data partially applied; the
    subscribers must not be left serving a materialization that no
    longer reflects it (there may never be a next update) — the
    resync and ``stale`` rows of ``tests/test_service_faults.py``.
    What stays here is the other way a materialization can silently
    go wrong: a predicate's emptiness flipping under a pruned plan."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_emptiness_flip_reaches_subscription_and_held_plan(self,
                                                               engine):
        """``A`` holds no fact when the query is subscribed and the
        plan compiled, so every clause over it is pruned from what
        runs; its first fact (and its last one going) must still reach
        the standing query and a plan held across the update."""
        tbox = TBox.parse("roles: R\nB <= A")
        omq = OMQ(tbox, CQ.parse("A(x), R(x,y)", answer_vars=["x", "y"]))

        def polled(service, sub, since):
            body = service.poll(sub.subscription_id, since_epoch=since)
            assert not body["stale"]
            return [AnswerDelta.from_payload(raw)
                    for raw in body["deltas"]]

        with OMQService() as service:
            service.register_dataset("d", ABox.parse("R(a,b)"))
            sub = service.subscribe("d", omq, engine=engine)
            assert sub.answers == frozenset()
            service.update("d", inserts=[("A", ("a",))])
            assert [delta.added for delta in polled(service, sub, 0)] == [
                {("a", "b")}]
            assert service.answer("d", omq, engine=engine).answers == {
                ("a", "b")}
            service.update("d", deletes=[("A", ("a",))])
            assert [delta.removed for delta in polled(service, sub, 1)] == [
                {("a", "b")}]
        with AnswerSession(ABox.parse("R(a,b)"), engine=engine) as session:
            plan = session.compile(omq)
            assert plan.execute(session).answers == frozenset()
            session.apply_update(inserts=[("A", ("a",))])
            assert plan.execute(session).answers == {("a", "b")}
            session.apply_update(deletes=[("A", ("a",))])
            assert plan.execute(session).answers == frozenset()


class TestOneRoute:
    """Maintenance refreshes each distinct plan once per pass; on the
    SQLite engine that is ``Plan.execute`` over the patched session,
    the route that serves ``/answer``."""

    def test_subscriber_options_reach_maintenance(self, monkeypatch):
        """``engine="sql"`` at subscribe is what the snapshot and every
        later refresh run on, as ``/answer`` would."""
        from repro.sql import engine as sql_engine

        compiled = []
        compile_query = sql_engine.compile_query

        def spy(query):
            compiled.append(query.goal)
            return compile_query(query)

        monkeypatch.setattr(sql_engine, "compile_query", spy)
        omq = OMQ(TBOX, chain_cq("RS"))
        with OMQService() as service:
            service.register_dataset("d", ABox.parse("R(a,b), S(b,c)"))
            sub = service.subscribe("d", omq, engine="sql")
            assert len(compiled) == 1
            # P's first fact puts A_P- in the nonempty signature: the
            # plan is re-specialised, so the refresh compiles again
            service.update("d", inserts=[("P", ("c", "d"))])
            assert sub.answers == {("a", "c"), ("d", "d")}
            assert len(compiled) == 2

    def test_one_execute_per_distinct_plan(self, monkeypatch):
        """Five renamings of one shape and one other shape: a watched
        update refreshes two plan groups, not six subscriptions."""
        from repro.service import dataset as dataset_module

        executed = []
        refresh = dataset_module.refresh

        def spy(view, sub, session):
            executed.append(sub.plan.fingerprint)
            return refresh(view, sub, session)

        with OMQService() as service:
            service.register_dataset("d", random_data(1))
            subs = [service.subscribe("d", OMQ(TBOX, CQ.parse(
                        f"R(x{i}, y{i}), S(y{i}, z{i})",
                        answer_vars=[f"x{i}", f"z{i}"])))
                    for i in range(5)]
            subs.append(service.subscribe("d", OMQ(TBOX, chain_cq("SR"))))
            monkeypatch.setattr(dataset_module, "refresh", spy)
            service.update("d", inserts=[("R", ("o1", "o2")),
                                         ("S", ("o2", "o3")),
                                         ("R", ("o3", "o4"))])
            monkeypatch.undo()
            assert len(executed) == len(set(executed)) == 2
            assert set(executed) == {sub.plan.fingerprint for sub in subs}
            abox = service._dataset("d").abox
            for sub in subs[:5]:
                assert sub.epoch == 1 and ("o1", "o3") in sub.answers
                assert sub.answers == _oracle(abox, chain_cq("RS"))
            assert subs[5].answers == _oracle(abox, chain_cq("SR"))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_predicate_emptiness_flip(self, engine):
        """``B`` and ``R`` hold no fact at subscribe, so the program
        that runs then mentions neither; the subscription is indexed
        by its *rewriting's* predicates, so the first fact of each, in
        its own update, still wakes it, and each delta is exact."""
        tbox = TBox.parse("roles: R\nB <= A")
        omq = OMQ(tbox, CQ.parse("A(x), R(x,y)", answer_vars=["x", "y"]))
        script = (
            ({"inserts": [("R", ("a", "b")), ("R", ("c", "d"))]},
             {("a", "b")}, set()),
            ({"inserts": [("B", ("c",))]}, {("c", "d")}, set()),
            ({"deletes": [("B", ("c",))]}, set(), {("c", "d")}),
            ({"deletes": [("R", ("a", "b")), ("R", ("c", "d"))]},
             set(), {("a", "b")}),
        )
        with OMQService() as service:
            service.register_dataset("d", ABox.parse("A(a)"))
            sub = service.subscribe("d", omq, engine=engine)
            assert sub.answers == frozenset()
            for epoch, (step, added, removed) in enumerate(script):
                service.update("d", **step)
                body = service.poll(sub.subscription_id,
                                    since_epoch=epoch)
                assert not body["stale"] and not body["resync"]
                (delta,) = [AnswerDelta.from_payload(raw)
                            for raw in body["deltas"]]
                assert (delta.added, delta.removed) == (added, removed)
            assert sub.answers == frozenset()


# ---------------------------------------------------------------------------
# the retained views: delta clauses keep them exact


@st.composite
def delta_scripts(draw):
    """Updates over a small universe that hands out fresh individuals
    too: pure inserts, pure deletes and mixed steps, with atoms that
    repeat inside a step and deletes of atoms that are not there."""
    names = NAMES + ("f0", "f1")

    def atom():
        if draw(st.booleans()):
            return (draw(st.sampled_from(BINARY)),
                    (draw(st.sampled_from(names)),
                     draw(st.sampled_from(names))))
        return (draw(st.sampled_from(UNARY)), (draw(st.sampled_from(names)),))

    steps = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("insert", "delete", "mixed")))
        inserts = [atom() for _ in range(draw(st.integers(0, 3)))]
        deletes = [atom() for _ in range(draw(st.integers(0, 3)))]
        if inserts and draw(st.booleans()):
            inserts.append(inserts[0])
        if kind == "insert":
            deletes = []
        elif kind == "delete":
            # what the last step inserted, mostly: effective deletes
            deletes += list(steps[-1][0]) if steps else []
            inserts = []
        steps.append((tuple(inserts), tuple(deletes)))
    return tuple(steps)


#: an update that moves every plan of :data:`QUERIES`
WARM = [("R", ("w0", "w1")), ("S", ("w1", "w2")), ("A_P", ("w2",))]


def _views_exact(dataset):
    """Every retained view holds what its specialised program derives
    over its database from scratch, at that database's version, and
    each index it patched is the one its relation would build now."""
    for view in dataset._views.values():
        if view.query is not None:
            assert view.version == view.database.version
            assert view.derived == materialise(view.query, view.database)
            for (predicate, positions), index in view.indexes.items():
                rebuilt = build_index(view.derived[predicate], positions)
                assert {key: set(rows) for key, rows in index.items()} \
                    == {key: set(rows) for key, rows in rebuilt.items()}


class _FullRuns:
    """Counts whole-program runs of maintenance: materialisations of a
    view and ``Plan.execute`` calls."""

    def __init__(self, monkeypatch):
        self.plans = []
        materialise_ = maintain.materialise
        execute = Plan.execute

        def counted_materialise(query, database, *args):
            self.plans.append(query)
            return materialise_(query, database, *args)

        def counted_execute(plan, *args, **kwargs):
            self.plans.append(plan)
            return execute(plan, *args, **kwargs)

        monkeypatch.setattr(maintain, "materialise", counted_materialise)
        monkeypatch.setattr(Plan, "execute", counted_execute)

    def during(self, call, *args, **kwargs) -> int:
        self.plans.clear()
        call(*args, **kwargs)
        return len(self.plans)


class TestDeltaMaintenance:
    """One view per plan group, moved by seeded runs of its compiled
    clauses (:mod:`repro.standing.maintain`): exact after every
    update, and a whole program runs only when the view cannot follow
    the journal."""

    @SETTINGS
    @given(script=delta_scripts(), seed=st.integers(0, 5),
           method=st.sampled_from(METHODS))
    def test_views_and_answers_stay_exact(self, script, seed, method):
        with OMQService() as service:
            service.register_dataset("d", random_data(seed, atoms=14))
            subs = _subscribe_all(service, "d", method=method)
            dataset = service._dataset("d")
            # every group's view is built here; the script moves them
            service.update("d", inserts=WARM)
            assert len(dataset._views) == len(
                {sub.plan.fingerprint for sub, _ in subs.values()})
            for inserts, deletes in script:
                service.update("d", inserts=inserts, deletes=deletes)
                _views_exact(dataset)
                for sub, query in subs.values():
                    assert sub.answers == _oracle(dataset.abox, query), (
                        f"+{inserts} -{deletes}")

    def test_a_second_derivation_keeps_a_projected_answer(self):
        tbox = TBox.parse("roles: R, S")
        omq = OMQ(tbox, CQ.parse("R(x, y), S(y, z)", answer_vars=["x", "z"]))
        with OMQService() as service:
            service.register_dataset("d", ABox.parse(
                "R(a, b), S(b, c), R(a, d), S(d, c), R(e, f)"))
            sub = service.subscribe("d", omq)
            service.update("d", inserts=[("S", ("f", "g"))])  # the view
            assert sub.answers == {("a", "c"), ("e", "g")}
            pushed = len(sub.history)
            service.update("d", deletes=[("R", ("a", "b"))])
            assert sub.answers == {("a", "c"), ("e", "g")}
            assert len(sub.history) == pushed  # nothing moved
            service.update("d", deletes=[("S", ("d", "c"))])
            assert sub.answers == {("e", "g")}
            assert sub.history[-1].removed == {("a", "c")}
            _views_exact(service._dataset("d"))

    @pytest.mark.parametrize("method", [None, "ucq", "log"])
    def test_a_delete_across_disconnected_atoms(self, monkeypatch, method):
        """``G(u, v) <- R(x, y) & S(u, v)``: seeded at ``R``, nothing of
        ``R`` reaches the head, so the run's last step scans all of
        ``S`` as it was before the delete; one delete that takes a row
        of each is followed by delta clauses all the same."""
        omq = OMQ(TBox.parse("roles: R, S"),
                  CQ.parse("R(x, y), S(u, v)", answer_vars=["u", "v"]))
        with OMQService() as service:
            service.register_dataset("d", ABox.parse(
                "R(a, b), R(c, d), S(e, f), S(g, h)"))
            sub = service.subscribe("d", omq, method=method)
            service.update("d", inserts=[("S", ("i", "j"))])  # the view
            dataset = service._dataset("d")
            runs = _FullRuns(monkeypatch)
            assert runs.during(service.update, "d", deletes=[
                ("R", ("a", "b")), ("S", ("e", "f"))]) == 0
            assert not sub.stale
            _views_exact(dataset)
            assert sub.answers == _fresh(dataset.abox, omq, method=method) \
                == {("g", "h"), ("i", "j")}
            assert sub.history[-1].removed == {("e", "f")}

    def test_full_runs_only_when_the_signature_flips(self, monkeypatch):
        """A pure insert or delete at a stable signature runs no whole
        program; an emptiness flip runs one for the plan it moves."""
        tbox = TBox.parse("roles: R, S\nB <= A")
        flips = OMQ(tbox, CQ.parse("R(x, y), S(y, z)",
                                   answer_vars=["x", "z"]))
        stable = OMQ(tbox, CQ.parse("A(x), R(x, y)",
                                    answer_vars=["x", "y"]))
        with OMQService() as service:
            service.register_dataset("d", ABox.parse(
                "R(a, b), S(b, c), A(d)"))
            subs = [service.subscribe("d", omq) for omq in (flips, stable)]
            service.update("d", inserts=[("R", ("d", "e"))])  # the views
            runs = _FullRuns(monkeypatch)
            update = service.update
            assert runs.during(update, "d", inserts=[("R", ("a", "f"))]) == 0
            assert runs.during(update, "d", deletes=[("R", ("a", "f"))]) == 0
            assert runs.during(update, "d", inserts=[("B", ("a",))]) == 0
            assert runs.during(update, "d", deletes=[("B", ("a",))]) == 0
            # S empties: only the plan over it re-specialises
            assert runs.during(update, "d", deletes=[("S", ("b", "c"))]) == 1
            assert runs.during(update, "d", inserts=[("S", ("b", "c"))]) == 1
            assert runs.during(update, "d", inserts=[("S", ("e", "g"))]) == 0
            monkeypatch.undo()
            abox = service._dataset("d").abox
            for omq, sub in zip((flips, stable), subs):
                assert sub.answers == _fresh(abox, omq)
            _views_exact(service._dataset("d"))

    def test_the_last_unsubscribe_drops_the_view(self):
        with OMQService() as service:
            service.register_dataset("d", random_data(1))
            first, second = (service.subscribe("d", OMQ(TBOX, CQ.parse(
                f"R(x{i}, y{i}), S(y{i}, z{i})",
                answer_vars=[f"x{i}", f"z{i}"]))) for i in range(2))
            service.update("d", inserts=[("R", ("o1", "o2"))])
            dataset = service._dataset("d")
            key = (first.plan.fingerprint, first.engine)
            assert list(dataset._views) == [key]
            # a group that keeps a member keeps its view without the
            # write lock; its last member waits for the reads running
            with dataset.lock.reading():
                early = threading.Thread(target=service.unsubscribe,
                                         args=(first.subscription_id,))
                early.start()
                early.join(timeout=10)
                assert not early.is_alive()
                assert list(dataset._views) == [key]
                last = threading.Thread(target=service.unsubscribe,
                                        args=(second.subscription_id,))
                last.start()
                last.join(timeout=0.2)
                assert last.is_alive()
            last.join(timeout=10)
            assert not last.is_alive()
            assert dataset._views == {}

    def test_replace_and_recovery_rebuild_the_view(self, monkeypatch):
        omq = OMQ(TBOX, chain_cq("RS"))
        with OMQService() as service:
            service.register_dataset("d", random_data(1))
            service.subscribe("d", omq)
            service.update("d", inserts=[("R", ("o1", "o2"))])
            service.register_dataset("d", random_data(2), replace=True)
            sub = service.subscribe("d", omq)
            dataset = service._dataset("d")
            assert dataset._views == {}
            service.update("d", inserts=[("S", ("o2", "o3"))])
            (view,) = dataset._views.values()
            _views_exact(dataset)

            # a failed update drops the sessions: the view resyncs from
            # the answer route, and rebuilds on the new database
            patch = dataset._patch

            def fail_after_patching(update):
                patch(update)
                raise RuntimeError("injected fault")

            monkeypatch.setattr(dataset, "_patch", fail_after_patching)
            with pytest.raises(RuntimeError):
                service.update("d", inserts=[("R", ("o3", "o4"))])
            monkeypatch.undo()
            assert view.query is None and not sub.stale
            # nothing of the dropped sessions is held
            assert view.database is None and view.derived is None
            assert sub.answers == _oracle(dataset.abox, omq.query)
            service.update("d", deletes=[("R", ("o3", "o4"))])
            (session,) = dataset.all_sessions()
            backend = session.backend("python", sub.plan._variant_tbox())
            assert view.database is backend.database
            _views_exact(dataset)
            assert sub.answers == _oracle(dataset.abox, omq.query)

    def test_an_adom_plan_follows_individuals_in_and_out(self, monkeypatch):
        """``lin`` ranges ``R(x, y)``'s answer over ``__adom__``: every
        update below moves the active domain, and each is followed by
        delta clauses."""
        query = CQ.parse("R(x, y)", answer_vars=["x"])
        with OMQService() as service:
            service.register_dataset("d", random_data(3))
            sub = service.subscribe("d", OMQ(TBOX, query), method="lin")
            assert ADOM in sub.plan.ndl.program.edb_predicates
            dataset = service._dataset("d")
            service.update("d", inserts=[("R", ("n0", "n1"))])
            runs = _FullRuns(monkeypatch)
            for i in range(3):
                for step in ({"inserts": [("R", (f"new{i}", "n1")),
                                          ("P", ("n2", f"out{i}"))]},
                             {"deletes": [("R", (f"new{i}", "n1")),
                                          ("P", ("n2", f"out{i}"))]}):
                    assert runs.during(service.update, "d", **step) == 0
                    _views_exact(dataset)
                    assert sub.answers == _fresh(dataset.abox,
                                                 OMQ(TBOX, query),
                                                 method="lin")

    def test_unsubscribes_racing_updates(self):
        """Two threads subscribe and unsubscribe while two update, with
        a short switch interval: no deadlock, the churned views are
        gone, and the one that stays is exact."""
        with OMQService() as service:
            service.register_dataset("d", random_data(2, atoms=30))
            kept = service.subscribe("d", OMQ(TBOX, chain_cq("RS")))
            errors = []

            def churn(first):
                for i in range(30):
                    shape = "RS" if (first + i) % 2 else "SR"
                    sub = service.subscribe("d", OMQ(TBOX, chain_cq(shape)))
                    service.unsubscribe(sub.subscription_id)

            def update(first):
                for i in range(30):
                    atoms = [("R", (f"u{first}{i}", "n1")),
                             ("S", ("n1", f"v{first}{i}"))]
                    service.update("d", inserts=atoms)
                    service.update("d", deletes=atoms[:1])

            def guarded(work, first):
                try:
                    work(first)
                except Exception as error:  # reported below
                    errors.append(error)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=guarded,
                                            args=(work, first))
                           for first in range(2) for work in (churn, update)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
            finally:
                sys.setswitchinterval(interval)
            assert errors == []
            dataset = service._dataset("d")
            assert list(dataset._views) == [(kept.plan.fingerprint,
                                             kept.engine)]
            _views_exact(dataset)
            assert kept.answers == _oracle(dataset.abox, chain_cq("RS"))


def _fresh(abox, omq, **options):
    """``omq`` answered over a from-scratch session on a copy of
    ``abox``."""
    with AnswerSession(ABox(abox.atoms())) as session:
        return session.answer(omq, **options).answers


def _replay(before, deltas):
    """``before`` advanced by ``deltas``, each checked exact: no
    resync, nothing added that was there, nothing removed that was
    not."""
    answers = set(before)
    for delta in deltas:
        assert not delta.resync
        assert not delta.added & answers and delta.removed <= answers
        answers = (answers | delta.added) - delta.removed
    return answers


def _renamings(count):
    """``count`` renamings of one query: one plan, so one group."""
    return [OMQ(TBOX, CQ.parse(f"R(x{i}, y{i}), S(y{i}, z{i})",
                               answer_vars=[f"x{i}", f"z{i}"]))
            for i in range(count)]


def _moving(i):
    """An insert that adds the answer ``(h{i}, k{i})`` to the
    renamings of :func:`_renamings`."""
    return {"inserts": [("R", (f"h{i}", f"m{i}")), ("S", (f"m{i}", f"k{i}"))]}


class TestGroupLog:
    """The subscriptions of one plan group share one log: the answers,
    the epoch and one bounded delta history.  A member keeps only the
    epoch it joined at and reads the log from there."""

    def test_renamings_share_one_log_and_one_delta(self):
        with OMQService() as service:
            service.register_dataset("d", random_data(1))
            subs = [service.subscribe("d", omq) for omq in _renamings(5)]
            (group,) = service.standing.groups(service._dataset("d"))
            assert all(sub.log is group for sub in subs)
            for sub in subs:  # no state of the group's of its own
                assert {"answers", "history", "oldest_epoch", "stale",
                        "condition"}.isdisjoint(vars(sub))
            pushed = service.stats()["standing"]["deltas_pushed"]
            service.update("d", **_moving(0))
            (delta,) = group.history
            assert ("h0", "k0") in delta.added and delta.epoch == 1
            assert all(sub.history == [delta] and sub.history[0] is delta
                       for sub in subs)
            # each member still counts as pushed the delta
            assert service.stats()["standing"]["deltas_pushed"] == pushed + 5

    def test_a_member_sees_no_delta_from_before_it_joined(self, monkeypatch):
        with OMQService() as service:
            service.register_dataset("d", random_data(1))
            first_omq, second_omq = _renamings(2)
            first = service.subscribe("d", first_omq)
            service.update("d", **_moving(0))
            # the group is current: joining it runs nothing
            runs = _FullRuns(monkeypatch)
            second = service.subscribe("d", second_omq)
            assert runs.plans == []
            monkeypatch.undo()
            assert second.log is first.log and second.joined == 1
            assert second.answers == first.answers
            assert second.history == [] and len(first.history) == 1
            service.update("d", **_moving(1))
            assert [delta.epoch for delta in second.history] == [2]
            body = service.poll(second.subscription_id, since_epoch=1)
            assert [raw["epoch"] for raw in body["deltas"]] == [2]
            assert service.poll(second.subscription_id, since_epoch=0)[
                "resync"]
            assert not service.poll(first.subscription_id, since_epoch=0)[
                "resync"]

    def test_past_the_history_only_older_polls_resync(self):
        with OMQService() as service:
            service.standing.history_limit = 2
            service.register_dataset("d", random_data(1))
            early_omq, late_omq = _renamings(2)
            early = service.subscribe("d", early_omq)
            for i in range(2):
                service.update("d", **_moving(i))
            late = service.subscribe("d", late_omq)
            for i in range(2, 4):
                service.update("d", **_moving(i))
            assert early.log.oldest_epoch == 2
            resyncs = service.stats()["standing"]["resyncs"]
            for sub, since in ((early, 2), (late, 2), (late, 3)):
                body = service.poll(sub.subscription_id, since_epoch=since)
                assert not body["resync"]
                assert [raw["epoch"] for raw in body["deltas"]] == list(
                    range(since + 1, 5))
            assert service.stats()["standing"]["resyncs"] == resyncs
            body = service.poll(early.subscription_id, since_epoch=1)
            assert body["resync"] and body["epoch"] == 4
            assert service.stats()["standing"]["resyncs"] == resyncs + 1

    def test_unsubscribing_wakes_only_that_members_poll(self):
        with OMQService() as service:
            service.register_dataset("d", random_data(1))
            subs = [service.subscribe("d", omq) for omq in _renamings(3)]
            outcomes = {}

            def park(sub):
                try:
                    outcomes[sub.subscription_id] = service.poll(
                        sub.subscription_id, timeout=30.0)
                except ValueError as error:
                    outcomes[sub.subscription_id] = error

            threads = [threading.Thread(target=park, args=(sub,))
                       for sub in subs]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10
            while (service.stats()["standing"]["polls"] < 3
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            time.sleep(0.1)
            service.unsubscribe(subs[0].subscription_id)
            threads[0].join(timeout=5)
            assert not threads[0].is_alive()
            assert "closed" in str(outcomes[subs[0].subscription_id])
            time.sleep(0.1)
            assert all(thread.is_alive() for thread in threads[1:])
            assert len(outcomes) == 1
            service.update("d", **_moving(0))
            for thread in threads[1:]:
                thread.join(timeout=5)
                assert not thread.is_alive()
            for sub in subs[1:]:
                (raw,) = outcomes[sub.subscription_id]["deltas"]
                assert ["h0", "k0"] in raw["added"]

    def test_a_subscriber_to_a_stale_group_starts_current(self, monkeypatch):
        """A failed refresh leaves the group stale and behind the data;
        a new member heals it: it starts from the answers as they are,
        and the older member catches up by one delta."""
        from repro.service import dataset as dataset_module

        def fail(*args):
            raise RuntimeError("injected fault")

        with OMQService() as service:
            service.register_dataset("d", random_data(1))
            first_omq, second_omq = _renamings(2)
            first = service.subscribe("d", first_omq)
            monkeypatch.setattr(dataset_module, "refresh", fail)
            service.update("d", **_moving(0))
            monkeypatch.undo()
            assert first.stale and ("h0", "k0") not in first.answers
            second = service.subscribe("d", second_omq)
            abox = service._dataset("d").abox
            assert second.log is first.log
            assert second.answers == _oracle(abox, second_omq.query)
            assert not second.stale and second.epoch == 1
            assert second.history == []
            body = service.poll(first.subscription_id, since_epoch=0)
            assert not body["resync"] and not body["stale"]
            (raw,) = body["deltas"]
            assert raw["epoch"] == 1 and ["h0", "k0"] in raw["added"]
            service.update("d", **_moving(1))
            assert first.answers == _oracle(abox, first_omq.query)
            _views_exact(service._dataset("d"))

    def test_a_healed_group_never_follows_a_view_left_behind(
            self, monkeypatch):
        """A pass that fails as a whole leaves every group stale and its
        view a version behind.  A new member heals the group; an update
        that moves nothing the group reads must not pass that old view
        off as current, or the next moving update follows it from the
        wrong relations."""
        with OMQService() as service:
            service.register_dataset("d", random_data(1))
            dataset = service._dataset("d")
            first_omq, second_omq = _renamings(2)
            first = service.subscribe("d", first_omq)
            service.update("d", **_moving(0))  # the view is built
            affected, calls = service.standing.affected, []

            def fails_once(*args):
                calls.append(args)
                if len(calls) == 1:
                    raise RuntimeError("injected fault")
                return affected(*args)

            monkeypatch.setattr(service.standing, "affected", fails_once)
            service.update("d", deletes=[("R", ("h0", "m0"))])
            monkeypatch.undo()
            assert first.stale
            second = service.subscribe("d", second_omq)  # heals it
            assert not first.stale
            # a predicate no rewriting of the group reads
            service.update("d", inserts=[("Q", ("q0",))])
            _views_exact(dataset)
            service.update("d", **_moving(1))
            _views_exact(dataset)
            expected = _oracle(dataset.abox, first_omq.query)
            assert first.answers == second.answers == expected
            assert ("h0", "k0") not in expected


class TestAsyncServing:
    """Long-poll over both HTTP clients, checked differentially
    against an embedded client over the same updates (the style of
    ``tests/test_async_serve.py``)."""

    def test_polled_deltas_match_embedded_reference(self):
        service = OMQService()
        service.register_dataset("demo", random_data(1))
        reference = Client.local()
        reference.register_dataset("demo", random_data(1))
        omq = OMQ(TBOX, chain_cq("RS"))
        script = (
            {"inserts": [("P", ("s1", "s2"))]},
            {"inserts": [("R", ("s2", "s3")), ("S", ("s3", "s4"))]},
            {"deletes": [("P", ("s1", "s2"))]},
        )
        try:
            with serve_in_background(service) as handle, \
                    Client.connect(handle.url) as blocking_client, \
                    blocking_client.subscribe("demo", omq) as blocking_sub:
                async def main():
                    async with AsyncClient.connect(handle.url) as client:
                        async_sub = await client.subscribe("demo", omq)
                        subs = (async_sub, blocking_sub)
                        expected = reference.answer("demo", omq).answers
                        assert all(sub.answers == expected for sub in subs)
                        for step in script:
                            await client.update(
                                "demo",
                                inserts=step.get("inserts", ()),
                                deletes=step.get("deletes", ()))
                            reference.update(
                                "demo",
                                inserts=step.get("inserts", ()),
                                deletes=step.get("deletes", ()))
                            # after every step both maintained sets
                            # converge to the reference, by exact deltas
                            expected = reference.answer(
                                "demo", omq).answers
                            before = [sub.answers for sub in subs]
                            polled = [
                                await async_sub.poll(timeout=5.0),
                                await asyncio.to_thread(blocking_sub.poll,
                                                        5.0)]
                            for sub, start, deltas in zip(subs, before,
                                                          polled):
                                assert _replay(start, deltas) \
                                    == sub.answers == expected
                        await async_sub.unsubscribe()

                asyncio.run(main())
        finally:
            reference.close()
            service.close()

    def test_long_poll_on_async_server(self):
        service = OMQService()
        service.register_dataset("demo", random_data(1))
        omq = OMQ(TBOX, chain_cq("RS"))
        try:
            with serve_in_background(service) as handle:
                async def main():
                    async with AsyncClient.connect(handle.url) as client:
                        sub = await client.subscribe("demo", omq)
                        update_task = asyncio.create_task(
                            client.update("demo",
                                          inserts=[("P", ("p1", "p2"))]))
                        deltas = await sub.poll(timeout=5.0)
                        await update_task
                        assert deltas and sub.epoch == 1
                        await sub.unsubscribe()
                        with pytest.raises(ServiceError):
                            await sub.poll()

                asyncio.run(main())
        finally:
            service.close()

    def test_failing_poll_resolves_promptly(self):
        """Regression: the async server's thread-to-loop bridge used a
        closure over an ``except ... as`` name, whose cell is cleared
        at block exit — a race that could leave the future unresolved
        and a failing /poll hanging until the client-side timeout."""
        from repro.service.aserve import AsyncServiceServer

        service = OMQService()
        try:
            async def main():
                server = AsyncServiceServer(service)
                await server.start()

                def boom():
                    raise ValueError("kaboom")

                try:
                    for _ in range(25):
                        with pytest.raises(ValueError):
                            await asyncio.wait_for(
                                server._call_in_thread(boom), timeout=2)
                finally:
                    await server.stop()

            asyncio.run(main())
        finally:
            service.close()

    def test_parked_polls_are_bounded(self):
        """Past ``max_polls`` parked long-polls, new ones get the same
        structured 429 as saturated answer work."""
        service = OMQService()
        service.register_dataset("demo", random_data(1))
        omq = OMQ(TBOX, chain_cq("RS"))
        try:
            with serve_in_background(service, max_polls=1) as handle:
                async def main():
                    async with AsyncClient.connect(handle.url) as client:
                        sub = await client.subscribe("demo", omq)
                        parked = asyncio.create_task(sub.poll(timeout=5.0))
                        await asyncio.sleep(0.3)
                        with pytest.raises(ServiceError) as excinfo:
                            await sub.poll(timeout=5.0)
                        assert excinfo.value.status == 429
                        assert excinfo.value.error_type == "overloaded"
                        assert excinfo.value.retry_after == 1.0
                        # release the parked poll, then the slot is free
                        await client.update(
                            "demo", inserts=[("P", ("q1", "q2"))])
                        assert await asyncio.wait_for(parked, timeout=10)
                        deltas = await sub.poll()
                        assert deltas == []
                        await sub.unsubscribe()

                asyncio.run(main())
        finally:
            service.close()

    def test_get_subscribe_is_a_structured_404(self, served_stack):
        """Subscriptions are created by ``POST /subscribe`` and read by
        ``POST /poll``; a ``GET`` there is an unknown route like any
        other — traced, framed, and the connection stays usable."""
        _, url = served_stack
        address = urlparse(url)
        conn = http.client.HTTPConnection(address.hostname, address.port,
                                          timeout=10)
        try:
            conn.request("GET", "/subscribe?subscription=x")
            reply = conn.getresponse()
            body = json.loads(reply.read())
            sock = conn.sock
            assert reply.status == 404
            assert body["error_type"] == "not_found"
            assert body["trace_id"] == reply.getheader("X-Repro-Trace-Id")
            conn.request("GET", "/health")
            reply = conn.getresponse()
            assert reply.status == 200
            assert json.loads(reply.read())["status"] == "ok"
            assert conn.sock is sock, "the keep-alive connection was dropped"
        finally:
            conn.close()
