"""Update correctness: incremental insert/delete must be observationally
identical to a from-scratch load of the final ABox.

Covers the three layers: :class:`~repro.engine.database.Database` delta
maintenance (indexes, interning, ``__adom__``),
:meth:`AnswerSession.apply_update` (completion deltas, backend
patching), and the property-style random-sequence test over
:class:`OMQService` demanded by the PR issue — random insert/delete
sequences, answers compared against a fresh session on the final ABox,
across both engines.  Hypothesis properties hold the incremental
structures underneath (``ABox.around``, the patched ``Database``
indexes, the narrowed delete delta) to from-scratch references.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ABox, CQ, OMQ, TBox, chain_cq
from repro.datalog.program import ADOM
from repro.engine import ENGINES, Database, build_index
from repro.rewriting import AnswerSession
from repro.service import OMQService
from repro.service.updates import (
    completed_delete_delta,
    completed_insert_delta,
)

from repro.ontology.axioms import Reflexivity
from repro.ontology.terms import Role

from .helpers import (
    example11_tbox,
    full_scan_delete_delta,
    hypothesis_settings,
    random_data,
)
from .test_property_based import ROLE_NAMES, tboxes


def _snapshot(abox: ABox) -> ABox:
    return ABox(abox.atoms())


# -- ABox.discard -----------------------------------------------------------


class TestABoxDiscard:
    def test_discard_removes_atom_and_orphaned_individuals(self):
        abox = ABox.parse("R(a,b), A(b)")
        assert abox.discard("R", "a", "b")
        assert ("R", ("a", "b")) not in abox
        assert abox.individuals == frozenset({"b"})

    def test_discard_keeps_shared_individuals(self):
        abox = ABox.parse("R(a,b), A(a)")
        abox.discard("R", "a", "b")
        assert abox.individuals == frozenset({"a"})

    def test_discard_absent_atom_is_noop(self):
        abox = ABox.parse("A(a)")
        assert not abox.discard("A", "b")
        assert not abox.discard("R", "a", "b")
        assert len(abox) == 1

    def test_discarded_abox_equals_fresh_parse(self):
        abox = ABox.parse("R(a,b), R(b,c), A(a)")
        abox.discard("R", "a", "b")
        fresh = ABox.parse("R(b,c), A(a)")
        assert set(abox.atoms()) == set(fresh.atoms())
        assert abox.individuals == fresh.individuals
        assert abox.binary_predicates == fresh.binary_predicates


# -- Database deltas --------------------------------------------------------


class TestDatabaseDeltas:
    def test_insert_maintains_existing_indexes(self):
        db = Database(ABox.parse("R(a,b), R(a,c)"))
        index = db.index("R", (0,))
        assert len(index[db.intern("a")]) == 2
        added = db.insert_facts({"R": [("a", "d"), ("e", "f")]})
        assert added == 2
        # the same index object was extended in place, not rebuilt
        assert db.index("R", (0,)) is index
        assert len(index[db.intern("a")]) == 3
        assert len(index[db.intern("e")]) == 1

    def test_insert_interns_new_constants_into_adom(self):
        db = Database(ABox.parse("A(a)"))
        db.insert_facts({"R": [("a", "b")]})
        assert db.decode_rows(db.relation(ADOM)) == {("a",), ("b",)}
        assert db.decode_rows(db.relation("R")) == {("a", "b")}

    def test_duplicate_insert_ignored(self):
        db = Database(ABox.parse("R(a,b)"))
        assert db.insert_facts({"R": [("a", "b")]}) == 0
        assert len(db.relation("R")) == 1

    def test_delete_patches_only_touched_indexes(self):
        db = Database(ABox.parse("R(a,b), S(a,c)"))
        db.index("R", (0,))
        s_index = db.index("S", (0,))
        removed = db.delete_facts({"R": [("a", "b")]})
        assert removed == 1
        assert db.index("S", (0,)) is s_index
        assert db.index("R", (0,)) == build_index(db.relation("R"), (0,))
        assert db.index("R", (0,)) == {}

    def test_delete_unknown_rows_ignored(self):
        db = Database(ABox.parse("R(a,b)"))
        assert db.delete_facts({"R": [("x", "y")], "T": [("a",)]}) == 0

    def test_delete_removes_constants_from_adom(self):
        db = Database(ABox.parse("R(a,b), A(a)"))
        db.delete_facts({"R": [("a", "b")]}, removed_constants=["b"])
        assert db.decode_rows(db.relation(ADOM)) == {("a",)}

    def test_updated_database_matches_fresh_load(self):
        db = Database(ABox.parse("R(a,b), R(b,c), A(a)"))
        db.index("R", (0,))
        db.index("R", (1,))
        db.delete_facts({"A": [("a",)]})
        db.insert_facts({"R": [("c", "d")], "B": [("d",)]})
        fresh = Database(ABox.parse("R(a,b), R(b,c), R(c,d), B(d)"))
        for predicate in ("R", "A", "B", ADOM):
            assert (db.decode_rows(db.relation(predicate))
                    == fresh.decode_rows(fresh.relation(predicate)))
        # indexes agree after decoding (interning orders differ)
        for positions in ((0,), (1,)):
            mine = {db.decode(key): db.decode_rows(rows)
                    for key, rows in db.index("R", positions).items()}
            theirs = {fresh.decode(key): fresh.decode_rows(rows)
                      for key, rows in fresh.index("R", positions).items()}
            assert mine == theirs


# -- completion deltas ------------------------------------------------------


class TestCompletionDeltas:
    def test_insert_delta_is_completion_of_delta(self):
        tbox = example11_tbox()
        base = ABox.parse("R(a,b)")
        completed = base.complete(tbox)
        inserted = [("P", ("c", "d"))]
        delta = completed_insert_delta(tbox, completed, inserted)
        merged = _snapshot(completed)
        for predicate, args in delta:
            merged.add(predicate, *args)
        expected = ABox.parse("R(a,b), P(c,d)").complete(tbox)
        assert set(merged.atoms()) == set(expected.atoms())

    def test_delete_keeps_rederivable_atoms(self):
        # P <= S: deleting the asserted S(a,b) keeps the entailed copy
        tbox = example11_tbox()
        raw = ABox.parse("P(a,b), S(a,b)")
        completed = raw.complete(tbox)
        raw.discard("S", "a", "b")
        delta = completed_delete_delta(tbox, raw, completed,
                                       [("S", ("a", "b"))])
        assert delta == []

    def test_delete_removes_unsupported_entailments(self):
        tbox = example11_tbox()
        raw = ABox.parse("P(a,b), A(a)")
        completed = raw.complete(tbox)
        assert ("S", ("a", "b")) in completed
        raw.discard("P", "a", "b")
        delta = completed_delete_delta(tbox, raw, completed,
                                       [("P", ("a", "b"))])
        removed = set(delta)
        assert ("S", ("a", "b")) in removed
        assert ("P", ("a", "b")) in removed
        # 'a' is still an individual via A(a); its concept memberships
        # derived from P(a,b) must go, A(a) itself must stay
        assert ("A", ("a",)) not in removed

    def test_reflexive_role_tracks_individuals(self):
        tbox = TBox.parse("roles: P\nrefl(P)")
        raw = ABox.parse("A(a), B(b)")
        completed = raw.complete(tbox)
        assert ("P", ("a", "a")) in completed
        raw.discard("A", "a")
        delta = completed_delete_delta(tbox, raw, completed,
                                       [("A", ("a",))])
        assert ("P", ("a", "a")) in set(delta)
        assert ("P", ("b", "b")) not in set(delta)


# -- AnswerSession.apply_update --------------------------------------------


class TestSessionUpdate:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_update_matches_fresh_session(self, engine):
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RS"))
        abox = random_data(21)
        with AnswerSession(abox, engine=engine) as session:
            session.answer(omq)          # load before updating
            session.apply_update(
                inserts=[("R", ("fresh0", "fresh1")),
                         ("S", ("fresh1", "fresh2")),
                         ("A_P", ("fresh2",))],
                deletes=list(abox.atoms())[:3])
            updated = session.answer(omq).answers
            perfectref = session.answer(omq, method="perfectref").answers
        with AnswerSession(_snapshot(abox), engine=engine) as fresh:
            assert fresh.answer(omq).answers == updated
            assert (fresh.answer(omq, method="perfectref").answers
                    == perfectref)

    def test_update_before_load_is_fine(self):
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RS"))
        abox = random_data(22)
        with AnswerSession(abox) as session:
            result = session.insert_facts([("R", ("u0", "u1")),
                                           ("S", ("u1", "u2"))])
            assert result.backends_updated == 0
            answers = session.answer(omq).answers
        with AnswerSession(_snapshot(abox)) as fresh:
            assert fresh.answer(omq).answers == answers

    def test_extra_relation_constants_stay_in_adom(self):
        from repro.datalog import Clause, Literal, NDLQuery, Program

        abox = ABox.parse("R(a,b)")
        extras = {"X": [("a",)]}
        # G(x) :- X(x), __adom__(x): 'a' must stay answerable after the
        # last ABox atom naming it is deleted (X still references it)
        clauses = [Clause(Literal("G", ("x",)),
                          (Literal("X", ("x",)), Literal(ADOM, ("x",))))]
        goal = NDLQuery(Program(clauses), "G", ("x",))
        with AnswerSession(abox, extra_relations=extras) as session:
            backend = session.backend()
            assert backend.evaluate(goal).answers == {("a",)}
            session.delete_facts([("R", ("a", "b"))])
            assert backend.evaluate(goal).answers == {("a",)}

    def test_delete_then_reinsert_roundtrips(self):
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RS"))
        abox = random_data(23)
        atom = next(iter(abox.atoms()))
        with AnswerSession(abox) as session:
            before = session.answer(omq).answers
            session.apply_update(deletes=[atom], inserts=[atom])
            assert session.answer(omq).answers == before


# -- the service-level property test ---------------------------------------


_UNIVERSE = [f"n{i}" for i in range(8)]
_UNARY = ("A", "B", "A_P", "A_P-")
_BINARY = ("P", "R", "S")


def _random_atom(rng):
    if rng.random() < 0.3:
        return (rng.choice(_UNARY), (rng.choice(_UNIVERSE),))
    return (rng.choice(_BINARY),
            (rng.choice(_UNIVERSE), rng.choice(_UNIVERSE)))


class TestServicePropertyUpdates:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_sequences_match_fresh_session(self, seed):
        rng = random.Random(seed)
        tbox = example11_tbox()
        queries = [chain_cq("RS"), chain_cq("SR"),
                   CQ.parse("R(x,y), S(y,z), R(z,w)",
                            answer_vars=["x", "w"]),
                   CQ.parse("S(x,y)", answer_vars=["x"])]
        abox = random_data(seed, individuals=6, atoms=14,
                           unary=_UNARY, binary=_BINARY)
        mirror = _snapshot(abox)
        with OMQService(max_workers=2) as service:
            service.register_dataset("data", abox)
            # touch every engine so all backends are loaded and must be
            # patched (not rebuilt) by the updates below
            for engine in ENGINES:
                service.answer("data", OMQ(tbox, queries[0]),
                               engine=engine)
            for _ in range(10):
                atoms = [_random_atom(rng)
                         for _ in range(rng.randint(1, 3))]
                if rng.random() < 0.5:
                    service.insert_facts("data", atoms)
                    for predicate, args in atoms:
                        mirror.add(predicate, *args)
                else:
                    service.delete_facts("data", atoms)
                    for predicate, args in atoms:
                        mirror.discard(predicate, *args)
                # cheap intermediate check on the native engine
                omq = OMQ(tbox, rng.choice(queries))
                with AnswerSession(_snapshot(mirror)) as fresh:
                    assert (service.answer("data", omq).answers
                            == fresh.answer(omq).answers)
            # final ABox: all queries, all engines, plus perfectref
            # over the raw (uncompleted) variant
            with AnswerSession(_snapshot(mirror)) as fresh:
                for query in queries:
                    omq = OMQ(tbox, query)
                    expected = fresh.answer(omq).answers
                    for engine in ENGINES:
                        got = service.answer("data", omq, engine=engine)
                        assert got.answers == expected, (
                            f"engine {engine} diverged after updates "
                            f"(seed {seed}) for {query}")
                    assert (service.answer(
                        "data", omq, method="perfectref").answers
                        == fresh.answer(omq, method="perfectref").answers)

    def test_update_counts_reported(self):
        with OMQService() as service:
            service.register_dataset("data", ABox.parse("R(a,b)"))
            service.answer("data",
                           OMQ(example11_tbox(), chain_cq("RS")))
            result = service.insert_facts(
                "data", [("P", ("a", "c")), ("R", ("a", "b"))])
            assert result.inserted == 1          # R(a,b) already present
            assert result.completion_inserted >= 1   # P <= S, P <= R-
            assert result.backends_updated >= 1
            result = service.delete_facts("data", [("P", ("a", "c"))])
            assert result.deleted == 1


# -- properties of the incremental structures --------------------------------

_NAMES = ("c0", "c1", "c2", "c3")
_SETTINGS = hypothesis_settings(100)

#: one ABox atom over a small universe: unary, binary, and ``R(c, c)``
_atoms = st.one_of(
    st.tuples(st.sampled_from(("A", "B", "A_P", "A_P-")),
              st.tuples(st.sampled_from(_NAMES))),
    st.tuples(st.sampled_from(("P", "Q", "R")),
              st.tuples(st.sampled_from(_NAMES), st.sampled_from(_NAMES))))


#: the memoisable indexes over those atoms: ``(predicate, positions)``
_INDEXES = ([(name, positions) for name in ("A", ADOM)
             for positions in ((), (0,))]
            + [(name, positions) for name in ("P", "R")
               for positions in ((), (0,), (1,), (0, 1))])


def _scan_around(abox, constant):
    return {atom for atom in abox.atoms() if constant in atom[1]}


class TestIncrementalStructureProperties:
    @_SETTINGS
    @given(ops=st.lists(st.tuples(st.booleans(), _atoms), max_size=30),
           first_probe=st.integers(0, 30))
    def test_around_equals_a_scan(self, ops, first_probe):
        """Before the adjacency exists, when it is first built, and
        after ``add``/``discard`` have maintained it."""
        abox = ABox()
        for step, (add, (predicate, args)) in enumerate(ops):
            if step == first_probe:
                for constant in _NAMES:
                    assert abox.around(constant) == _scan_around(
                        abox, constant)
            if add:
                abox.add(predicate, *args)
            else:
                abox.discard(predicate, *args)
        for constant in _NAMES + ("absent",):
            assert abox.around(constant) == _scan_around(abox, constant)
            assert abox.has_individual(constant) == (
                constant in abox.individuals)

    @_SETTINGS
    @given(start=st.lists(_atoms, max_size=12),
           ops=st.lists(st.one_of(
               st.tuples(st.just("index"), st.sampled_from(_INDEXES)),
               st.tuples(st.just("insert"), st.lists(_atoms, max_size=4)),
               st.tuples(st.just("delete"), st.lists(_atoms, max_size=4),
                         st.lists(st.sampled_from(_NAMES), max_size=2))),
               max_size=16))
    def test_patched_indexes_equal_fresh_builds(self, start, ops):
        """Every memoised index, ``__adom__``'s and the ``()`` one
        included, has the keys and per-key rows of a fresh
        ``build_index`` over the relation, and no empty bucket."""
        db = Database(ABox(start))
        memoised = set()
        for kind, *args in ops:
            if kind == "index":
                db.index(*args[0])
                memoised.add(args[0])
                continue
            facts = {}
            for predicate, row in args[0]:
                facts.setdefault(predicate, []).append(row)
            if kind == "insert":
                db.insert_facts(facts)
            else:
                db.delete_facts(facts, removed_constants=args[1])
            for predicate, positions in memoised:
                index = db.index(predicate, positions)
                fresh = build_index(db.relation(predicate), positions)
                assert index.keys() == fresh.keys()
                for key, rows in index.items():
                    assert rows and set(rows) == set(fresh[key])

    @_SETTINGS
    @given(tbox=tboxes(), reflexive=st.sets(st.sampled_from(ROLE_NAMES)),
           start=st.lists(st.one_of(
               _atoms, st.tuples(st.sampled_from(("A_Q", "A_Q-")),
                                 st.tuples(st.sampled_from(_NAMES)))),
               min_size=1, max_size=14),
           data=st.data())
    def test_delete_delta_equals_the_full_scan(self, tbox, reflexive,
                                                start, data):
        """Over random ontologies with role and concept hierarchies, plus
        reflexive roles (``tboxes()`` draws none), and data that also
        uses a role outside the signature (``R``)."""
        tbox = TBox(tbox.user_axioms
                    + [Reflexivity(Role(name)) for name in sorted(reflexive)])
        raw = ABox(start)
        completed = raw.complete(tbox)
        atoms = sorted(raw.atoms())
        deleted = data.draw(st.lists(st.sampled_from(atoms), min_size=1,
                                     unique=True))
        for predicate, args in deleted:
            raw.discard(predicate, *args)
        delta = completed_delete_delta(tbox, raw, completed, deleted)
        assert delta == full_scan_delete_delta(tbox, raw, completed, deleted)
        for predicate, args in delta:
            completed.discard(predicate, *args)
        assert set(completed.atoms()) == set(raw.complete(tbox).atoms())
