"""Sharded execution parity: ``ShardedSession`` answers must equal
monolithic answers — across engines, shard counts, connected and
disconnected CQs, and arbitrary update sequences (including updates
that merge or split Gaifman components)."""

import dataclasses
import pickle
import random

from hypothesis import given

from repro import (
    OMQ,
    AnswerOptions,
    AnswerSession,
    Client,
    OMQService,
    answer,
    compile_omq,
)
from repro.data import ABox, multi_component_abox, workload_abox
from repro.queries import CQ, Atom, chain_cq
from repro.shard import Partition, ShardedSession
from repro.shard import executor as shard_executor
from repro.shard.executor import SerialExecutor, _PlanTable

from .helpers import example11_tbox, hypothesis_settings, random_data
from .test_property_based import aboxes, tboxes, tree_queries

SETTINGS = hypothesis_settings(15)

CONNECTED_QUERIES = (
    chain_cq("RS"),
    chain_cq("RSR"),
    CQ.parse("A_P(x)", answer_vars=["x"]),
    CQ.parse("R(x, y)", answer_vars=[]),          # boolean
    CQ.parse("R(x, y), S(y, z), A_P(z)", answer_vars=["x"]),
)

DISCONNECTED_QUERIES = (
    CQ.parse("R(x, y), S(u, v)", answer_vars=["x", "u"]),
    CQ.parse("R(x, y), S(u, v)", answer_vars=["u", "x"]),
    CQ.parse("R(x, y), A_P(u)", answer_vars=["x", "y", "u"]),
    CQ.parse("R(x, y), S(u, v)", answer_vars=[]),  # boolean conjunction
    CQ.parse("A_P(x), A_P-(u), R(a, b)", answer_vars=["x"]),  # filters
)


def sharded(abox, shards=3, **kwargs):
    kwargs.setdefault("executor", "serial")
    return ShardedSession(abox, shards=shards, **kwargs)


class TestPartition:
    def test_components_respect_shards(self):
        abox = multi_component_abox(10, 6, shape="mixed", seed=1)
        partition = Partition.build(abox, 3)
        shard_aboxes = partition.shard_aboxes(abox)
        # every component's constants sit on exactly one shard
        for index in range(10):
            owners = {partition.owner_of(f"g{index}_{j}") for j in range(6)}
            assert len(owners) == 1
        # the shards partition the data: disjoint, union = master
        combined = ABox()
        for shard_abox in shard_aboxes:
            for predicate, args in shard_abox.atoms():
                assert (predicate, args) not in combined
                combined.add(predicate, *args)
        assert set(combined.atoms()) == set(abox.atoms())

    def test_balanced_packing(self):
        abox = multi_component_abox(40, 5, shape="chain", seed=2)
        partition = Partition.build(abox, 4)
        weights = partition.weights
        assert sum(weights) == len(abox)
        # equal-size components pack evenly under LPT
        assert max(weights) - min(weights) <= max(weights) / 4

    def test_deterministic(self):
        abox = multi_component_abox(12, 5, shape="random", seed=3)
        first = Partition.build(abox, 3)
        second = Partition.build(abox, 3)
        assert all(first.owner_of(c) == second.owner_of(c)
                   for c in abox.individuals)

    def test_more_shards_than_components(self):
        abox = ABox([("R", ("a", "b"))])
        partition = Partition.build(abox, 4)
        shard_aboxes = partition.shard_aboxes(abox)
        assert sum(len(a) for a in shard_aboxes) == 1

    def test_insert_merges_components(self):
        abox = ABox([("R", ("a", "b")), ("R", ("c", "d"))])
        partition = Partition.build(abox, 2)
        assert partition.owner_of("a") != partition.owner_of("c")
        inserts, deletes = partition.route_inserts(
            [("S", ("b", "c"))], abox)
        # after the merge every constant lives on one shard, and the
        # moved component's atoms were rehomed delete+insert
        owners = {partition.owner_of(c) for c in "abcd"}
        assert len(owners) == 1
        moved = [atom for atoms in deletes.values() for atom in atoms]
        assert moved  # one of the two components moved
        routed = [atom for atoms in inserts.values() for atom in atoms]
        assert ("S", ("b", "c")) in routed

    def test_bulk_insert_of_new_components_spreads(self):
        partition = Partition.build(ABox([("R", ("a", "b"))]), 4)
        atoms = [("R", (f"n{i}_0", f"n{i}_1")) for i in range(40)]
        inserts, _ = partition.route_inserts(atoms, ABox())
        # 40 fresh components must spread over the shards, not pile on
        # the lightest one as of the start of the round
        assert len(inserts) == 4
        assert max(partition.weights) - min(partition.weights) <= 1

    @staticmethod
    def _replay_matches_fresh_routing(abox, shards, atoms):
        """Routed deltas applied to the pre-round shard ABoxes must
        reproduce a fresh routing of the final data under the updated
        assignment — the invariant every worker relies on."""
        partition = Partition.build(abox, shards)
        shard_aboxes = partition.shard_aboxes(abox)
        inserts, deletes = partition.route_inserts(atoms, abox)
        for shard, routed in deletes.items():
            for predicate, args in routed:
                shard_aboxes[shard].discard(predicate, *args)
        for shard, routed in inserts.items():
            for predicate, args in routed:
                shard_aboxes[shard].add(predicate, *args)
        final = ABox(abox.atoms())
        for predicate, args in atoms:
            final.add(predicate, *args)
        fresh = partition.shard_aboxes(final)
        for shard in range(shards):
            assert (set(shard_aboxes[shard].atoms())
                    == set(fresh[shard].atoms())), shard

    def test_chained_merge_rehomes_late_joiners(self):
        # components sized so LPT fixes the layout: B (5 atoms) on
        # shard 0, A (4 atoms) and C (2 atoms) on shard 1.  The round
        # first bridges A-B (cross-owner, destination = heavier B),
        # then chains C onto the merged group via a same-owner edge:
        # C must follow the group to shard 0, not strand on shard 1
        abox = ABox(
            [("R", (f"b{i}", f"b{i + 1}")) for i in range(5)]
            + [("R", (f"a{i}", f"a{i + 1}")) for i in range(4)]
            + [("R", (f"c{i}", f"c{i + 1}")) for i in range(2)])
        partition = Partition.build(abox, 2)
        assert partition.owner_of("b0") == 0
        assert partition.owner_of("a0") == 1
        assert partition.owner_of("c0") == 1
        atoms = [("S", ("a0", "b0")), ("S", ("a0", "c0"))]
        self._replay_matches_fresh_routing(abox, 2, atoms)

    def test_random_update_rounds_keep_routing_invariant(self):
        rng = random.Random(4)
        for trial in range(15):
            abox = multi_component_abox(
                rng.randint(1, 6), rng.randint(2, 5),
                shape=rng.choice(("chain", "star", "random")),
                seed=trial)
            names = (sorted(abox.individuals)
                     + [f"x{i}" for i in range(4)])
            atoms = [(rng.choice(("R", "S")),
                      (rng.choice(names), rng.choice(names)))
                     for _ in range(rng.randint(1, 6))]
            atoms = [atom for atom in atoms if atom not in abox]
            if atoms:
                self._replay_matches_fresh_routing(
                    abox, rng.randint(2, 4), atoms)


class TestShardedParityAcrossEngines:
    def test_connected_queries_all_engines(self):
        tbox = example11_tbox()
        abox = workload_abox("mixed-small", scale=0.5, seed=4)
        with sharded(abox, shards=3) as session:
            for engine in ("python", "sql", "sql-views"):
                for query in CONNECTED_QUERIES:
                    omq = OMQ(tbox, query)
                    expected = answer(omq, abox, engine=engine).answers
                    got = session.answer(omq, engine=engine)
                    assert got.answers == expected, (engine, str(query))
                    assert got.shards == 3
                    assert set(got.shard_seconds) <= {0, 1, 2}

    def test_disconnected_queries_all_engines(self):
        tbox = example11_tbox()
        abox = random_data(5, individuals=10, atoms=30)
        with sharded(abox, shards=2) as session:
            for engine in ("python", "sql", "sql-views"):
                for query in DISCONNECTED_QUERIES:
                    omq = OMQ(tbox, query)
                    expected = answer(omq, abox, engine=engine).answers
                    got = session.answer(omq, engine=engine)
                    assert got.answers == expected, (engine, str(query))

    def test_shard_counts(self):
        tbox = example11_tbox()
        abox = workload_abox("chain-small", seed=6)
        omq = OMQ(tbox, chain_cq("RS"))
        expected = answer(omq, abox).answers
        for shards in (1, 2, 4, 7):
            with sharded(abox, shards=shards) as session:
                assert session.answer(omq).answers == expected

    def test_methods_and_stages(self):
        tbox = example11_tbox()
        abox = random_data(7, individuals=12, atoms=36)
        omq = OMQ(tbox, chain_cq("RSR"))
        with sharded(abox, shards=3) as session:
            for options in (AnswerOptions(method="lin"),
                            AnswerOptions(method="tw"),
                            AnswerOptions(method="ucq"),
                            AnswerOptions(method="perfectref"),
                            AnswerOptions(method="adaptive"),
                            AnswerOptions(method="log")):
                expected = answer(omq, abox, options=options).answers
                got = session.answer(omq, options=options)
                assert got.answers == expected, options


class TestShardedProperty:
    @SETTINGS
    @given(tbox=tboxes(), query=tree_queries(), abox=aboxes())
    def test_connected_parity(self, tbox, query, abox):
        omq = OMQ(tbox, query)
        expected = answer(omq, abox).answers
        with sharded(abox, shards=3) as session:
            assert session.answer(omq).answers == expected

    @SETTINGS
    @given(tbox=tboxes(), query=tree_queries(), other=tree_queries(),
           abox=aboxes())
    def test_disconnected_parity(self, tbox, query, other, abox):
        # two variable-disjoint tree CQs joined into one disconnected CQ
        renamed = CQ([Atom(atom.predicate,
                           tuple(f"w_{arg}" for arg in atom.args))
                      for atom in other.atoms],
                     tuple(f"w_{v}" for v in other.answer_vars))
        combined = CQ(tuple(query.atoms) + tuple(renamed.atoms),
                      query.answer_vars + renamed.answer_vars)
        omq = OMQ(tbox, combined)
        expected = answer(omq, abox).answers
        with sharded(abox, shards=2) as session:
            assert session.answer(omq).answers == expected

    @SETTINGS
    @given(tbox=tboxes(), query=tree_queries(), abox=aboxes())
    def test_update_sequence_parity(self, tbox, query, abox):
        rng = random.Random(0)
        omq = OMQ(tbox, query)
        names = [f"c{i}" for i in range(6)] + ["fresh0", "fresh1"]
        with sharded(ABox(abox.atoms()), shards=3) as session:
            for _ in range(4):
                atoms = [(rng.choice(("P", "Q")),
                          (rng.choice(names), rng.choice(names)))
                         for _ in range(rng.randint(1, 3))]
                if rng.random() < 0.4 and len(session.abox):
                    session.delete_facts(
                        [rng.choice(list(session.abox.atoms()))])
                session.insert_facts(atoms)
            # from-scratch load over the final data must agree
            final = ABox(session.abox.atoms())
            assert session.answer(omq).answers == answer(omq, final).answers


class TestShardedUpdates:
    def test_insert_merging_two_shards(self):
        tbox = example11_tbox()
        abox = ABox([("R", ("a", "b")), ("S", ("b", "c")),
                     ("R", ("x", "y")), ("S", ("y", "z"))])
        omq = OMQ(tbox, chain_cq("RS"))
        with sharded(abox, shards=2) as session:
            before = {session.partition.owner_of("a"),
                      session.partition.owner_of("x")}
            assert len(before) == 2  # two components on two shards
            session.insert_facts([("R", ("c", "x"))])  # bridges them
            owners = {session.partition.owner_of(c)
                      for c in ("a", "b", "c", "x", "y", "z")}
            assert len(owners) == 1
            expected = answer(omq, session.abox).answers
            assert session.answer(omq).answers == expected

    def test_delete_splitting_component(self):
        tbox = example11_tbox()
        abox = ABox([("R", ("a", "b")), ("S", ("b", "c")),
                     ("R", ("c", "d"))])
        omq = OMQ(tbox, chain_cq("RS"))
        with sharded(abox, shards=2) as session:
            session.delete_facts([("S", ("b", "c"))])  # splits the chain
            expected = answer(omq, session.abox).answers
            assert session.answer(omq).answers == expected
            # conservative: the pieces stay co-located
            assert (session.partition.owner_of("a")
                    == session.partition.owner_of("d"))

    def test_failed_delta_poisons_session(self):
        tbox = example11_tbox()
        abox = ABox([("R", ("a", "b")), ("S", ("b", "c"))])
        omq = OMQ(tbox, chain_cq("RS"))
        with sharded(abox, shards=2) as session:
            session.answer(omq)

            def broken_deltas(deltas):
                raise RuntimeError("worker rejected the delta")

            session._executor.apply_deltas = broken_deltas
            try:
                session.insert_facts([("R", ("x", "y"))])
                raise AssertionError("expected the update to fail")
            except RuntimeError:
                pass
            # shard data may diverge from the master now: answering
            # must refuse instead of silently returning stale answers
            try:
                session.answer(omq)
                raise AssertionError("expected the session to refuse")
            except RuntimeError as error:
                assert "unusable" in str(error)

    def test_update_result_counts(self):
        abox = ABox([("R", ("a", "b"))])
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        with sharded(abox, shards=2) as session:
            session.answer(omq)  # load the per-shard backends
            result = session.apply_update(
                inserts=[("R", ("a", "b")), ("S", ("m", "n"))],
                deletes=[("R", ("zz", "zz"))])
            assert result.inserted == 1  # R(a,b) already present
            assert result.deleted == 0   # R(zz,zz) absent
            assert result.backends_updated >= 1


class TestProcessExecutor:
    def test_parity_and_updates(self):
        tbox = example11_tbox()
        abox = workload_abox("star-small", scale=0.5, seed=8)
        omq = OMQ(tbox, chain_cq("RS"))
        with ShardedSession(abox, shards=2,
                            executor="process") as session:
            expected = answer(omq, abox).answers
            assert session.answer(omq).answers == expected
            assert session.answer(omq, engine="sql").answers == expected
            session.insert_facts([("R", ("p1", "p2")),
                                  ("S", ("p2", "p3"))])
            session.delete_facts([next(iter(abox.atoms()))])
            expected = answer(omq, session.abox).answers
            assert session.answer(omq).answers == expected

    def test_worker_error_does_not_kill_pool(self):
        abox = ABox([("R", ("a", "b"))])
        with ShardedSession(abox, shards=2,
                            executor="process") as session:
            plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")),
                               method="lin")
            broken = dataclasses.replace(plan, ndl=None)
            try:
                session.execute_plan(broken)
                raise AssertionError("expected the broken plan to fail")
            except (RuntimeError, TypeError, AttributeError):
                pass
            # the workers survive and keep answering
            assert session.execute_plan(plan).answers is not None

    def test_spawn_start_method_works(self):
        # the served path avoids fork in threaded parents; make sure
        # the pickled-worker start methods actually boot and answer
        from repro.shard.executor import ProcessExecutor

        abox = ABox([("R", ("a", "b")), ("S", ("b", "c"))])
        partition = Partition.build(abox, 1)
        executor = ProcessExecutor(partition.shard_aboxes(abox),
                                   start_method="spawn")
        try:
            plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")),
                               method="lin")
            results = executor.execute(plan)
            assert ("a", "c") in results[0].answers
        finally:
            executor.close()

    def test_dead_worker_fails_cleanly(self):
        abox = ABox([("R", ("a", "b")), ("R", ("c", "d"))])
        plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")),
                           method="lin")
        with ShardedSession(abox, shards=2,
                            executor="process") as session:
            executor = session._executor
            executor._processes[0].terminate()
            executor._processes[0].join(timeout=5)
            # the round fails with a clear error, not a raw EOFError...
            try:
                session.execute_plan(plan)
                raise AssertionError("expected the dead worker to fail")
            except RuntimeError as error:
                assert "worker" in str(error)
            # ...and later rounds refuse instead of wedging the pipes
            try:
                session.execute_plan(plan)
                raise AssertionError("expected the broken executor "
                                     "to refuse")
            except RuntimeError as error:
                assert "fresh" in str(error)


class TestMonolithicFallback:
    def test_undecomposable_plan_falls_back(self, caplog):
        tbox = example11_tbox()
        abox = random_data(9, individuals=8, atoms=24)
        # a disconnected CQ with a cyclic component: compiled with log,
        # then the options are forced to lin so the per-component
        # compilation fails and execution routes to the monolithic path
        query = CQ.parse("R(x, y), R(y, z), R(z, x), S(u, v)",
                         answer_vars=["x", "u"])
        omq = OMQ(tbox, query)
        plan = compile_omq(omq, method="log")
        forced = dataclasses.replace(plan,
                                     options=AnswerOptions(method="lin"))
        expected = answer(omq, abox, method="log").answers
        with sharded(abox, shards=2) as session:
            with caplog.at_level("WARNING", logger="repro.shard"):
                got = session.execute_plan(forced)
            assert got.answers == expected
            assert any("monolithic" in record.message
                       for record in caplog.records)


class TestServiceIntegration:
    def test_sharded_dataset_matches_monolithic(self):
        tbox = example11_tbox()
        data = random_data(10, individuals=14, atoms=40)
        omq = OMQ(tbox, chain_cq("RS"))
        with OMQService(shard_executor="serial") as service:
            service.register_dataset("mono", ABox(data.atoms()))
            service.register_dataset("shard", ABox(data.atoms()), shards=3)
            mono = service.answer("mono", omq, method="lin")
            shard = service.answer("shard", omq, method="lin")
            assert shard.answers == mono.answers
            service.update("mono", inserts=[("R", ("u1", "u2"))],
                           deletes=[("R", ("n1", "n2"))])
            service.update("shard", inserts=[("R", ("u1", "u2"))],
                           deletes=[("R", ("n1", "n2"))])
            assert (service.answer("shard", omq, method="lin").answers
                    == service.answer("mono", omq, method="lin").answers)
            stats = service.stats()
            assert stats["datasets"]["shard"]["shards"] == 3
            assert stats["datasets"]["mono"]["shards"] == 0
            assert stats["datasets"]["shard"]["sessions"] == {
                "sharded": 1}

    def test_failed_update_drops_pool_and_recovers(self):
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RS"))
        with OMQService(shard_executor="serial") as service:
            service.register_dataset("d", ABox([("R", ("a", "b"))]),
                                     shards=2)
            service.answer("d", omq)
            session = service._datasets["d"].all_sessions()[0]

            def broken_deltas(deltas):
                raise RuntimeError("worker rejected the delta")

            session._executor.apply_deltas = broken_deltas
            try:
                service.update("d", inserts=[("S", ("b", "c"))])
                raise AssertionError("expected the update to fail")
            except RuntimeError:
                pass
            # the master kept the update and the next answer serves it
            # from a freshly built session instead of staying bricked
            assert ("a", "c") in service.answer("d", omq).answers
            # ...so the tenant is charged for it: the account follows
            # the ABox, not the happy path
            stats = service.stats()
            assert stats["datasets"]["d"]["facts"] == 2
            assert stats["tenants"]["per_tenant"]["default"]["facts"] == 2

    def test_sharded_explain_does_not_boot_workers(self):
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RS"))
        with OMQService(shard_executor="serial") as service:
            service.register_dataset("d", ABox([("R", ("a", "b"))]),
                                     shards=2)
            report = service.explain(omq, method="adaptive", dataset="d")
            assert report["data_bound"]
            # compile-only: no ShardedSession (and no executor) built
            assert service._datasets["d"].all_sessions() == []

    def test_update_before_first_answer(self):
        tbox = example11_tbox()
        with OMQService(shard_executor="serial") as service:
            service.register_dataset("d", ABox([("R", ("a", "b"))]),
                                     shards=2)
            service.update("d", inserts=[("S", ("b", "c"))])
            omq = OMQ(tbox, chain_cq("RS"))
            assert ("a", "c") in service.answer("d", omq).answers

    def test_client_shards_passthrough(self):
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RS"))
        data = random_data(11)
        with Client.local(shard_executor="serial") as client:
            client.register_dataset("d", ABox(data.atoms()), shards=2)
            result = client.answer("d", omq)
            assert result.answers == answer(omq, data).answers
            assert result.shards == 2  # provenance survives the facade


class TestPlanIntegration:
    def test_shards_knob_on_abox(self):
        tbox = example11_tbox()
        abox = random_data(12, individuals=12, atoms=30)
        omq = OMQ(tbox, chain_cq("RS"))
        plan = compile_omq(omq, method="lin")
        mono = plan.execute(abox)
        sharded_result = plan.execute(
            abox, options=AnswerOptions(shards=3))
        assert sharded_result.answers == mono.answers
        assert sharded_result.shards == 3
        assert mono.shards == 0

    def test_execute_on_sharded_session(self):
        tbox = example11_tbox()
        abox = random_data(13)
        omq = OMQ(tbox, chain_cq("RS"))
        plan = compile_omq(omq, method="lin")
        with sharded(abox, shards=2) as session:
            assert (plan.execute(session).answers
                    == plan.execute(abox).answers)

    def test_disconnected_subplans_memoised(self):
        tbox = example11_tbox()
        abox = random_data(15, individuals=10, atoms=30)
        query = CQ.parse("R(x, y), S(u, v)", answer_vars=["x", "u"])
        omq = OMQ(tbox, query)
        plan = compile_omq(omq, method="log")
        with sharded(abox, shards=2) as session:
            first = session.execute_plan(plan)
            memo = session._sub_plans
            assert len(memo) == 1
            cached = next(iter(memo.values()))
            session.execute_plan(plan)
            assert next(iter(memo.values())) is cached  # reused, not rebuilt
            session.insert_facts([("R", ("m1", "m2"))])
            assert not memo  # updates invalidate the memo
            second = session.execute_plan(plan)
            assert second.answers == answer(omq, session.abox,
                                            method="log").answers
            assert first.answers <= second.answers

    def test_plan_pickle_roundtrip(self):
        plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")),
                           method="lin")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.fingerprint == plan.fingerprint
        assert dict(clone.timings) == dict(plan.timings)
        abox = random_data(14)
        assert clone.execute(abox).answers == plan.execute(abox).answers

    def test_options_validation(self):
        assert AnswerOptions(shards=4).shards == 4
        try:
            AnswerOptions(shards=-1)
            raise AssertionError("negative shards must be rejected")
        except ValueError:
            pass
        # shards never partitions the plan cache
        assert (AnswerOptions(shards=4).rewrite_fingerprint()
                == AnswerOptions().rewrite_fingerprint())


class TestWorkloadPresets:
    def test_deterministic_and_scaled(self):
        first = workload_abox("chain-small", seed=5)
        second = workload_abox("chain-small", seed=5)
        assert set(first.atoms()) == set(second.atoms())
        assert set(first.atoms()) != set(
            workload_abox("chain-small", seed=6).atoms())
        small = workload_abox("chain-large", scale=0.1, seed=5)
        assert len(small) < len(workload_abox("chain-large", seed=5))

    def test_component_structure(self):
        abox = multi_component_abox(8, 5, shape="star", seed=1)
        partition = Partition.build(abox, 8)
        assert partition.component_count() == 8
        chain = multi_component_abox(3, 4, shape="chain", seed=1,
                                     mark_probability=0.0)
        # a chain of n vertices has n-1 edges
        assert len(chain) == 3 * 3

    def test_unknown_preset(self):
        try:
            workload_abox("nope")
            raise AssertionError("unknown preset must raise")
        except ValueError as error:
            assert "nope" in str(error)


class TestSerialExecutorContract:
    def test_shard_results_carry_provenance(self):
        abox = multi_component_abox(4, 4, shape="chain", seed=2)
        partition = Partition.build(abox, 2)
        executor = SerialExecutor(partition.shard_aboxes(abox))
        try:
            plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")),
                               method="lin")
            results = executor.execute(plan)
            assert [result.shard for result in results] == [0, 1]
            assert all(result.seconds >= 0 for result in results)
        finally:
            executor.close()


class TestWorkerPlanTable:
    """A process worker gets a fresh unpickled copy of the plan with
    every ``execute``; its table makes the first copy that ran the
    canonical one, so the specialisation memo survives the pickle."""

    @staticmethod
    def _copy(plan):
        return pickle.loads(pickle.dumps(plan))

    def test_copies_resolve_to_the_first_that_executed(self):
        plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")),
                           method="lin")
        table = _PlanTable()
        with AnswerSession(ABox([("R", ("a", "b")),
                                 ("S", ("b", "c"))])) as session:
            first = table.resolve(self._copy(plan))
            assert not first._specialisations
            assert ("a", "c") in first.execute(session).answers
            # not kept until told it ran: an equal copy is still new
            assert table.resolve(self._copy(plan)) is not first
            table.keep(first)
            second = table.resolve(self._copy(plan))
            assert second is first and second._specialisations
            # a new plan over an equal TBox shares the first's object
            other = table.resolve(self._copy(compile_omq(
                OMQ(example11_tbox(), chain_cq("SR")), method="lin")))
            assert other.omq.tbox is first.omq.tbox

    def test_a_plan_that_raised_is_not_kept(self):
        # what the worker loop does with a broken plan sent under a
        # good plan's fingerprint: resolve, execute raises, no keep
        plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")),
                           method="lin")
        broken = dataclasses.replace(plan, ndl=None)
        assert broken.fingerprint == plan.fingerprint
        table = _PlanTable()
        table.resolve(self._copy(broken))
        good = table.resolve(self._copy(plan))
        assert good.ndl is not None
        table.keep(good)
        assert table.resolve(self._copy(broken)) is good

    def test_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(shard_executor, "PLANS_KEPT", 3)
        table = _PlanTable()
        tbox = example11_tbox()
        for length in range(1, 9):
            table.keep(table.resolve(compile_omq(
                OMQ(tbox, chain_cq("RS" * length)), method="lin")))
            assert len(table._plans) <= 3
        # re-keeping a kept plan at the bound evicts nothing
        table = _PlanTable()
        plans = [compile_omq(OMQ(tbox, chain_cq("RS" * length)),
                             method="lin") for length in (1, 2, 3)]
        for _ in range(2):
            for plan in plans:
                table.keep(table.resolve(plan))
        assert len(table._plans) == 3


class TestExecutorGuards:
    """Regression coverage for satellite fixes: out-of-range shard
    selection must raise, closed executors must refuse clearly, and
    ``create_executor`` must honour ``start_method``/``transport``."""

    def test_selected_rejects_out_of_range(self):
        abox = multi_component_abox(4, 4, shape="chain", seed=2)
        partition = Partition.build(abox, 2)
        executor = SerialExecutor(partition.shard_aboxes(abox))
        try:
            fact = [("R", ("p", "q"))]
            for bad in ({2: (fact, [])}, {-1: (fact, [])},
                        {0: (fact, []), 5: (fact, [])}):
                try:
                    executor.apply_deltas(bad)
                    raise AssertionError(f"{bad} must be rejected")
                except ValueError as error:
                    assert "out of range" in str(error)
            # ...before any shard took its share: shard 0 is unpatched
            assert fact[0] not in executor._sessions[0].abox
            # in-range routing still works
            assert len(executor.apply_deltas({1: (fact, [])})) == 1
        finally:
            executor.close()

    def test_closed_serial_executor_refuses(self):
        executor = SerialExecutor([ABox([("R", ("a", "b"))])])
        plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")),
                           method="lin")
        executor.close()
        for call in (lambda: executor.execute(plan),
                     lambda: executor.apply_deltas({})):
            try:
                call()
                raise AssertionError("closed executor must refuse")
            except RuntimeError as error:
                assert "closed" in str(error)

    def test_closed_process_executor_refuses(self):
        from repro.shard.executor import ProcessExecutor

        executor = ProcessExecutor([ABox([("R", ("a", "b"))])])
        plan = compile_omq(OMQ(example11_tbox(), chain_cq("RS")),
                           method="lin")
        executor.close()
        executor.close()  # idempotent
        try:
            executor.execute(plan)
            raise AssertionError("closed executor must refuse")
        except RuntimeError as error:
            assert "closed" in str(error)

    def test_create_executor_start_method_passthrough(self):
        from repro.shard.executor import create_executor

        aboxes = [ABox([("R", ("a", "b"))])]
        executor = create_executor("process", aboxes,
                                   start_method="spawn")
        try:
            assert executor.start_method == "spawn"
            assert executor.transport == "shm"
        finally:
            executor.close()
        executor = create_executor("process", aboxes,
                                   start_method="fork")
        try:
            assert executor.start_method == "fork"
            assert executor.transport == "pickle"  # fork inherits free
        finally:
            executor.close()

    def test_create_executor_rejects_https(self):
        from repro.shard.executor import create_executor

        # executors are local: a worker URL is not a kind
        for kind in ("https://worker", "http://worker"):
            try:
                create_executor(kind, [ABox()])
                raise AssertionError("URL kinds must be rejected")
            except ValueError as error:
                assert "unknown executor" in str(error)

    def test_session_start_method_reaches_executor(self):
        abox = ABox([("R", ("a", "b")), ("R", ("c", "d"))])
        with ShardedSession(abox, shards=2, executor="process",
                            start_method="forkserver") as session:
            assert session._executor.start_method == "forkserver"
            assert session.stats()["transport"] == "shm"


class TestShmTransport:
    def test_fact_array_roundtrip(self):
        from repro.shard.transport import (decode_fact_arrays,
                                           encode_fact_arrays)

        abox = random_data(31, individuals=12, atoms=40)
        abox.add("Solo", "☃ unicode name")
        clone = ABox.from_fact_arrays(
            decode_fact_arrays(encode_fact_arrays(abox.to_fact_arrays())))
        assert set(clone.atoms()) == set(abox.atoms())

    def test_empty_abox_roundtrip(self):
        from repro.shard.transport import SharedABox, attach_abox

        shared = SharedABox(ABox())
        try:
            assert len(attach_abox(shared.descriptor)) == 0
        finally:
            shared.close()
            shared.close()  # idempotent

    def test_shared_segment_attach_parity(self):
        from repro.shard.transport import SharedABox, attach_abox

        abox = random_data(32, individuals=10, atoms=30)
        shared = SharedABox(abox)
        try:
            clone = attach_abox(shared.descriptor)
            assert set(clone.atoms()) == set(abox.atoms())
        finally:
            shared.close()

    def test_database_from_arrays_parity(self):
        from repro.engine.database import Database

        abox = random_data(33, individuals=10, atoms=30)
        fresh = Database(abox)
        adopted = Database.from_arrays(abox.to_fact_arrays())
        assert set(adopted.predicates) == set(fresh.predicates)
        for predicate in fresh.predicates:
            assert (adopted.decode_rows(adopted.relation(predicate))
                    == fresh.decode_rows(fresh.relation(predicate)))


class TestShmParity:
    """The tentpole invariant: shm transport == pickle transport ==
    monolithic, for random data and after random update sequences."""

    @SETTINGS
    @given(tbox=tboxes(), query=tree_queries(), abox=aboxes())
    def test_transports_agree_with_monolithic(self, tbox, query, abox):
        rng = random.Random(1)
        omq = OMQ(tbox, query)
        names = [f"c{i}" for i in range(6)] + ["fresh0", "fresh1"]
        sessions = [
            ShardedSession(ABox(abox.atoms()), shards=2,
                           executor="process", start_method="fork",
                           transport=transport)
            for transport in ("shm", "pickle")]
        try:
            expected = answer(omq, abox).answers
            for session in sessions:
                assert session.answer(omq).answers == expected
            inserts = [(rng.choice(("P", "Q")),
                        (rng.choice(names), rng.choice(names)))
                       for _ in range(3)]
            deletes = ([rng.choice(list(abox.atoms()))]
                       if len(abox) else [])
            for session in sessions:
                session.apply_update(inserts=inserts, deletes=deletes)
            final = ABox(sessions[0].abox.atoms())
            expected = answer(omq, final).answers
            for session in sessions:
                assert set(session.abox.atoms()) == set(final.atoms())
                assert session.answer(omq).answers == expected
        finally:
            for session in sessions:
                session.close()

    def test_engines_agree_under_shm(self):
        tbox = example11_tbox()
        abox = workload_abox("mixed-small", scale=0.5, seed=34)
        omq = OMQ(tbox, chain_cq("RS"))
        with ShardedSession(abox, shards=3, executor="process",
                            start_method="fork",
                            transport="shm") as session:
            for engine in ("python", "sql"):
                expected = answer(omq, abox, engine=engine).answers
                assert (session.answer(omq, engine=engine).answers
                        == expected), engine


class TestAutoShards:
    def test_auto_shards_uses_cpu_and_weight_floor(self):
        from repro.shard.partition import auto_shards

        # 4 equal components x 128 atoms: the 256-atom weight floor
        # caps the count at 2 even with 4 CPUs and 4 components
        abox = multi_component_abox(4, 129, shape="chain", seed=1,
                                    mark_probability=0.0)
        assert auto_shards(abox, available=4) == 2
        assert auto_shards(abox, available=1) == 1

    def test_auto_shards_backs_off_on_skew(self):
        from repro.shard.partition import auto_shards

        # one dominant component: any K >= 2 is hopelessly imbalanced
        abox = multi_component_abox(1, 600, shape="chain", seed=2,
                                    mark_probability=0.0)
        for index in range(3):
            abox.add("R", f"t{index}_0", f"t{index}_1")
        assert auto_shards(abox, available=8) == 1

    def test_auto_shards_empty_abox(self):
        from repro.shard.partition import auto_shards

        assert auto_shards(ABox(), available=8) == 1

    def test_session_accepts_auto(self):
        tbox = example11_tbox()
        abox = multi_component_abox(4, 129, shape="chain", seed=3)
        omq = OMQ(tbox, chain_cq("RS"))
        with sharded(abox, shards="auto") as session:
            stats = session.stats()
            assert stats["adaptive"] is True
            assert session.shards >= 1
            assert (session.answer(omq).answers
                    == answer(omq, abox).answers)

    def test_options_accept_auto(self):
        assert AnswerOptions(shards="auto").shards == "auto"
        for bad in ("bogus", 1.5, -2):
            try:
                AnswerOptions(shards=bad)
                raise AssertionError(f"{bad!r} must be rejected")
            except ValueError:
                pass
        # orchestration knobs never partition the plan cache
        assert (AnswerOptions(shards="auto").rewrite_fingerprint()
                == AnswerOptions().rewrite_fingerprint())


class TestDatasetDrop:
    def test_local_unregister(self):
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        with Client.local() as client:
            client.register_dataset("d", ABox([("R", ("a", "b")),
                                               ("S", ("b", "c"))]))
            assert ("a", "c") in client.answer("d", omq).answers
            client.unregister_dataset("d")
            try:
                client.answer("d", omq)
                raise AssertionError("dropped dataset must be unknown")
            except (KeyError, ValueError) as error:
                assert "d" in str(error)

    def test_http_unregister(self):
        from repro.service.aserve import serve_in_background

        omq = OMQ(example11_tbox(), chain_cq("RS"))
        with OMQService() as service:
            with serve_in_background(service) as server:
                with Client.connect(server.url) as client:
                    client.register_dataset(
                        "d", ABox([("R", ("a", "b")), ("S", ("b", "c"))]))
                    assert ("a", "c") in client.answer("d", omq).answers
                    client.unregister_dataset("d")
                    assert "d" not in service.datasets()
                    try:
                        client.unregister_dataset("d")
                        raise AssertionError("double drop must 404")
                    except Exception as error:
                        assert "unknown dataset" in str(error)
