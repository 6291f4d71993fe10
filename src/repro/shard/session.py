"""``ShardedSession``: the :class:`~repro.rewriting.api.AnswerSession`
surface over a component-sharded data instance.

Scatter-gather evaluation rests on the component-locality argument
(see :mod:`repro.shard`): for a *connected* CQ the compiled plan is
broadcast unchanged to every shard and the per-shard certain answers
are unioned.  A *disconnected* CQ does not split that way — an
answer may combine constants from different shards — so it is split
into its connected components, each component sub-OMQ is compiled and
scattered independently, and the per-component answer sets are
recombined by cross product (components without answer variables act
as boolean filters).  Anything that resists that decomposition is
routed to a lazily-built monolithic session with a logged reason — the
documented single-shard fallback.

Incremental updates thread through :class:`~repro.shard.partition
.Partition`: deltas are routed to the owning shards, and an insertion
that merges two components triggers a rebalance (the lighter
component's atoms move to the heavier one's shard) inside the same
update round.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

from ..data.abox import ABox, GroundAtom
from ..obs import trace as _trace
from ..rewriting.api import OMQ, AnswerSession
from ..rewriting.plan import AnswerOptions, Answers, Plan, compile_omq
from ..service.updates import UpdateDelta, UpdateResult, _dedup
from .executor import create_executor
from .partition import Partition, auto_shards

log = logging.getLogger("repro.shard")


class ShardedSession:
    """Answer many OMQs over one data instance split into ``shards``.

    Drop-in for :class:`~repro.rewriting.api.AnswerSession` where it
    matters — ``compile`` / ``answer`` / ``apply_update`` /
    ``insert_facts`` / ``delete_facts`` / context manager — plus
    :meth:`execute_plan`, the scatter-gather entry point
    ``Plan.execute`` dispatches to.

    ``executor`` is ``"process"`` (persistent worker processes, true
    parallelism), ``"serial"`` (in-process reference implementation)
    or ``"auto"`` (processes on multi-core machines).  The session owns
    the master ABox: updates mutate it in place and route deltas to the
    owning shards.

    ``shards`` may be ``"auto"``: the count is picked by
    :func:`~repro.shard.partition.auto_shards` from the usable CPUs
    and the component-weight skew, and re-evaluated whenever an update
    rebalances components across shards (the session reshards in
    place).  ``start_method`` and ``transport`` configure
    process-backed executors (see
    :class:`~repro.shard.executor.ProcessExecutor`).
    """

    def __init__(self, abox: ABox, shards, engine: str = "python",
                 executor: str = "auto", rewriting_cache=None,
                 start_method: Optional[str] = None,
                 transport: Optional[str] = None):
        self.abox = abox
        self.engine = engine
        self.adaptive_shards = shards == "auto"
        if self.adaptive_shards:
            shards = auto_shards(abox)
        self.shards = shards
        self.rewriting_cache = rewriting_cache
        self._executor_kind_requested = executor
        self._start_method = start_method
        self._transport = transport
        #: times the session re-partitioned itself (``shards="auto"``)
        self.reshards = 0
        self.partition = Partition.build(abox, shards)
        self._executor = create_executor(
            executor, self.partition.shard_aboxes(abox), engine,
            start_method=start_method, transport=transport)
        #: one loaded backend per shard (surface parity with
        #: ``AnswerSession.data_loads``)
        self.data_loads = shards
        self._lock = threading.RLock()
        #: set when an update partially failed: shard data may diverge
        #: from the master, so the session refuses to answer
        self._poisoned: Optional[str] = None
        #: the documented fallback path: a monolithic session built
        #: lazily for plans that do not split (dropped on update)
        self._fallback: Optional[AnswerSession] = None
        #: tbox fingerprint -> (tbox, completion of the master ABox);
        #: only ``adaptive`` compilation needs it
        self._completions: Dict[str, Tuple[object, ABox]] = {}
        #: memoised component sub-plans of disconnected-CQ plans,
        #: keyed by (plan fingerprint, concrete CQ) — the concrete CQ
        #: disambiguates renamed-but-isomorphic queries, whose
        #: fingerprints collide on purpose but whose answer-variable
        #: *names* drive the cross-product recombination
        self._sub_plans: Dict[object,
                              List[Tuple[Tuple[str, ...], Plan]]] = {}

    @property
    def executor_kind(self) -> str:
        return self._executor.kind

    # -- compilation -------------------------------------------------------

    def _master_completion(self, tbox) -> ABox:
        from ..fingerprint import tbox_fingerprint

        key = tbox_fingerprint(tbox)
        entry = self._completions.get(key)
        if entry is None:
            entry = self._completions.setdefault(
                key, (tbox, self.abox.complete(tbox)))
        return entry[1]

    def compile(self, omq: OMQ, options=None, **overrides) -> Plan:
        """Compile ``omq`` exactly as a monolithic session would.

        Compilation never looks at the data and the plan is shared
        with every shard; each shard's engine then specialises it to
        its own nonempty signature at execute.  Only ``adaptive``
        consults a completion of the *master* ABox — global statistics,
        computed once per TBox — and the method it picks is a correct
        rewriting on every shard.
        """
        options = AnswerOptions.coerce(options, **overrides)
        data = (self._master_completion(omq.tbox)
                if options.data_dependent else None)
        return compile_omq(omq, options, data=data,
                           cache=self.rewriting_cache)

    def answer(self, omq: OMQ, options=None, **overrides) -> Answers:
        """Certain answers to ``omq``; the ``AnswerSession.answer``
        signature over the sharded execution path."""
        options = AnswerOptions.coerce(options, **overrides)
        plan = self.compile(omq, options)
        return self.execute_plan(plan, options=options)

    # -- scatter-gather execution ------------------------------------------

    def execute_plan(self, plan: Plan, engine: Optional[str] = None,
                     options: Optional[AnswerOptions] = None) -> Answers:
        """Run a compiled plan scatter-gather and merge the results.

        The same knob precedence as ``Plan.execute``: ``engine`` beats
        ``options.engine`` beats the plan's compile-time options.
        """
        effective = plan.options if options is None else options
        engine_name = engine or effective.engine or self.engine
        cq = plan.omq.query
        with self._lock:
            self._check_usable()
            started = time.perf_counter()
            with _trace.span("execute") as exec_span:
                exec_span.attrs["shards"] = self.shards
                exec_span.attrs["engine"] = engine_name
                if cq.is_connected:
                    rounds = [self._executor.execute(plan,
                                                     engine=engine_name)]
                    answers = frozenset().union(
                        *(result.answers for result in rounds[0]))
                else:
                    try:
                        sub_plans = self._component_plans(plan)
                    except Exception as error:
                        log.warning(
                            "disconnected CQ %s does not split (%s); "
                            "falling back to monolithic execution",
                            cq, error)
                        return self._execute_fallback(plan, engine_name,
                                                      options)
                    rounds = []
                    component_sets = []
                    for _, sub_plan in sub_plans:
                        results = self._executor.execute(
                            sub_plan, engine=engine_name)
                        rounds.append(results)
                        component_sets.append(frozenset().union(
                            *(result.answers for result in results)))
                    answers = _cross_product(
                        cq.answer_vars,
                        [vars_t for vars_t, _ in sub_plans],
                        component_sets)
                # graft each shard's worker-recorded spans in as
                # ``shard-N`` children of the open ``execute`` span
                for results in rounds:
                    for result in results:
                        _trace.record(f"shard-{result.shard}",
                                      result.seconds, result.spans)
            elapsed = time.perf_counter() - started
        return self._merge(plan, answers, rounds, elapsed, engine_name,
                           effective)

    def _component_plans(self, plan: Plan
                         ) -> List[Tuple[Tuple[str, ...], Plan]]:
        """One compiled plan per connected component of the CQ, each
        carrying the component's answer-variable tuple.

        Memoised per (plan, concrete CQ) so a disconnected plan keeps
        the compile-once/execute-many contract across repeated
        ``execute_plan`` calls; updates clear the memo (``adaptive``
        sub-compilations consult the master completion).
        """
        key = (plan.fingerprint, plan.omq.query)
        memoised = self._sub_plans.get(key)
        if memoised is not None:
            return memoised
        cq = plan.omq.query
        sub_plans = []
        for component in sorted(cq.connected_components(), key=min):
            answer_vars = tuple(v for v in cq.answer_vars
                                if v in component)
            sub_cq = cq.restrict_to(component, answer_vars)
            sub_plans.append(
                (answer_vars,
                 self.compile(OMQ(plan.omq.tbox, sub_cq), plan.options)))
        self._sub_plans[key] = sub_plans
        return sub_plans

    def _execute_fallback(self, plan: Plan, engine_name: str,
                          options: Optional[AnswerOptions]) -> Answers:
        if self._fallback is None:
            log.warning("building monolithic fallback session over %r",
                        self.abox)
            self._fallback = AnswerSession(
                self.abox, engine=self.engine,
                rewriting_cache=self.rewriting_cache)
            self.data_loads += 1
        return plan.execute(self._fallback, engine=engine_name,
                            options=options)

    def _merge(self, plan: Plan, answers, rounds, elapsed: float,
               engine_name: str, effective: AnswerOptions) -> Answers:
        shard_seconds: Dict[int, float] = {}
        generated = 0
        relation_sizes: Dict[str, int] = {}
        for results in rounds:
            for result in results:
                shard_seconds[result.shard] = (
                    shard_seconds.get(result.shard, 0.0) + result.seconds)
                generated += result.generated_tuples
                for name, size in result.relation_sizes.items():
                    relation_sizes[name] = (
                        relation_sizes.get(name, 0) + size)
        timeout = effective.timeout
        return Answers(answers=answers, generated_tuples=generated,
                       relation_sizes=relation_sizes, seconds=elapsed,
                       engine=engine_name, method=plan.method,
                       plan_fingerprint=plan.fingerprint,
                       timed_out=timeout is not None and elapsed > timeout,
                       shards=self.shards,
                       shard_seconds=shard_seconds)

    # -- incremental updates -----------------------------------------------

    def apply_update(self,
                     inserts: Iterable[GroundAtom] = (),
                     deletes: Iterable[GroundAtom] = ()) -> UpdateResult:
        """Mutate the sharded data in place; deletions apply first.

        Deltas are routed to the owning shards; an insertion bridging
        two shards moves the lighter component over (see
        :meth:`Partition.route_inserts`), all inside one round, so
        every worker sees exactly the atoms a fresh partition of the
        final data would give it.
        """
        with self._lock:
            self._check_usable()
            result = UpdateResult()
            effective_deletes = [atom for atom in _dedup(deletes)
                                 if atom in self.abox]
            for predicate, args in effective_deletes:
                self.abox.discard(predicate, *args)
            shard_deletes = self.partition.route_deletes(effective_deletes)
            result.deleted = len(effective_deletes)

            effective_inserts = [atom for atom in _dedup(inserts)
                                 if atom not in self.abox]
            shard_inserts, moved = self.partition.route_inserts(
                effective_inserts, self.abox)
            for predicate, args in effective_inserts:
                self.abox.add(predicate, *args)
            result.inserted = len(effective_inserts)

            deltas: Dict[int, Tuple[List, List]] = {}
            for shard in (set(shard_deletes) | set(shard_inserts)
                          | set(moved)):
                deltas[shard] = (
                    shard_inserts.get(shard, []),
                    shard_deletes.get(shard, []) + moved.get(shard, []))
            # the delta as standing-query maintenance sees it: every
            # atom whose *shard-local* extension changed — including
            # rebalance moves, which relocate atoms of predicates the
            # global update never named — and both ends of each move.
            # Completion / adom effects happen inside the shard
            # workers, so record the sound conservative summary.
            delta_atoms = list(effective_deletes)
            moved_atoms = {atom for atoms in moved.values()
                           for atom in atoms}
            delta_atoms.extend(moved_atoms)
            delta_atoms.extend(effective_inserts)
            result.delta = UpdateDelta(
                atoms=_dedup(delta_atoms),
                deletes=bool(effective_deletes or moved_atoms),
                adom_changed=bool(delta_atoms))
            try:
                if deltas:
                    for outcome in self._executor.apply_deltas(deltas):
                        result.completion_inserted += outcome.get(
                            "completion_inserted", 0)
                        result.completion_deleted += outcome.get(
                            "completion_deleted", 0)
                        result.backends_updated += outcome.get(
                            "backends_updated", 0)
            except Exception:
                # the master ABox and partition already hold the
                # update, but some shard may not: answering from this
                # state would be silently wrong, so refuse from now on
                self._poisoned = (
                    "an update delta failed on a shard worker; shard "
                    "data may diverge from the master")
                log.error("poisoning sharded session: %s",
                          self._poisoned)
                raise
            finally:
                # master-level caches are stale either way: the
                # fallback session's backends and the compile-time
                # completions are rebuilt lazily from the updated ABox
                if self._fallback is not None:
                    self._fallback.close()
                    self._fallback = None
                self._completions.clear()
                self._sub_plans.clear()
            if self.adaptive_shards and moved:
                # a rebalancing update changed the component layout:
                # re-evaluate the adaptive count and reshard if it moved
                wanted = auto_shards(self.abox)
                if wanted != self.shards:
                    self._reshard(wanted)
            return result

    def _reshard(self, shards: int) -> None:
        """Swap in a fresh partition + executor over ``shards`` buckets
        (build first, then tear down the old executor, so a failed
        build leaves the session running at the old count)."""
        partition = Partition.build(self.abox, shards)
        executor = create_executor(
            self._executor_kind_requested,
            partition.shard_aboxes(self.abox), self.engine,
            start_method=self._start_method, transport=self._transport)
        old = self._executor
        self.partition = partition
        self._executor = executor
        self.shards = shards
        self.reshards += 1
        self.data_loads += shards
        log.info("resharded to %d shard(s) after rebalancing update",
                 shards)
        try:
            old.close()
        except Exception:
            log.exception("closing the pre-reshard executor failed")

    def _check_usable(self) -> None:
        if self._poisoned is not None:
            raise RuntimeError(
                f"sharded session is unusable: {self._poisoned}; "
                "build a fresh session over the master data")

    def insert_facts(self, atoms: Iterable[GroundAtom]) -> UpdateResult:
        """Insert ground atoms (see :meth:`apply_update`)."""
        return self.apply_update(inserts=atoms)

    def delete_facts(self, atoms: Iterable[GroundAtom]) -> UpdateResult:
        """Delete ground atoms (see :meth:`apply_update`)."""
        return self.apply_update(deletes=atoms)

    def pinned_constants(self):
        """Surface parity with ``AnswerSession`` (sharded sessions do
        not support OBDA side tables)."""
        return frozenset()

    # -- stats and lifecycle -----------------------------------------------

    def stats(self) -> Dict[str, object]:
        stats = self.partition.stats()
        stats["executor"] = self._executor.kind
        stats["facts"] = len(self.abox)
        stats["adaptive"] = self.adaptive_shards
        stats["reshards"] = self.reshards
        transport = getattr(self._executor, "transport", None)
        if transport is not None:
            stats["transport"] = transport
        return stats

    def close(self) -> None:
        with self._lock:
            self._executor.close()
            if self._fallback is not None:
                self._fallback.close()
                self._fallback = None

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ShardedSession({self.abox!r}, shards={self.shards}, "
                f"engine={self.engine!r}, "
                f"executor={self._executor.kind!r})")


def _cross_product(answer_vars: Tuple[str, ...],
                   var_tuples: List[Tuple[str, ...]],
                   sets: List[frozenset]) -> frozenset:
    """Recombine per-component answer sets.

    Each component binds its own answer variables; the certain answers
    of the whole CQ are all combinations, reordered to the original
    answer tuple.  A component with no answer variables contributes
    ``{()}`` (satisfied) or ``{}`` (unsatisfied, emptying the product)
    — the boolean-filter semantics.
    """
    combined = set()
    for combo in itertools.product(*sets):
        env: Dict[str, str] = {}
        for vars_t, row in zip(var_tuples, combo):
            env.update(zip(vars_t, row))
        combined.add(tuple(env[v] for v in answer_vars))
    return frozenset(combined)
