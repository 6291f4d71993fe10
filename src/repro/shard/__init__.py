"""repro.shard: component-based data sharding with a parallel
scatter-gather plan executor.

Architecture, in one paragraph: a homomorphic image of a *connected*
CQ lies inside one connected component of the data's Gaifman graph,
and the OWL 2 QL completion never bridges components (every entailed
atom mentions only individuals of a single base atom) — so when shards
are unions of whole components, the certain answers of a connected OMQ
over the instance are exactly the union of its certain answers per
shard.  :class:`~repro.shard.partition.Partition` computes the
components with a union-find and packs them into ``K`` balanced
buckets (largest-first onto the lightest shard, hash-stable
tie-breaks); an :mod:`executor <repro.shard.executor>` holds one
loaded per-shard engine per shard — persistent worker *processes* for
real parallelism, or an in-process serial reference — and broadcasts
frozen :class:`~repro.rewriting.plan.Plan` objects scatter-gather;
:class:`~repro.shard.session.ShardedSession` fronts it with the
``AnswerSession`` surface, unioning per-shard
:class:`~repro.rewriting.plan.Answers` with merged timings and
per-shard provenance.  Disconnected CQs are split into component
sub-OMQs recombined by cross product, and anything that resists the
decomposition is routed to a monolithic fallback session with a
logged reason.  Incremental updates route deltas to the owning
shards; an insertion that merges two components rebalances (the
lighter component's atoms move to the heavier one's shard), while a
deletion that splits a component leaves the pieces co-located — a
conservative refinement that still respects components.

Constant factors are engineered down at three points.  Worker
start-up under ``spawn``/``forkserver`` ships each shard through the
shared-memory fact transport (:mod:`repro.shard.transport`): one
``multiprocessing.shared_memory`` segment of interned fact arrays per
shard, attached and decoded by the worker with no per-atom pickling,
and adopted wholesale by the engine layer
(:meth:`~repro.engine.database.Database.from_arrays`).  The gather
side streams answer tuples back in fixed-size chunks, so the parent
unions incrementally instead of unpickling one monolithic frozenset
per shard.  And ``shards="auto"`` sizes the partition from the live
CPU count and the component-weight skew
(:func:`~repro.shard.partition.auto_shards`), resharding in place
when a rebalancing update changes the layout.
"""

from .executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ShardResult,
    create_executor,
)
from .partition import Partition, auto_shards
from .session import ShardedSession

__all__ = [
    "Executor",
    "Partition",
    "ProcessExecutor",
    "SerialExecutor",
    "ShardResult",
    "ShardedSession",
    "auto_shards",
    "create_executor",
]
