"""``repro.standing`` — standing OMQs: answers maintained across
updates, and long-poll delivery of their deltas.

The paper's compile-once rewriting makes an OMQ a persistent object;
this package makes its *answers* persistent too.  A subscriber
registers ``(dataset, OMQ, options)`` once and thereafter receives
exactly the answer tuples each data update added or removed — N
subscribers cost one maintenance pass per update, not N re-queries.

Architecture (two modules, wired through the service layer):

* :mod:`repro.standing.registry` — the state.  A
  :class:`~repro.standing.registry.StandingQuery` holds the compiled
  plan, the materialized answer set and an *epoch watermark* (the
  dataset epoch the materialization reflects); the thread-safe
  :class:`~repro.standing.registry.StandingRegistry` indexes
  subscriptions per dataset *and* per EDB predicate of the rewriting,
  so an update only visits the subscriptions it can affect.  Each
  subscription keeps a bounded
  :class:`~repro.standing.registry.AnswerDelta` history, and delivery
  is a long-poll over it (``POST /poll`` with ``since_epoch``): a poll
  replays exactly the deltas after its watermark, or gets a
  full-snapshot resync when it asks past the history.

* :mod:`repro.standing.maintain` — the math.  After an update, each
  subscription whose rewriting mentions a changed predicate — mapped
  through the plan's data variant: raw, completed (exact delta or
  per-atom-closure over-approximation), plus ``__adom__`` — is
  refreshed with its plan group, the subscriptions sharing a plan and
  an engine.  A group keeps one view: the answers and (python engine)
  the IDB relations of the plan specialised to the live data's
  nonempty signature, which follow the update by delta clauses — the
  evaluator's compiled clauses seeded by what the engine journalled —
  so a pass costs the change, not the program, and yields the group's
  exact delta for every member.  The SQLite engine refreshes through
  :meth:`Plan.execute <repro.rewriting.plan.Plan.execute>` and a diff.

Maintenance is the ``standing`` stage of the update sequence
(:meth:`repro.service.dataset.Dataset.apply`): it runs inside the
dataset's writer-lock critical section — the same one that bumps the
epoch — so a subscriber can never observe a torn epoch: every delta it
receives corresponds to exactly one applied update.  That method also
owns the failure story: a refresh that fails marks its group's
subscriptions ``stale`` and drops its view, a failed update resyncs
every subscription to the data as it now is.
"""

from .maintain import variant_changed_predicates
from .registry import AnswerDelta, StandingQuery, StandingRegistry

__all__ = [
    "AnswerDelta",
    "StandingQuery",
    "StandingRegistry",
    "variant_changed_predicates",
]
