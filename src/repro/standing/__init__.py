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
  plan and the epoch it joined at; the subscriptions of one dataset
  object that share a plan and an engine are a group, with one
  :class:`~repro.standing.registry.GroupLog`: the materialized answers,
  an *epoch watermark* (the dataset epoch they reflect) and one bounded
  :class:`~repro.standing.registry.AnswerDelta` history per group.  The
  thread-safe :class:`~repro.standing.registry.StandingRegistry` files
  the logs per dataset object, and delivery is a long-poll over a
  member's group log (``POST /poll`` with ``since_epoch``): a poll
  replays exactly the group's deltas after its watermark, or gets a
  full-snapshot resync when it asks past the history or from before
  the member joined.

* :mod:`repro.standing.maintain` — the math.  After an update, each
  group whose rewriting mentions a changed predicate — mapped through
  the plan's data variant: raw, completed (exact delta or
  per-atom-closure over-approximation), plus ``__adom__`` — is
  refreshed once.  A group keeps one view: (python engine) the IDB
  relations of the plan specialised to the live data's nonempty
  signature, which follow the update by delta clauses — the
  evaluator's compiled clauses seeded by what the engine journalled —
  so a pass costs the change, not the program, and yields the group's
  exact delta, committed once to its log.  The SQLite engine refreshes
  through :meth:`Plan.execute <repro.rewriting.plan.Plan.execute>` and
  a diff.

Maintenance is the ``standing`` stage of the update sequence
(:meth:`repro.service.dataset.Dataset.apply`): it runs inside the
dataset's writer-lock critical section — the same one that bumps the
epoch — so a subscriber can never observe a torn epoch: every delta it
receives corresponds to exactly one applied update.  That method also
owns the failure story: a refresh that fails marks its group
``stale`` and drops its view, a failed update resyncs every group to
the data as it now is.
"""

from .maintain import variant_changed_predicates
from .registry import AnswerDelta, StandingQuery, StandingRegistry

__all__ = [
    "AnswerDelta",
    "StandingQuery",
    "StandingRegistry",
    "variant_changed_predicates",
]
