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
  per-atom-closure over-approximation), plus ``__adom__`` — has its
  plan re-executed through :meth:`Plan.execute
  <repro.rewriting.plan.Plan.execute>`, the route that serves
  ``/answer``, specialised to the live data's nonempty signature.
  One pass executes a plan once
  however many subscribers share it, and the new answers are diffed
  against the materialization, so inserts and deletes need no separate
  cases.

Maintenance is the ``standing`` stage of the update sequence
(:meth:`repro.service.dataset.Dataset.apply`): it runs inside the
dataset's writer-lock critical section — the same one that bumps the
epoch — so a subscriber can never observe a torn epoch: every delta it
receives corresponds to exactly one applied update.  That method also
owns the failure story: a refresh that fails marks its subscription
``stale``, a failed update resyncs every subscription to the data as
it now is.
"""

from .maintain import variant_changed_predicates
from .registry import AnswerDelta, StandingQuery, StandingRegistry

__all__ = [
    "AnswerDelta",
    "StandingQuery",
    "StandingRegistry",
    "variant_changed_predicates",
]
