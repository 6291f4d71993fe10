"""Maintenance of standing-query answers: re-execute, then diff.

A subscription's answers after an update are what
:meth:`Plan.execute <repro.rewriting.plan.Plan.execute>` returns over
the patched session — the same route, at the live data's nonempty
signature, that serves ``/answer`` — and the caller diffs them against
the materialization to get the exact
:class:`~repro.standing.registry.AnswerDelta`.  What keeps a pass
cheap sits around that call, not inside it: the registry only hands
over the subscriptions whose rewriting mentions a changed predicate
(:func:`variant_changed_predicates` maps the raw delta into each data
variant: the raw predicates for arbitrary-instance rewritings, the
exact or over-approximated completed predicates otherwise, plus the
active-domain pseudo-predicate when individuals came or went), and one
pass executes a plan once however many subscribers share it.

:func:`refresh` is the one function a delta-rule evaluator would
replace; :func:`full_reexecute` is then the oracle and the resync.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from ..data.abox import ABox
from ..datalog.program import ADOM

Row = Tuple[str, ...]


def variant_changed_predicates(tbox, delta) -> FrozenSet[str]:
    """The predicates whose extension (may have) changed in the data
    variant a plan evaluates over.

    ``tbox=None`` selects the raw data: exactly the delta's
    predicates.  Otherwise the completed variant: the exact per-key
    set when the update layer recorded one, else the sound
    over-approximation — every predicate in the completion of the
    touched atoms (per-atom closure: no other predicate can change).
    """
    if tbox is None:
        changed = set(delta.raw_changed)
    else:
        exact = delta.completed_changed.get(id(tbox))
        if exact is not None:
            changed = set(exact)
        else:
            changed = {predicate for predicate, _ in
                       ABox(delta.atoms).complete(tbox).atoms()}
    if delta.adom_changed:
        changed.add(ADOM)
    return frozenset(changed)


def full_reexecute(sub, session) -> FrozenSet[Row]:
    """The subscription's answers over ``session`` as it is now, under
    the engine and options it subscribed with."""
    result = sub.plan.execute(session, engine=sub.engine,
                              options=sub.options)
    return frozenset(result.answers)


def initialize(sub, session) -> None:
    """Materialize a fresh subscription's answers against ``session``
    (which must hold the current data)."""
    sub.answers = full_reexecute(sub, session)


def refresh(sub, session, delta, changed: FrozenSet[str],
            memo: Dict) -> FrozenSet[Row]:
    """The subscription's new full answer set after an update whose
    variant-mapped changed predicates are ``changed``.

    ``memo`` is shared by the subscriptions of one pass and keyed by
    plan fingerprint and engine: renamings of one query shape — whose
    answer rows agree column for column, which is what lets the plan
    cache serve them one plan — and an equal plan compiled twice cost
    one execution.  ``delta`` and ``changed`` are what an incremental
    evaluator would start from; re-execution needs neither.
    """
    key = (sub.plan.fingerprint, sub.engine)
    answers = memo.get(key)
    if answers is None:
        answers = memo[key] = full_reexecute(sub, session)
    return answers
