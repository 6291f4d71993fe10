"""repro: a reproduction of "The Complexity of Ontology-Based Data
Access with OWL 2 QL and Bounded Treewidth Queries" (Bienvenu, Kikot,
Kontchakov, Podolskii, Ryzhikov, Zakharyaschev - PODS 2017).

The package implements the paper end to end:

* an OWL 2 QL (DL-Lite_R) ontology language with saturation-based
  reasoning, generating words and ontology depth (:mod:`repro.ontology`);
* conjunctive queries, shape classification and tree decompositions
  (:mod:`repro.queries`);
* data instances and the canonical model / certain-answer semantics
  (:mod:`repro.data`, :mod:`repro.chase`);
* a nonrecursive-datalog engine with the Section 3.1 fragment analysis
  and the Lemma 3/Lemma 5 transformations (:mod:`repro.datalog`);
* the three optimal NDL rewriters **Lin**, **Log** and **Tw** of
  Section 3 plus UCQ/PerfectRef/Presto-style baselines
  (:mod:`repro.rewriting`);
* the Figure 1 complexity landscape (:mod:`repro.complexity`);
* the hardness gadgets of Sections 4-5 with reference solvers
  (:mod:`repro.hardness`);
* harnesses regenerating every table and figure
  (:mod:`repro.experiments`);
* the Section 6 optimisation layer: a unified evaluation layer with an
  interned, indexed in-memory database and session reuse
  (:mod:`repro.engine`, :class:`repro.rewriting.api.AnswerSession`),
  a SQL backend materialising rewritings into
  SQLite tables (:mod:`repro.sql`), an NDL optimiser with
  Tw*-style inlining and emptiness pruning
  (:mod:`repro.datalog.optimize`) that every ``Plan.execute`` applies
  for the nonempty signature of the data it runs over, and the
  cost-based adaptive splitting strategy
  (:mod:`repro.rewriting.adaptive`);
* a serving layer (:mod:`repro.service`): a concurrent
  :class:`~repro.service.service.OMQService` with an LRU plan cache
  keyed up to variable renaming, batch answering with in-batch
  deduplication, incremental ABox updates that patch loaded engines in
  place, and a JSON/HTTP front-end (``python -m repro serve``);
* standing OMQs (:mod:`repro.standing`): subscriptions over a served
  dataset whose certain answers are maintained on every update —
  only the plans whose rewriting mentions a changed predicate are
  re-executed — with exact answer deltas delivered to clients by
  long-poll (``Client.subscribe`` / ``AsyncClient.subscribe``,
  ``python -m repro subscribe``);
* one compiled query pipeline (:mod:`repro.rewriting.plan`):
  :func:`compile` turns an OMQ plus one
  :class:`~repro.rewriting.plan.AnswerOptions` into a frozen,
  fingerprintable :class:`~repro.rewriting.plan.Plan` —
  ``plan.explain()`` reports the chosen method, rewriting
  size/width/depth and per-stage compile timings; ``plan.execute()``
  runs it over any ABox, session or engine and returns typed
  :class:`~repro.rewriting.plan.Answers` — and
  :class:`~repro.client.Client` is one facade over the embedded
  service and the HTTP server.

Quickstart (compile once, execute anywhere)::

    from repro import TBox, CQ, ABox, OMQ, compile

    tbox = TBox.parse("roles: P, R, S\\nP <= S\\nP <= R-")
    query = CQ.parse("R(x, y), S(y, z)", answer_vars=["x"])
    data = ABox.parse("R(a, b), A_P(b)")

    plan = compile(OMQ(tbox, query))       # prepare: rewrite once
    print(plan.explain()["rules"], plan.explain()["method"])
    print(plan.execute(data).answers)      # execute: over any data

The one-shot :func:`answer` (and ``AnswerSession.answer``,
``OMQService.answer``, ``Client.answer``) are thin wrappers over the
same pipeline: each takes ``(options=None, **overrides)`` and returns
the plan's :class:`~repro.rewriting.plan.Answers`.
"""

from .chase import certain_answers, is_certain_answer
from .client import (
    AsyncClient,
    AsyncSubscription,
    Client,
    ServiceError,
    Subscription,
)
from .data import ABox
from .datalog import (
    NDLQuery,
    Program,
    evaluate,
    evaluate_on,
    optimize,
)
from .engine import (
    ENGINES,
    Database,
    create_engine,
)
from .ontology import Role, TBox
from .queries import CQ, chain_cq
from .rewriting import (
    METHODS,
    OMQ,
    AnswerOptions,
    Answers,
    AnswerSession,
    Plan,
    adaptive_rewrite,
    answer,
    answer_adaptive,
    compile_omq,
    lin_rewrite,
    log_rewrite,
    rewrite,
    tw_rewrite,
    ucq_rewrite,
)
from .service import OMQService, RewritingCache
from .sql import evaluate_sql
from .standing import AnswerDelta, StandingQuery, StandingRegistry

#: ``repro.compile(omq, options) -> Plan``: the prepare half of the
#: pipeline (the module-level name intentionally mirrors SQL's
#: PREPARE; the builtin ``compile`` stays reachable as
#: ``builtins.compile``).
compile = compile_omq

__version__ = "1.0.0"

__all__ = [
    "ABox",
    "AnswerDelta",
    "AnswerOptions",
    "Answers",
    "AnswerSession",
    "AsyncClient",
    "AsyncSubscription",
    "CQ",
    "Client",
    "ServiceError",
    "StandingQuery",
    "StandingRegistry",
    "Subscription",
    "Database",
    "ENGINES",
    "METHODS",
    "NDLQuery",
    "OMQ",
    "OMQService",
    "Plan",
    "Program",
    "RewritingCache",
    "Role",
    "TBox",
    "adaptive_rewrite",
    "answer",
    "answer_adaptive",
    "certain_answers",
    "chain_cq",
    "compile",
    "compile_omq",
    "create_engine",
    "evaluate",
    "evaluate_on",
    "evaluate_sql",
    "optimize",
    "is_certain_answer",
    "lin_rewrite",
    "log_rewrite",
    "rewrite",
    "tw_rewrite",
    "ucq_rewrite",
]
