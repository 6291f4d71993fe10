"""The public OMQ-answering API: classify, rewrite, evaluate.

``OMQ`` bundles an ontology with a CQ; :func:`rewrite` dispatches to
the three optimal rewriters of Section 3 (and the baselines), and
:func:`answer` runs the full classical OBDA pipeline of reduction (1):
rewrite, then evaluate the NDL query over the data.
:class:`AnswerSession` is the amortised form of :func:`answer`: it
loads a data instance once (per engine, per completion) and answers
any number of OMQs against it — the shape of the paper's Tables 3-5
experiments, where many rewritings run over one dataset.

Both are thin wrappers over the compiled pipeline of
:mod:`repro.rewriting.plan`: :meth:`AnswerSession.compile` (or
:func:`repro.compile`) produces a reusable
:class:`~repro.rewriting.plan.Plan`, and ``Plan.execute`` evaluates it
over any session, ABox or loaded engine.  Both take the pipeline's
configuration the one way every entry point does — ``(options=None,
**overrides)``, resolved by ``AnswerOptions.coerce``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    Optional,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .plan import Answers

from ..data.abox import ABox
from ..datalog.program import NDLQuery
from ..engine import ENGINES, Engine, create_engine
from ..ontology.tbox import TBox
from ..queries.cq import CQ
from .lin import lin_rewrite
from .log import log_rewrite
from .perfectref import perfectref_rewrite
from .presto import presto_rewrite
from .tw import tw_rewrite
from .ucq import ucq_rewrite

#: The rewriters compared in Section 6 / Appendix D.
METHODS = ("lin", "log", "tw", "ucq", "perfectref", "presto")


@dataclass(frozen=True)
class OMQ:
    """An ontology-mediated query ``Q(x) = (T, q(x))``."""

    tbox: TBox
    query: CQ

    @property
    def depth(self):
        """The existential depth of the ontology (int or ``inf``)."""
        return self.tbox.depth()

    @property
    def leaves(self) -> Optional[int]:
        """Leaves of the CQ when tree-shaped, else ``None``."""
        if not self.query.is_tree_shaped:
            return None
        return self.query.number_of_leaves

    @property
    def treewidth(self) -> int:
        return self.query.treewidth()

    def omq_class(self) -> str:
        """The ``OMQ(d, t, l)`` class label of Section 1 this OMQ sits in
        (the most specific of the three tractable classes when any)."""
        depth = self.depth
        finite = depth is not math.inf
        if self.query.is_tree_shaped:
            leaves = self.query.number_of_leaves
            if finite:
                return f"OMQ({depth}, 1, {leaves})"
            return f"OMQ(inf, 1, {leaves})"
        if finite:
            return f"OMQ({depth}, {self.treewidth}, inf)"
        return f"OMQ(inf, {self.treewidth}, inf)"

    def fingerprint(self) -> str:
        """A stable hex digest, canonical up to variable renaming.

        One code path (:func:`repro.fingerprint.omq_fingerprint`) is
        shared with the :class:`~repro.service.cache.RewritingCache`
        keys and :class:`~repro.rewriting.plan.Plan` fingerprints.
        """
        from ..fingerprint import omq_fingerprint

        return omq_fingerprint(self)

    def __str__(self) -> str:
        return f"({self.tbox!r}, {self.query})"


def resolve_method(omq: OMQ, method: str = "auto") -> str:
    """The concrete rewriter ``auto`` resolves to for this OMQ: Lin for
    bounded-depth tree-shaped CQs, Tw for infinite depth with
    tree-shaped CQs, Log otherwise.  Non-``auto`` methods pass
    through."""
    if method != "auto":
        return method
    if omq.depth is not math.inf:
        return "lin" if omq.query.is_tree_shaped else "log"
    if omq.query.is_tree_shaped:
        return "tw"
    raise ValueError(
        "no rewriter applies: infinite-depth ontology with a "
        "non-tree-shaped CQ (OMQ answering is NP-hard there)")


def rewrite(omq: OMQ, method: str = "auto",
            over: str = "complete") -> NDLQuery:
    """Rewrite an OMQ into an NDL query.

    ``method`` is one of ``auto``, ``lin``, ``log``, ``tw``, ``ucq``,
    ``perfectref``, ``presto``; ``auto`` picks the optimal
    rewriter for the OMQ's tractable class (see
    :func:`resolve_method`).  ``over`` selects complete vs arbitrary
    data instances (``perfectref`` is always over arbitrary instances).
    """
    tbox, query = omq.tbox, omq.query
    method = resolve_method(omq, method)
    if method == "perfectref":
        return perfectref_rewrite(tbox, query)
    rewriters = {"lin": lin_rewrite, "log": log_rewrite, "tw": tw_rewrite,
                 "ucq": ucq_rewrite, "presto": presto_rewrite}
    if method not in rewriters:
        raise ValueError(f"unknown rewriting method {method!r}; "
                         f"expected one of {('auto',) + METHODS}")
    return rewriters[method](tbox, query, over=over)


class AnswerSession:
    """Answer many OMQs over one data instance, loading it once.

    The session owns one :class:`~repro.engine.backends.Engine` per
    ``(engine, data variant)`` pair, where the data variant is either
    the raw ABox (``perfectref`` rewrites over arbitrary instances) or
    its completion for a TBox (computed once per TBox and shared by
    every method and engine).  Repeated :meth:`answer` calls therefore
    never re-load, re-complete or re-index the data — only the
    rewriting and the per-query IDB work is paid per call.

    Usage::

        with AnswerSession(abox) as session:
            for method in METHODS:
                print(session.answer(omq, method=method).answers)

    ``data_loads`` counts backend loads (for tests and benchmarks: it
    must stay at one per engine/variant no matter how many queries
    run).
    """

    def __init__(self, abox: ABox, engine: str = "python",
                 extra_relations: Optional[
                     Mapping[str, Iterable[Tuple[str, ...]]]] = None,
                 rewriting_cache=None,
                 shared_completions: Optional[
                     Dict[int, Tuple[object, ABox]]] = None):
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.abox = abox
        self.engine = engine
        self._extra = extra_relations
        #: Optional :class:`repro.service.cache.RewritingCache`; when
        #: set, rewritings are fetched from / stored into it (keyed up
        #: to variable renaming) instead of being recomputed per call.
        self.rewriting_cache = rewriting_cache
        #: id(tbox) -> (tbox, completion); the tbox reference keeps the
        #: id stable for the session's lifetime.  A service session
        #: pool passes one shared dict to every pooled session so the
        #: completion is computed once per (dataset, TBox) and updated
        #: in place for the whole pool.
        self._completions: Dict[int, Tuple[object, ABox]] = (
            {} if shared_completions is None else shared_completions)
        self._backends: Dict[Tuple[str, object], Engine] = {}
        self.data_loads = 0

    # -- data variants -----------------------------------------------------

    def completion(self, tbox) -> ABox:
        """The T-completion of the session's ABox, computed once."""
        key = id(tbox)
        entry = self._completions.get(key)
        if entry is None:
            # setdefault, not assignment: with a shared completion dict
            # two pooled sessions may race on first touch, and every
            # backend must end up referencing the one winning ABox
            # object (updates patch that object in place)
            entry = self._completions.setdefault(
                key, (tbox, self.abox.complete(tbox)))
        return entry[1]

    def backend(self, engine: Optional[str] = None,
                tbox=None) -> Engine:
        """The loaded engine for a data variant (built on first use).

        ``tbox=None`` selects the raw ABox; otherwise the completion
        for ``tbox``.
        """
        name = self.engine if engine is None else engine
        variant = "raw" if tbox is None else ("completed", id(tbox))
        key = (name, variant)
        loaded = self._backends.get(key)
        if loaded is None:
            data = self.abox if tbox is None else self.completion(tbox)
            loaded = create_engine(name, data,
                                   extra_relations=self._extra)
            self._backends[key] = loaded
            self.data_loads += 1
        return loaded

    # -- answering ---------------------------------------------------------

    def compile(self, omq: OMQ, options=None, *, key=None, **overrides):
        """Compile ``omq`` into a :class:`~repro.rewriting.plan.Plan`.

        Plans go through the session's injected rewriting cache (when
        set; ``key``, if given, is ``omq``'s key in it under
        ``options``, trusted unchecked); only
        ``method="adaptive"`` looks at data — it costs its candidates
        against this session's completion and bypasses the cache.
        """
        from .plan import AnswerOptions, compile_omq

        options = AnswerOptions.coerce(options, **overrides)
        data = (self.completion(omq.tbox) if options.data_dependent
                else None)
        return compile_omq(omq, options, data=data,
                           cache=self.rewriting_cache, key=key)

    def answer(self, omq: OMQ, options=None, *, key=None,
               **overrides) -> "Answers":
        """Certain answers to ``omq``; same pipeline as :func:`answer`.

        A thin wrapper over :meth:`compile` + ``Plan.execute``, taking
        ``options`` / ``overrides`` (and ``key``) exactly as
        :meth:`compile` does.
        ``engine=`` overrides the session default for this call only —
        every engine keeps its own loaded copy of the data, so
        cross-engine comparisons also amortise.
        """
        from .plan import AnswerOptions

        options = AnswerOptions.coerce(options, **overrides)
        plan = self.compile(omq, options, key=key)
        # this request's options, not the (possibly cache-shared)
        # plan's: execution knobs must never leak between requests
        return plan.execute(self, options=options)

    # -- incremental updates -----------------------------------------------

    def apply_update(self, inserts: Iterable[Tuple[str, Tuple[str, ...]]] = (),
                     deletes: Iterable[Tuple[str, Tuple[str, ...]]] = ()):
        """Mutate the session's data in place; deletions apply first.

        Atoms are ``(predicate, (constants...))`` pairs.  The raw ABox,
        every cached completion and every loaded backend are updated
        incrementally so subsequent answers match a from-scratch
        session over the updated data (see
        :mod:`repro.service.updates`).  Returns that module's
        :class:`~repro.service.updates.UpdateResult`.
        """
        from ..service.updates import apply_update

        return apply_update(self.abox, self._completions, [self],
                            inserts=inserts, deletes=deletes)

    def insert_facts(self, atoms: Iterable[Tuple[str, Tuple[str, ...]]]):
        """Insert ground atoms (see :meth:`apply_update`)."""
        return self.apply_update(inserts=atoms)

    def delete_facts(self, atoms: Iterable[Tuple[str, Tuple[str, ...]]]):
        """Delete ground atoms (see :meth:`apply_update`)."""
        return self.apply_update(deletes=atoms)

    def loaded_backends(self):
        """The ``(engine name, variant) -> Engine`` pairs loaded so far
        (variant is ``"raw"`` or ``("completed", id(tbox))``); the
        update layer walks these to push data deltas."""
        return tuple(self._backends.items())

    def pinned_constants(self) -> FrozenSet[str]:
        """Constants held in the active domain by ``extra_relations``.

        Extra relations are static side tables (the OBDA mapping
        layer); ABox updates must never evict their constants from
        ``__adom__`` even when the last ABox atom naming them goes."""
        if not self._extra:
            return frozenset()
        return frozenset(constant for rows in self._extra.values()
                         for row in rows for constant in row)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        for loaded in self._backends.values():
            loaded.close()
        self._backends.clear()

    def __enter__(self) -> "AnswerSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"AnswerSession({self.abox!r}, engine={self.engine!r}, "
                f"{self.data_loads} backends loaded)")


def answer(omq: OMQ, abox: ABox, options=None, **overrides) -> "Answers":
    """Certain answers to ``omq`` over ``abox`` via rewriting.

    Rewrites over complete data instances and evaluates over the
    completion of ``abox`` (the classical reduction (1) combined with
    Section 2's completeness assumption); ``perfectref`` evaluates its
    arbitrary-instance rewriting over the raw data.

    ``options`` / ``overrides`` build one
    :class:`~repro.rewriting.plan.AnswerOptions`; every choice it
    offers is answer-preserving:

    * ``method`` picks the rewriter; ``"adaptive"`` picks the cheapest
      of the Section 3 rewriters for this data via the Section 6 cost
      model;
    * ``engine`` selects the evaluator: the native Python engine or
      SQLite with full materialisation (``"sql"``).

    Whatever is chosen, the rewriting is evaluated specialised to the
    data's nonempty signature (Appendix D.4's emptiness pruning,
    deduplication and Tw*-style inlining; see
    :meth:`~repro.rewriting.plan.Plan.specialised`) — that is not an
    option.

    This is a thin wrapper creating a one-shot :class:`AnswerSession`;
    use a session directly to answer several queries over one
    instance, or :func:`repro.compile` + ``Plan.execute`` to reuse one
    compiled plan across many instances.
    """
    with AnswerSession(abox) as session:
        return session.answer(omq, options, **overrides)
