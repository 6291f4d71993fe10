"""The compiled query pipeline: ``compile(omq, options) -> Plan``.

The paper's central object is the pair "rewriting + evaluation":
reduction (1) compiles an OMQ ``(T, q)`` into an NDL query once, and
Tables 3-5 measure properties of that compiled artifact (size, width,
depth) separately from evaluation time.  This module makes the
separation explicit, the way mature query engines split *prepare* from
*execute*:

* :class:`AnswerOptions` — the one configuration object threaded
  through every layer (sessions, service, HTTP, CLI, experiments):
  every entry point takes ``(options=None, **overrides)`` and resolves
  them through :meth:`AnswerOptions.coerce`;
* :func:`compile_omq` — run the rewriter once and freeze the result;
* :class:`Plan` — the frozen, fingerprintable compiled artifact:
  introspection via :meth:`Plan.explain`, execution via
  :meth:`Plan.execute` against any ABox, session or loaded engine.
  ``Plan.ndl`` is the paper's rewriting; what ``execute`` evaluates is
  :meth:`Plan.specialised` — that rewriting run through the
  Appendix D.4 optimiser for the nonempty signature of the data it
  is executed over, decided per execute, never by the caller;
* :class:`Answers` — the one result record, from the engine to the
  wire (:meth:`Answers.payload`): answer tuples plus timings and
  provenance (which plan, which engine, which method, which dataset).

Plans are reusable across datasets and engines: compile once, execute
many — the :class:`~repro.service.cache.RewritingCache` stores plans
keyed by canonical ``(tbox, cq, options)`` fingerprints.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
from array import array
from dataclasses import dataclass, field
from itertools import chain, count
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping, Optional, Tuple, Union

from ..data.abox import ABox
from ..datalog.evaluate import CodedRows, EvaluationResult, RowsRecord
from ..datalog.optimize import optimize
from ..datalog.program import NDLQuery
from ..engine import ENGINES, Engine
from ..obs import trace as _trace
from .api import METHODS, OMQ, AnswerSession, resolve_method, rewrite

#: Everything :class:`AnswerOptions` accepts as a ``method`` — the
#: Section 3 rewriters and baselines plus the two meta-strategies.
OPTION_METHODS = ("auto", "adaptive") + METHODS

_OVER = ("complete", "arbitrary")


@dataclass(frozen=True)
class AnswerOptions:
    """Configuration of the answering pipeline, one object for every
    layer.

    ``method`` and ``over`` select the *compile*-time pipeline (they
    shape the NDL program and therefore partition plan-cache keys);
    ``engine`` and ``timeout`` are *execution*-time knobs (they never
    partition the cache).

    ``timeout`` is a soft per-evaluation budget in seconds, enforced
    the way the paper's experiments enforce theirs: the evaluation
    runs to completion and the result is flagged
    :attr:`Answers.timed_out` when it overran (callers like the
    Tables 3-5 harness then skip larger instances).
    """

    method: str = "auto"
    engine: Optional[str] = None
    timeout: Optional[float] = None
    over: str = "complete"

    def __post_init__(self):
        if self.method not in OPTION_METHODS:
            raise ValueError(f"unknown rewriting method {self.method!r}; "
                             f"expected one of {OPTION_METHODS}")
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"expected one of {ENGINES}")
        if self.over not in _OVER:
            raise ValueError(f"over must be one of {_OVER}, "
                             f"got {self.over!r}")
        if self.timeout is not None and self.timeout < 0:
            raise ValueError("timeout must be non-negative")

    @classmethod
    def coerce(cls, value=None, **overrides) -> "AnswerOptions":
        """An :class:`AnswerOptions` from ``None``, a mapping or an
        existing instance, with keyword overrides applied on top."""
        if value is None:
            options = cls()
        elif isinstance(value, cls):
            options = value
        elif isinstance(value, Mapping):
            unknown = set(value) - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise ValueError(
                    f"unknown answer option(s): {sorted(unknown)}")
            options = cls(**value)
        else:
            raise TypeError("options must be an AnswerOptions, a mapping "
                            f"or None, got {type(value).__name__}")
        overrides = {key: value for key, value in overrides.items()
                     if value is not None}
        return options.replace(**overrides) if overrides else options

    def replace(self, **changes) -> "AnswerOptions":
        """A copy with the given fields changed (validated again)."""
        return dataclasses.replace(self, **changes)

    def rewrite_fingerprint(self) -> Tuple:
        """The compile-relevant subset, as hashed into plan-cache keys.

        ``engine`` and ``timeout`` are deliberately excluded: they do
        not change the compiled program, and including them would
        fragment the cache (one compiled plan serves every engine).
        """
        return (self.method, self.over)

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @property
    def data_dependent(self) -> bool:
        """Whether compilation needs a data instance (and the plan
        therefore bypasses the shared cache): only the ``adaptive``
        method, which costs its candidates against the data."""
        return self.method == "adaptive"


#: The :class:`Answers` fields that travel as themselves, in wire order.
_WIRE_FIELDS = ("dataset", "method", "engine", "seconds", "cached_rewriting",
                "generated_tuples", "plan_fingerprint", "timed_out")

#: The ``Accept``-negotiated ``/answer`` body type (:meth:`Answers.wire`).
ROWS_TYPE = "application/x-repro-rows"


@dataclass(frozen=True)
class Answers(RowsRecord):
    """The result of executing a :class:`Plan`: certain answers plus
    timings and provenance.

    The engine layer's :class:`~repro.datalog.evaluate.EvaluationResult`
    fields (``rows``, ``generated_tuples``, ``relation_sizes``) plus
    which plan produced them and how.  The same record travels from
    :meth:`Plan.execute` through the service, which stamps ``dataset``,
    ``cached_rewriting`` and its own ``seconds`` (``dataclasses.replace``
    carries ``rows`` as they are), to both clients.

    ``rows`` are the python engine's codes (valid after any update: a
    code is never reassigned), else a frozenset; the read-only
    ``answers`` decodes codes once, on first read
    (:class:`~repro.datalog.evaluate.RowsRecord`); :meth:`wire` never.
    """

    answers: FrozenSet[Tuple[str, ...]] = field(init=False)
    rows: Union[FrozenSet[Tuple[str, ...]], CodedRows] = field(
        repr=False, compare=False)
    generated_tuples: int = 0
    relation_sizes: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    engine: str = "python"
    method: str = "auto"
    plan_fingerprint: str = ""
    cached_rewriting: bool = False
    timed_out: bool = False
    #: The served dataset, as its tenant named it (``""`` off-service).
    dataset: str = ""
    #: The request's span breakdown (a ``Trace.payload()`` dict) when
    #: the caller asked for it — e.g. ``Client.answer(trace=True)``.
    trace: Optional[Dict[str, object]] = field(default=None,
                                               compare=False, repr=False)

    def sorted(self):
        """The answer tuples in sorted order (for stable printing)."""
        return sorted(self.answers)

    def _fields(self) -> Dict[str, object]:
        fields = {name: getattr(self, name) for name in _WIRE_FIELDS}
        fields["seconds"] = round(self.seconds, 6)
        return fields

    def payload(self) -> Dict[str, object]:
        """The JSON wire shape of an ``/answer`` response (rows as
        sorted lists)."""
        return {"answers": list(map(list, sorted(self.answers))),
                "count": len(self), **self._fields()}

    @classmethod
    def from_payload(cls, body: Mapping[str, object]) -> "Answers":
        """The record a :meth:`payload` (plus a spliced ``"trace"``)
        describes."""
        return cls(frozenset(map(tuple, body["answers"])),
                   trace=body.get("trace"),
                   **{name: body[name] for name in _WIRE_FIELDS})

    def wire(self, extra: Optional[Mapping[str, object]] = None) -> bytes:
        """The dictionary-coded ``/answer`` body (:data:`ROWS_TYPE`).

        A 4-byte big-endian header length; a JSON header with every
        :meth:`payload` field but ``answers``, plus ``arity``, the
        ``extra`` fields and ``constants`` (the answer's distinct
        constants); then ``count * arity`` little-endian uint32 cells,
        row after row, each an index into ``constants``.  Rows come in
        no particular order: an answer is a set.  Engine codes are
        renumbered, never decoded; string rows are numbered over their
        own distinct constants.
        """
        rows = self.rows
        if type(rows) is CodedRows:
            rows = rows.dense()
        else:
            cells = list(chain.from_iterable(rows))
            local = dict(zip(set(cells), count()))
            rows = CodedRows(list(map(local.__getitem__, cells)),
                             len(next(iter(rows), ())), len(rows),
                             list(local))
        ids = array("I", rows.codes)
        if sys.byteorder == "big":
            ids.byteswap()
        head = json.dumps({"count": rows.count, "arity": rows.arity,
                           **self._fields(), **(extra or {}),
                           "constants": rows.names}).encode()
        return len(head).to_bytes(4, "big") + head + ids.tobytes()

    @classmethod
    def from_wire(cls, body: bytes) -> "Answers":
        """The record a :meth:`wire` body describes.  A body that does
        not hold together raises (``ValueError``, ``LookupError`` or
        ``TypeError``), never decodes to other rows."""
        size = int.from_bytes(body[:4], "big")
        header = json.loads(body[4:4 + size])
        ids = array("I", body[4 + size:])
        if sys.byteorder == "big":
            ids.byteswap()
        rows, arity = header["count"], header["arity"]
        if len(ids) != rows * arity:
            raise ValueError(f"{len(ids)} cells for {rows} x {arity}")
        constants = header["constants"]
        if not (type(constants) is list
                and set(map(type, constants)) <= {str}):
            raise ValueError("constants are not a list of strings")
        answers = CodedRows(ids, arity, rows, constants).decode()
        if len(answers) != rows:
            raise ValueError(f"{len(answers)} distinct rows, not {rows}")
        return cls(answers, trace=header.get("trace"),
                   **{name: header[name] for name in _WIRE_FIELDS})


#: Specialisations one plan keeps: one per nonempty signature it has
#: run under (an update can flip one).
_SPECIALISATIONS_KEPT = 64


@dataclass(frozen=True)
class Plan:
    """A compiled OMQ: the frozen output of :func:`compile_omq`.

    Carries the NDL rewriting plus everything needed to introspect
    (:meth:`explain`) and run (:meth:`execute`) it.  Plans are
    immutable and safe to share across threads, datasets and engines;
    the :class:`~repro.service.cache.RewritingCache` stores them keyed
    by canonical fingerprints, so a plan handed out for one OMQ may
    legitimately answer a renamed-but-isomorphic one.
    """

    omq: OMQ
    options: AnswerOptions
    #: The paper's rewriting, exactly as the rewriter produced it: what
    #: ``rules``/``width``/``depth`` and the class bounds describe.
    ndl: NDLQuery
    #: The concretely chosen rewriter (``auto``/``adaptive`` resolved).
    method: str
    #: Compile timings in seconds, by stage (``rewrite``).
    timings: Mapping[str, float] = field(default_factory=dict)
    #: A stable hex digest of (OMQ up to renaming, compile options),
    #: hashed once here — every execute stamps it on its answers.
    fingerprint: str = ""
    #: nonempty signature -> the program :meth:`specialised` built for
    #: it; working state of this process, not part of the plan's value
    _specialisations: Dict[FrozenSet[str], NDLQuery] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "timings",
                           MappingProxyType(dict(self.timings)))
        if not self.fingerprint:
            # the trailing False is the retired ``optimize_sql`` option's
            # place in the hashed tuple: kept, so a plan's digest (on
            # answers, subscriptions and /explain) did not change with it
            text = (f"{self.omq.fingerprint()}\n"
                    f"{(*self.options.rewrite_fingerprint(), False)!r}")
            object.__setattr__(self, "fingerprint",
                               hashlib.sha256(text.encode()).hexdigest())

    # -- introspection -----------------------------------------------------

    @property
    def rules(self) -> int:
        """Clause count of the rewriting (the paper's size measure)."""
        return len(self.ndl)

    @property
    def width(self) -> int:
        return self.ndl.width()

    @property
    def depth(self) -> int:
        return self.ndl.depth()

    def sql_report(self, backend: Optional[Engine] = None
                   ) -> Dict[str, object]:
        """The SQL the ``sql`` engine runs for the plan: one ``CREATE
        TABLE ... AS`` statement per IDB predicate, in dependence
        order, and the goal select.  Over ``backend`` that is the
        program :meth:`execute` runs there (:meth:`specialised`),
        without one the rewriting's.  JSON-serialisable."""
        from ..sql.compile import compile_query

        compilation = compile_query(
            self.ndl if backend is None else self.specialised(backend))
        return {
            "engine": "sql",
            "statements": list(compilation.statements),
            "goal_select": compilation.goal_select,
        }

    def explain(self, backend: Optional[Engine] = None,
                options: Optional[AnswerOptions] = None
                ) -> Dict[str, object]:
        """The plan report: what was compiled, how, and how big it is.

        JSON-serialisable — the CLI ``explain`` subcommand and the HTTP
        ``/explain`` endpoint return exactly this dict.  ``options``
        are the request's, as for :meth:`execute`: a plan out of a
        shared cache reports the asking request's engine and timeout,
        not its first compiler's.  When the engine is ``sql``, the
        report carries a ``"sql"`` section with the SQL it runs (see
        :meth:`sql_report`).  With a loaded ``backend`` it also carries
        ``"specialised"``: the nonempty signature of that data and the
        size of the program :meth:`execute` would run over it, next to
        the rewriting's; the ``"sql"`` section is then that program's.
        """
        options = self.options if options is None else options
        report = {
            "fingerprint": self.fingerprint,
            "omq_class": self.omq.omq_class(),
            "method_requested": options.method,
            # every option as asked for; ``method`` as resolved
            **options.as_dict(),
            "method": self.method,
            "data_bound": options.data_dependent,
            "goal": self.ndl.goal,
            "answer_vars": list(self.ndl.answer_vars),
            "rules": self.rules,
            "width": self.width,
            "depth": self.depth,
            "compile_seconds": round(sum(self.timings.values()), 6),
            "stages": {stage: round(seconds, 6)
                       for stage, seconds in self.timings.items()},
        }
        if backend is not None:
            ndl = self.specialised(backend)
            report["specialised"] = {
                "nonempty": sorted(
                    backend.nonempty(self.ndl.program.edb_predicates)),
                "rules": len(ndl), "width": ndl.width(),
                "depth": ndl.depth()}
        if options.engine == "sql":
            report["sql"] = self.sql_report(backend)
        active = _trace.current_trace()
        if active is not None:
            report["trace"] = active.payload()
        return report

    # -- execution ---------------------------------------------------------

    def _variant_tbox(self):
        """The completion variant the plan evaluates over: ``None``
        selects the raw data (arbitrary-instance rewritings)."""
        if self.method == "perfectref" or self.options.over == "arbitrary":
            return None
        return self.omq.tbox

    def execute(self, data, engine: Optional[str] = None,
                options: Optional[AnswerOptions] = None) -> Answers:
        """Run the plan and return typed :class:`Answers`.

        ``data`` may be

        * an :class:`~repro.rewriting.api.AnswerSession` — the backend
          for the right data variant (raw vs completed) is reused;
        * an :class:`~repro.engine.backends.Engine` — evaluated as-is
          (the caller owns the completion, as the experiment harnesses
          do);
        * an :class:`~repro.data.abox.ABox` — a one-shot session is
          created and closed around the call.

        Execution knobs resolve caller-first: ``engine`` beats
        ``options.engine`` beats the plan's own compile-time options.
        ``options`` matters when the plan came out of a shared cache —
        cache keys deliberately ignore engine/timeout, so the *first*
        compiler's knobs must never leak into later requests;
        callers holding a request-level :class:`AnswerOptions`
        (sessions, the service) pass it here.
        """
        effective = self.options if options is None else options
        if isinstance(data, ABox):
            name = engine or effective.engine or "python"
            with AnswerSession(data, engine=name) as session:
                return self.execute(session, engine=name, options=options)
        if isinstance(data, Engine):
            return self._finish(data, data.name, effective)
        if isinstance(data, AnswerSession):
            name = engine or effective.engine or data.engine
            backend = data.backend(name, self._variant_tbox())
            return self._finish(backend, name, effective)
        raise TypeError("Plan.execute expects an ABox, AnswerSession "
                        f"or Engine, got {type(data).__name__}")

    def specialised(self, backend: Engine) -> NDLQuery:
        """The program :meth:`execute` evaluates over ``backend``: the
        rewriting restricted, pruned of every clause over a predicate
        that holds no fact in the backend *now*, deduplicated and
        ``Tw*``-inlined (:func:`repro.datalog.optimize.optimize`).

        Built once per nonempty signature and memoised on the plan: a
        data update that flips no predicate's emptiness costs the
        signature lookup, one that does re-specialises — so a plan
        held across updates never answers from a stale pruning.  The
        python engine keeps its compiled program, join orders
        included, on the returned query, so every execute of one
        signature shares them (:mod:`repro.datalog.evaluate`).
        """
        signature = backend.nonempty(self.ndl.program.edb_predicates)
        ndl = self._specialisations.get(signature)
        if ndl is None:
            if len(self._specialisations) >= _SPECIALISATIONS_KEPT:
                self._specialisations.clear()
            ndl = optimize(self.ndl, nonempty=signature)
            self._specialisations[signature] = ndl
        return ndl

    def _finish(self, backend: Engine, engine_name: str,
                options: AnswerOptions) -> Answers:
        started = time.perf_counter()
        with _trace.span("execute") as exec_span:
            exec_span.attrs["engine"] = engine_name
            ndl = self.specialised(backend)
            if len(ndl) or not self.rules:
                result = backend.evaluate(ndl)
            else:
                # every goal clause was pruned: provably no answer, and
                # the engine must not be asked — with no clause left
                # the goal would read as a data predicate of that name
                result = EvaluationResult(frozenset(), 0)
        elapsed = time.perf_counter() - started
        timeout = options.timeout
        return Answers(result.rows,
                       generated_tuples=result.generated_tuples,
                       relation_sizes=dict(result.relation_sizes),
                       seconds=elapsed, engine=engine_name,
                       method=self.method,
                       plan_fingerprint=self.fingerprint,
                       timed_out=timeout is not None and elapsed > timeout)

    def __repr__(self) -> str:
        return (f"Plan(method={self.method!r}, rules={self.rules}, "
                f"width={self.width}, depth={self.depth}, "
                f"fingerprint={self.fingerprint[:12]!r})")


def compile_omq(omq: OMQ, options=None, *, data=None, cache=None,
                key=None, **overrides) -> Plan:
    """Compile an OMQ into a reusable :class:`Plan`.

    The prepare half of the pipeline: rewrite per ``options.method``.
    ``options`` may be an :class:`AnswerOptions`, a mapping or
    ``None``; field overrides can be given directly
    (``compile_omq(omq, method="lin")``).  Nothing here looks at the
    data the plan will run over — that happens per execute, in
    :meth:`Plan.specialised` — with one exception: ``data`` (an ABox)
    is what the ``adaptive`` method costs its candidates against (pass
    the *completion* the plan will run over — sessions do), and
    ``adaptive`` without it is an error.

    ``cache`` is an optional :class:`~repro.service.cache.RewritingCache`;
    plans are fetched from / stored into it keyed by canonical
    ``(tbox, cq, options)`` fingerprints (``key``, when the caller
    computed it already).  ``adaptive`` plans bypass it
    (the method they resolve to depends on one instance).
    """
    options = AnswerOptions.coerce(options, **overrides)
    if cache is not None and not options.data_dependent:
        return cache.get_or_compute(
            key or cache.key(omq, options),
            lambda: _compile(omq, options, data))
    return _compile(omq, options, data)


def _compile(omq: OMQ, options: AnswerOptions, data) -> Plan:
    started = time.perf_counter()
    if options.method == "adaptive":
        if data is None:
            raise ValueError("method='adaptive' needs a data instance to "
                             "cost its candidates; pass data=<completed "
                             "ABox> (or compile through a session)")
        from .adaptive import adaptive_rewrite

        choice = adaptive_rewrite(omq, data, over=options.over)
        # the candidate as rewritten, not as costed: the costed one is
        # pruned for today's data, and execute specialises per run
        method, ndl = choice.method, choice.rewriting
    else:
        method = resolve_method(omq, options.method)
        ndl = rewrite(omq, method=method, over=options.over)
    seconds = time.perf_counter() - started
    _trace.record("rewrite", seconds)
    return Plan(omq=omq, options=options, ndl=ndl, method=method,
                timings={"rewrite": seconds})


def format_explain(report: Mapping[str, object]) -> str:
    """Render a :meth:`Plan.explain` report as aligned text (the CLI's
    non-JSON output)."""
    lines = []
    order = ("omq_class", "method_requested", "method", "over", "engine",
             "timeout", "data_bound", "goal", "answer_vars", "rules",
             "width", "depth", "compile_seconds", "fingerprint")
    for key in order:
        if key not in report:
            continue
        value = report[key]
        if key == "answer_vars":
            value = ", ".join(value) if value else "(boolean)"
        lines.append(f"{key.replace('_', ' '):17} {value}")
    specialised = report.get("specialised")
    if specialised:
        lines.append(f"{'specialised to':17} "
                     f"{', '.join(specialised['nonempty']) or '(no data)'}")
        lines.append(
            f"{'  runs as':17} {specialised['rules']} rules, width "
            f"{specialised['width']}, depth {specialised['depth']}")
    stages = report.get("stages") or {}
    for stage, seconds in stages.items():
        lines.append(f"{'  stage ' + stage:17} {seconds}s")
    return "\n".join(lines)
