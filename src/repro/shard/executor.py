"""Scatter-gather executors over per-shard engines.

Two interchangeable implementations of one small contract —
broadcast a compiled :class:`~repro.rewriting.plan.Plan` to every
shard and gather the per-shard results, or push per-shard data deltas:

* :class:`SerialExecutor` — per-shard
  :class:`~repro.rewriting.api.AnswerSession`\\ s evaluated in-process,
  one after another.  No parallelism, no pickling; the reference
  implementation the parity tests run against.
* :class:`ProcessExecutor` — one persistent worker *process* per
  shard, each holding a loaded session over its shard, driven over
  pipes.  Evaluation is CPU-bound pure Python, so processes (not
  threads) are what buys wall-clock parallelism; workers stay alive
  across calls, so the per-shard load/completion/indexing cost is paid
  once, exactly like a monolithic session.  Under ``spawn`` /
  ``forkserver`` the shard data travels through the shared-memory fact
  transport (:mod:`repro.shard.transport`) instead of pickle, and
  answer sets stream back in fixed-size chunks so the parent unions
  incrementally.

Workers intern plans, and the TBoxes of new ones, by fingerprint
(:class:`_PlanTable`): every ``execute`` delivers a freshly unpickled
plan, sessions key completions by TBox identity and a plan's
specialisation memo does not travel, so without interning each call
would recomplete the shard and re-specialise the plan.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..data.abox import ABox, GroundAtom
from ..obs.trace import Trace, current_trace_id, tracing
from ..rewriting.api import AnswerSession
from .transport import SharedABox, ShmDescriptor, attach_abox

ShardDelta = Tuple[Sequence[GroundAtom], Sequence[GroundAtom]]

#: Answer tuples per streamed reply chunk (see ``_worker_main``).
CHUNK_ROWS = 8192


@dataclass(frozen=True)
class ShardResult:
    """One shard's contribution to a scatter-gather round."""

    shard: int
    answers: frozenset
    seconds: float
    generated_tuples: int = 0
    relation_sizes: Dict[str, int] = field(default_factory=dict)
    #: span payload dicts recorded inside the shard (worker-local
    #: trace), grafted into the caller's trace as ``shard-N`` children
    spans: Tuple = ()


class Executor:
    """The scatter-gather contract every implementation satisfies."""

    kind: str = "?"

    @property
    def shards(self) -> int:
        raise NotImplementedError

    def execute(self, plan, engine: Optional[str] = None
                ) -> List[ShardResult]:
        """Broadcast ``plan`` and gather every shard's result."""
        raise NotImplementedError

    def _selected(self, shards: Sequence[int]) -> List[int]:
        """The shards a delta round addresses, sorted and checked."""
        requested = set(shards)
        invalid = sorted(s for s in requested
                         if not 0 <= s < self.shards)
        if invalid:
            # silently dropping these would lose their deltas — e.g.
            # an update routed to a stale shard id after a reshard
            raise ValueError(
                f"shard index(es) {invalid} out of range for "
                f"{self.shards} shard(s)")
        return sorted(requested)

    def _check_open(self) -> None:
        if getattr(self, "_closed", False):
            raise RuntimeError(
                "executor is closed; build a fresh executor (or "
                "ShardedSession) over the data")

    def apply_deltas(self, deltas: Mapping[int, ShardDelta]
                     ) -> List[Dict[str, int]]:
        """Push per-shard ``(inserts, deletes)`` (deletes apply first);
        returns each touched shard's update-result dict."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Plans a worker keeps (:class:`_PlanTable`): as many as the
#: service's plan cache, the usual sender, holds by default.
PLANS_KEPT = 256


class _PlanTable:
    """A worker's canonical plan per ``(fingerprint, method)`` and
    canonical TBox per fingerprint, so what a session and a plan
    memoise by identity — completions, specialisations — hits across
    calls that each deliver a fresh unpickled copy."""

    def __init__(self):
        self._plans: Dict[Tuple[str, str], object] = {}
        self._tboxes: Dict[str, object] = {}

    def resolve(self, plan):
        """The kept plan equal to ``plan``, else ``plan`` itself over
        the canonical TBox object."""
        from ..fingerprint import tbox_fingerprint

        kept = self._plans.get((plan.fingerprint, plan.method))
        if kept is not None:
            return kept
        interned = self._tboxes.setdefault(
            tbox_fingerprint(plan.omq.tbox), plan.omq.tbox)
        if interned is plan.omq.tbox:
            return plan
        omq = dataclasses.replace(plan.omq, tbox=interned)
        return dataclasses.replace(plan, omq=omq)

    def keep(self, plan) -> None:
        """Make ``plan`` (a :meth:`resolve` result that has executed
        without raising — a fingerprint is a claim the sender makes,
        and a plan that fails must not be served to later senders of
        it) the canonical copy; forget everything at the bound."""
        key = (plan.fingerprint, plan.method)
        if key not in self._plans:
            if len(self._plans) >= PLANS_KEPT:
                self._plans.clear()
            self._plans[key] = plan


def _shard_execute(session: AnswerSession, plan,
                   engine: Optional[str],
                   trace_id: Optional[str] = None) -> Tuple:
    started = time.perf_counter()
    if trace_id is not None:
        # record spans under a shard-local trace (the parent's trace
        # object never crosses the pickle boundary — only its ID does)
        local = Trace(trace_id)
        with tracing(local):
            result = plan.execute(session, engine=engine)
        spans = [entry.payload() for entry in local.spans]
    else:
        result = plan.execute(session, engine=engine)
        spans = []
    elapsed = time.perf_counter() - started
    return (result.answers, elapsed, result.generated_tuples,
            dict(result.relation_sizes), spans)


class SerialExecutor(Executor):
    """In-process scatter-gather: the shards evaluate one at a time."""

    kind = "serial"

    def __init__(self, shard_aboxes: Sequence[ABox],
                 engine: str = "python"):
        self._closed = False
        self._sessions = [AnswerSession(abox, engine=engine)
                          for abox in shard_aboxes]

    @property
    def shards(self) -> int:
        return len(self._sessions)

    def execute(self, plan, engine: Optional[str] = None
                ) -> List[ShardResult]:
        self._check_open()
        trace_id = current_trace_id()
        results = []
        for shard, session in enumerate(self._sessions):
            answers, seconds, generated, sizes, spans = _shard_execute(
                session, plan, engine, trace_id)
            results.append(ShardResult(shard, answers, seconds,
                                       generated, sizes, tuple(spans)))
        return results

    def apply_deltas(self, deltas: Mapping[int, ShardDelta]
                     ) -> List[Dict[str, int]]:
        self._check_open()
        self._selected(sorted(deltas))
        results = []
        for shard, (inserts, deletes) in sorted(deltas.items()):
            outcome = self._sessions[shard].apply_update(
                inserts=inserts, deletes=deletes)
            results.append(outcome.as_dict())
        return results

    def close(self) -> None:
        self._closed = True
        for session in self._sessions:
            session.close()
        self._sessions = []


def _worker_main(connection, payload, engine: str) -> None:
    """The per-shard worker loop: load once, serve commands forever.

    ``payload`` is either the shard ABox itself (``pickle`` transport,
    or inherited memory under ``fork``) or a
    :class:`~repro.shard.transport.ShmDescriptor` pointing at the
    shared-memory fact arrays to attach and decode.

    ``execute`` replies stream: zero or more ``("chunk", rows)``
    messages followed by one terminal ``("ok", (count, seconds,
    generated, sizes, spans))`` — or a single ``("error", text)``.
    """
    try:
        if isinstance(payload, ShmDescriptor):
            abox = attach_abox(payload)
        else:
            abox = payload
        session = AnswerSession(abox, engine=engine)
    except Exception as error:
        try:
            connection.send(("error", "worker start-up failed: "
                             f"{type(error).__name__}: {error}"))
        finally:
            connection.close()
        return
    plans = _PlanTable()
    try:
        while True:
            message = connection.recv()
            command = message[0]
            if command == "stop":
                break
            try:
                if command == "execute":
                    _, plan, engine_name, trace_id = message
                    plan = plans.resolve(plan)
                    answers, seconds, generated, sizes, spans = \
                        _shard_execute(session, plan, engine_name,
                                       trace_id)
                    plans.keep(plan)
                    rows = tuple(answers)
                    for start in range(0, len(rows), CHUNK_ROWS):
                        connection.send(
                            ("chunk", rows[start:start + CHUNK_ROWS]))
                    connection.send(("ok", (len(rows), seconds,
                                            generated, sizes, spans)))
                elif command == "update":
                    _, inserts, deletes = message
                    outcome = session.apply_update(inserts=inserts,
                                                   deletes=deletes)
                    connection.send(("ok", outcome.as_dict()))
                elif command == "ping":
                    connection.send(("ok", "pong"))
                else:
                    connection.send(("error",
                                     f"unknown command {command!r}"))
            except Exception as error:  # report, keep serving
                connection.send(
                    ("error", f"{type(error).__name__}: {error}"))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        session.close()
        connection.close()


class ProcessExecutor(Executor):
    """One persistent worker process per shard, driven over pipes.

    ``execute`` scatters the (pickled) plan to every worker and blocks
    gathering the answers; the workers run truly in parallel.  Answer
    sets stream back in :data:`CHUNK_ROWS`-sized chunks, so the parent
    unions incrementally instead of materialising one pickled
    frozenset per shard.  A lock serialises scatter rounds, so the
    executor is safe to share across threads (concurrent callers queue
    per round, not per shard).

    Start method: ``fork`` where available (workers inherit the shard
    data for free) — but only while the parent is single-threaded;
    forking a multithreaded process (e.g. building the executor lazily
    inside an HTTP handler thread) can deadlock the child on a lock
    some other thread held at fork time, so ``forkserver``/``spawn``
    take over there.

    Transport: under ``forkserver``/``spawn`` the shard ABoxes default
    to the shared-memory fact transport (``transport="shm"``) — each
    shard is encoded once into a segment, the worker attaches and
    decodes interned arrays, and once every worker confirmed its
    attach the segments are unlinked.  ``transport="pickle"`` forces
    the legacy path (under ``fork`` it is free: the arguments are
    inherited, not pickled).
    """

    kind = "process"

    def __init__(self, shard_aboxes: Sequence[ABox],
                 engine: str = "python",
                 start_method: Optional[str] = None,
                 transport: Optional[str] = None):
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            if "fork" in methods and threading.active_count() == 1:
                start_method = "fork"
            elif "forkserver" in methods:
                start_method = "forkserver"
            else:
                start_method = "spawn"
        if transport is None:
            transport = "pickle" if start_method == "fork" else "shm"
        if transport not in ("shm", "pickle"):
            raise ValueError(f"unknown transport {transport!r}; "
                             "expected 'shm' or 'pickle'")
        self.start_method = start_method
        self.transport = transport
        context = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()
        self._broken = False
        self._closed = False
        self._connections = []
        self._processes = []
        self._segments: List[SharedABox] = []
        try:
            for abox in shard_aboxes:
                parent, child = context.Pipe()
                if transport == "shm":
                    shared = SharedABox(abox)
                    self._segments.append(shared)
                    payload: object = shared.descriptor
                else:
                    payload = abox
                process = context.Process(
                    target=_worker_main, args=(child, payload, engine),
                    daemon=True, name=f"repro-shard-{len(self._processes)}")
                process.start()
                child.close()
                self._connections.append(parent)
                self._processes.append(process)
            if self._segments:
                # barrier: a segment may only be unlinked once its
                # worker confirmed the attach + decode
                self._confirm_startup()
                for segment in self._segments:
                    segment.close()
                self._segments = []
        except Exception:
            self.close()
            raise

    def _confirm_startup(self) -> None:
        for shard, connection in enumerate(self._connections):
            try:
                connection.send(("ping",))
                status, payload = connection.recv()
            except (BrokenPipeError, EOFError, OSError):
                detail = ""
                try:  # a start-up error report may still be buffered
                    _, payload = connection.recv()
                    detail = f": {payload}"
                except Exception:
                    pass
                raise RuntimeError(f"shard {shard} worker died during "
                                   f"start-up{detail}") from None
            if status != "ok":
                raise RuntimeError(
                    f"shard {shard} worker failed to start: {payload}")

    @property
    def shards(self) -> int:
        return len(self._processes)

    def _check_usable(self) -> None:
        self._check_open()
        if self._broken:
            raise RuntimeError(
                "a shard worker died in an earlier round; close this "
                "session and build a fresh one")

    def _scatter(self, shards: Sequence[int], messages) -> None:
        """Send one message per shard; a closed pipe marks the whole
        executor broken (a later gather would desync otherwise)."""
        for shard, message in zip(shards, messages):
            try:
                self._connections[shard].send(message)
            except (BrokenPipeError, OSError) as error:
                self._mark_gone(shard, error)

    def _broadcast(self, message) -> None:
        """Send one identical message to every shard, pickled *once*
        (``Connection.send`` would re-pickle the plan per shard)."""
        import pickle

        payload = pickle.dumps(message)
        for shard in range(self.shards):
            try:
                self._connections[shard].send_bytes(payload)
            except (BrokenPipeError, OSError) as error:
                self._mark_gone(shard, error)

    def _mark_gone(self, shard: int, error: Exception) -> None:
        self._broken = True
        raise RuntimeError(
            f"shard {shard} worker is gone ({type(error).__name__}); "
            "close this session and build a fresh one") from None

    def _gather_all(self, shards: Sequence[int]) -> List:
        """One reply per shard, *always* fully drained — a failed shard
        must not leave later replies queued to desync the next round.
        A worker that died mid-round (pipe EOF, process kill) marks
        the executor broken: its reply can never arrive, so no further
        round may be scattered."""
        payloads: List = []
        errors: List[str] = []
        for shard in shards:
            try:
                status, payload = self._connections[shard].recv()
            except (EOFError, OSError):
                self._broken = True
                errors.append(f"shard {shard}: worker died (pipe EOF)")
                continue
            if status == "ok":
                payloads.append(payload)
            else:
                errors.append(f"shard {shard}: {payload}")
        if errors:
            raise RuntimeError("shard worker(s) failed: "
                               + "; ".join(errors))
        return payloads

    def _gather_execute(self) -> List[Tuple]:
        """Drain one streamed ``execute`` reply per shard: chunks are
        unioned incrementally until the terminal ``ok``/``error``; the
        full-drain and breakage semantics of :meth:`_gather_all`."""
        payloads: List[Tuple] = []
        errors: List[str] = []
        for shard in range(self.shards):
            rows: List[tuple] = []
            while True:
                try:
                    status, payload = self._connections[shard].recv()
                except (EOFError, OSError):
                    self._broken = True
                    errors.append(f"shard {shard}: worker died "
                                  "(pipe EOF)")
                    break
                if status == "chunk":
                    rows.extend(payload)
                    continue
                if status == "ok":
                    count, seconds, generated, sizes, spans = payload
                    if count != len(rows):
                        self._broken = True
                        errors.append(
                            f"shard {shard}: gather desync "
                            f"({len(rows)} rows, {count} announced)")
                    else:
                        payloads.append((frozenset(rows), seconds,
                                         generated, sizes, spans))
                else:
                    errors.append(f"shard {shard}: {payload}")
                break
        if errors:
            raise RuntimeError("shard worker(s) failed: "
                               + "; ".join(errors))
        return payloads

    def execute(self, plan, engine: Optional[str] = None
                ) -> List[ShardResult]:
        trace_id = current_trace_id()
        with self._lock:
            self._check_usable()
            self._broadcast(("execute", plan, engine, trace_id))
            payloads = self._gather_execute()
        return [ShardResult(shard, answers, seconds, generated, sizes,
                            tuple(spans))
                for shard, (answers, seconds, generated, sizes, spans)
                in enumerate(payloads)]

    def apply_deltas(self, deltas: Mapping[int, ShardDelta]
                     ) -> List[Dict[str, int]]:
        with self._lock:
            self._check_usable()
            touched = self._selected(sorted(deltas))
            self._scatter(touched,
                          (("update", list(deltas[shard][0]),
                            list(deltas[shard][1]))
                           for shard in touched))
            return self._gather_all(touched)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for connection in self._connections:
                try:
                    connection.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for process in self._processes:
                process.join(timeout=5)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1)
                if process.is_alive():
                    # terminate() can be masked by a SIGTERM handler
                    # or a blocked signal; SIGKILL cannot — escalate
                    # rather than leak the worker
                    process.kill()
                    process.join(timeout=1)
            for connection in self._connections:
                connection.close()
            self._connections = []
            self._processes = []
            for segment in self._segments:
                segment.close()
            self._segments = []


def create_executor(kind: str, shard_aboxes: Sequence[ABox],
                    engine: str = "python",
                    start_method: Optional[str] = None,
                    transport: Optional[str] = None) -> Executor:
    """Build the requested executor.

    ``"auto"`` picks processes on multi-core machines and the serial
    path on single-core ones (where worker processes cost start-up but
    cannot overlap).  ``start_method`` and ``transport`` configure the
    :class:`ProcessExecutor` (ignored by the serial one).
    """
    import os

    if kind == "auto":
        kind = "process" if (os.cpu_count() or 1) > 1 else "serial"
    if kind == "serial":
        return SerialExecutor(shard_aboxes, engine=engine)
    if kind == "process":
        return ProcessExecutor(shard_aboxes, engine=engine,
                               start_method=start_method,
                               transport=transport)
    raise ValueError(f"unknown executor {kind!r}; expected 'auto', "
                     "'serial' or 'process'")
