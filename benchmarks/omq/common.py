"""Shared pieces of the benchmark: paths, statistics, the run context
and the failed/attempted tally."""

from __future__ import annotations

import itertools
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
)

from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"


def import_repro():
    """Put the checkout's ``src`` first on ``sys.path`` and import the
    package under test; exits with code 2 when it is not there (the
    benchmark never measures an installed copy by accident)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program to measure: {SRC / 'repro'} is "
              "missing", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    return repro


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


median = statistics.median
mean = statistics.fmean


class HostSpeed:
    """The host's speed right now, read off a fixed spin loop.

    This machine is a few cores of a shared host.  It flips between
    speeds up to 35% apart that hold for one to sixty seconds, under
    the benchmark process and the server subprocess alike, and the
    hypervisor withholds the CPUs in bursts (2% to 50% steal, for
    minutes): whole runs of the same code landed 15-30% apart whatever
    statistic a run took of its own samples.  So every timed operation
    is scaled by how long the loop takes beside it, relative to
    ``REFERENCE_S``: a time reads as on a host that runs the loop in
    exactly 1 ms.  The loop runs between operations, never beside one,
    at most once per ``MAX_AGE_S`` (about 6% of a run).

    ``clock`` is what both the loop and the operations are timed with:
    ``time.perf_counter`` where an operation waits on another process,
    ``time.process_time`` where it is computation in this process —
    CPU seconds equal wall seconds there on a quiet host, and leave out
    the time the hypervisor withheld, which no reading of the loop can
    see inside an operation of a second or more."""

    LOOPS = 20_000
    REFERENCE_S = 0.001
    MAX_AGE_S = 0.05

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self._at = float("-inf")
        self._spin_s = 0.0
        #: every reading taken, and the seconds of ``clock`` they took
        self.readings: List[float] = []
        self.spinning = 0.0

    def spin_s(self) -> float:
        """Seconds the loop takes now: the median of three passes, so
        that one interrupted pass does not count; measured again only
        when the last reading is older than ``MAX_AGE_S``."""
        if time.perf_counter() - self._at > self.MAX_AGE_S:
            passes = []
            for _ in range(3):
                started = self.clock()
                total = 0
                for i in range(self.LOOPS):
                    total += i * i
                passes.append(self.clock() - started)
            self._spin_s = median(passes)
            self._at = time.perf_counter()
            self.readings.append(self._spin_s)
            self.spinning += sum(passes)
        return self._spin_s

    def timed(self, function: Callable, *args, **kwargs):
        """``(result, seconds)`` of one call, the seconds at reference
        speed: its time over the mean of the readings beside it — the
        one before, the one after (the same one when the call is
        shorter than ``MAX_AGE_S``) and, when the call times calls of
        its own as a set-up does, theirs in between.  The loop's own
        time is not the call's.  Call from one thread at a time."""
        beside = [self.spin_s()]
        mark = len(self.readings)
        spun = self.spinning
        started = self.clock()
        result = function(*args, **kwargs)
        seconds = self.clock() - started - (self.spinning - spun)
        after = self.spin_s()
        beside += self.readings[mark:] or [after]
        return result, seconds * self.REFERENCE_S / mean(beside)


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Failed/attempted operations of one run; the first few failure
    descriptions are kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what, count_attempt=False)
        return ok

    def fail(self, what: str, count_attempt: bool = True) -> None:
        if count_attempt:
            self.attempted += 1
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(what)


class Context:
    """What every workload receives: the seed, the time budget, the
    output directory, the span recorder and the tally."""

    def __init__(self, seed: int, seconds: float, out_dir: Path,
                 trace: bool, reference_seconds: float,
                 clock: Callable[[], float], corrupt: bool = False):
        self.seed = seed
        self.seconds = seconds
        #: ``run_seconds`` of BENCHMARK.json, which the floors assume
        self.reference_seconds = reference_seconds
        self.out_dir = out_dir
        self.rng = random.Random(seed)
        self.recorder = SpanRecorder(enabled=trace)
        self.host = HostSpeed(clock)
        self.tally = Tally()
        #: the self-test's switch: every seventh observed answer is
        #: damaged before the correctness gate sees it, which must then
        #: count failed operations and fail the run
        self.corrupt = corrupt
        self._observed = itertools.count()

    def floor(self, samples: int) -> int:
        """The sample floor of a phase: ``samples`` at the reference
        run length, proportionally fewer on a shorter smoke run, never
        under the 200 a p95 needs for ten samples beyond it."""
        share = min(1.0, self.seconds / self.reference_seconds)
        return max(200, int(samples * share))

    def observed(self, answers) -> FrozenSet:
        """Answers as the gate sees them (identity unless the self-test
        asked for corruption)."""
        answers = frozenset(answers)
        if not self.corrupt or next(self._observed) % 7:
            return answers
        if answers:
            return frozenset(list(answers)[1:])
        return frozenset({("corrupted",)})


def timed(function: Callable, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - started


def timed_rounds(seconds: float, run_round: Callable) -> Iterator:
    """Yield ``run_round()`` results for as many whole rounds as fit in
    ``seconds`` (always at least one)."""
    spent = last = 0.0
    first = True
    while first or spent + last <= seconds:
        result, last = timed(run_round)
        spent += last
        first = False
        yield result


def item_metrics(rounds: Sequence[Dict[object, float]]) -> Dict[str, float]:
    """Latency/throughput of a round-based workload.

    ``rounds`` maps each operation of the fixed input set to its
    milliseconds (at reference speed), once per round.  Each
    operation's time is its median over the rounds, so the p95 names
    the same operation however many rounds fit; then p50/p95 are taken
    across the operations and the rate is operations per second of
    their summed medians."""
    per_item = [median([done[key] for done in rounds]) for key in rounds[0]]
    return {"op_p50_ms": median(per_item),
            "op_p95_ms": percentile(per_item, 0.95),
            "ops_per_s": len(per_item) / (sum(per_item) / 1000.0)}


def request_metrics(samples_ms: Sequence[float],
                    ops_per_s: float) -> Dict[str, float]:
    """Latency/throughput of a request-based workload: median and p95
    of the one-caller samples beside the rate the workload measured."""
    return {"op_p50_ms": median(samples_ms),
            "op_p95_ms": percentile(samples_ms, 0.95),
            "ops_per_s": ops_per_s}


def require_floor(samples: int, floor: int, what: str) -> None:
    """A phase that produced fewer samples than its percentile needs is
    a hard failure, not a silently short run."""
    if samples < floor:
        raise RuntimeError(f"{what}: {samples} samples, floor is {floor}")


def optional(function: Callable, default: Optional[float] = None):
    """Run a layer probe; a layer whose module, engine, front-end or
    signature is gone reports ``default`` (and says so on stderr)
    instead of breaking the benchmark."""
    try:
        return function()
    except (ImportError, AttributeError, TypeError, ValueError,
            RuntimeError) as error:
        print(f"benchmark: layer absent ({type(error).__name__}: "
              f"{error})", file=sys.stderr)
        return default
