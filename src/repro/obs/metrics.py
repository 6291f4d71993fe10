"""A thread-safe metrics registry: counters, gauges, latency histograms.

One :class:`MetricsRegistry` per :class:`~repro.service.service.OMQService`
is the single home for every serving counter — the cache, the standing
registry, the tenant manager, the HTTP server and the service
itself all register their families against it instead of keeping
private ``self._hits``-style integers.  That buys three things at
once:

* ``GET /metrics`` renders the whole registry in the Prometheus text
  exposition format, so the same numbers that back ``/stats`` are
  scrapeable;
* the exposed *metric families* never depend on traffic (families
  are created centrally, subsystems only increment the ones they
  use), so a dashboard can rely on every name from the first scrape;
* latency gets first-class treatment: :class:`Histogram` buckets
  observations logarithmically and answers p50/p95/p99 directly from
  the bucket counts, which is what the hot-path latency program trends.

Everything is stdlib-only and lock-per-registry; an increment is a
dict lookup and a float add under one lock, cheap enough for the
request path (the latency benchmark guards the overhead).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "LATENCY_BUCKETS"]

#: Default log-spaced latency buckets (seconds): 100µs to 60s.  The
#: upper edge of each bucket; ``+Inf`` is implicit.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

_METRIC_TYPES = ("counter", "gauge", "histogram")


def _format_value(value: float) -> str:
    """Prometheus sample rendering: integers without a decimal point."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _label_suffix(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{_escape_label(value)}"'
                     for name, value in labels)
    return "{" + inner + "}"


class _Metric:
    """One family: name, help, type, and its labeled children.

    A family with no ``labelnames`` has exactly one child (the empty
    label set) and proxies ``inc``/``set``/``observe`` to it, so
    ``registry.counter("x", "...").inc()`` reads naturally.
    """

    kind = "?"

    def __init__(self, name: str, help_text: str,
                 labelnames: Tuple[str, ...], lock: threading.Lock):
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self._lock = lock
        self._children: Dict[Tuple[str, ...], object] = {}
        if not labelnames:
            self._children[()] = self._new_child()

    def _new_child(self):
        raise NotImplementedError

    def labels(self, **labels: str):
        """The child for one concrete label set (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels "
                f"{self.labelnames}, got {tuple(sorted(labels))}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
            return child

    @property
    def _solo(self):
        if self.labelnames:
            raise ValueError(f"metric {self.name!r} is labeled "
                             f"({self.labelnames}); call .labels() first")
        return self._children[()]

    def children(self) -> List[Tuple[Tuple[Tuple[str, str], ...], object]]:
        with self._lock:
            return [(tuple(zip(self.labelnames, key)), child)
                    for key, child in sorted(self._children.items())]

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {_escape_help(self.help)}",
                 f"# TYPE {self.name} {self.kind}"]
        for labels, child in self.children():
            lines.extend(child.render_samples(self.name, labels))
        return lines


class _CounterValue:
    """One monotonically increasing sample."""

    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock):
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render_samples(self, name: str, labels) -> List[str]:
        return [f"{name}{_label_suffix(labels)} "
                f"{_format_value(self.value)}"]


class _GaugeValue:
    """One sample that can go up and down."""

    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock):
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render_samples(self, name: str, labels) -> List[str]:
        return [f"{name}{_label_suffix(labels)} "
                f"{_format_value(self.value)}"]


class _HistogramValue:
    """Log-bucketed observations with percentile estimation.

    Keeps cumulative-style bucket counts (stored per-bucket, rendered
    cumulative), the exact sum/count, and the min/max seen — the
    percentile estimate interpolates within its bucket and clamps to
    the observed extremes, so single-value distributions report that
    value exactly.
    """

    __slots__ = ("buckets", "counts", "_sum", "_count", "_min", "_max",
                 "_lock")

    def __init__(self, buckets: Tuple[float, ...], lock: threading.Lock):
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            slot = len(self.buckets)
            for index, edge in enumerate(self.buckets):
                if value <= edge:
                    slot = index
                    break
            self.counts[slot] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, quantile: float) -> float:
        """The estimated value at ``quantile`` (0..1), interpolated
        linearly inside the winning bucket and clamped to the exact
        min/max observed."""
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], "
                             f"got {quantile}")
        with self._lock:
            if not self._count:
                return 0.0
            rank = quantile * self._count
            cumulative = 0
            for index, bucket_count in enumerate(self.counts):
                cumulative += bucket_count
                if cumulative >= rank and bucket_count:
                    lower = (0.0 if index == 0
                             else self.buckets[index - 1])
                    upper = (self.buckets[index]
                             if index < len(self.buckets)
                             else max(self._max, lower))
                    inside = (rank - (cumulative - bucket_count)
                              ) / bucket_count
                    estimate = lower + (upper - lower) * min(1.0, inside)
                    return min(max(estimate, self._min), self._max)
            return self._max

    def summary(self) -> Dict[str, float]:
        """p50/p95/p99 plus count/mean — the ``/stats`` latency block."""
        with self._lock:
            count, total = self._count, self._sum
        return {"count": count,
                "mean": round(total / count, 6) if count else 0.0,
                "p50": round(self.percentile(0.50), 6),
                "p95": round(self.percentile(0.95), 6),
                "p99": round(self.percentile(0.99), 6)}

    def render_samples(self, name: str, labels) -> List[str]:
        with self._lock:
            counts = list(self.counts)
            total, count = self._sum, self._count
        lines = []
        cumulative = 0
        for edge, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            le = (("le", _format_value(edge)),)
            lines.append(f"{name}_bucket{_label_suffix(labels + le)} "
                         f"{cumulative}")
        cumulative += counts[-1]
        inf = (("le", "+Inf"),)
        lines.append(f"{name}_bucket{_label_suffix(labels + inf)} "
                     f"{cumulative}")
        lines.append(f"{name}_sum{_label_suffix(labels)} "
                     f"{_format_value(total)}")
        lines.append(f"{name}_count{_label_suffix(labels)} {count}")
        return lines


class Counter(_Metric):
    kind = "counter"

    def _new_child(self) -> _CounterValue:
        return _CounterValue(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._solo.inc(amount)

    @property
    def value(self) -> float:
        return self._solo.value


class Gauge(_Metric):
    kind = "gauge"

    def _new_child(self) -> _GaugeValue:
        return _GaugeValue(self._lock)

    def set(self, value: float) -> None:
        self._solo.set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._solo.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo.dec(amount)

    @property
    def value(self) -> float:
        return self._solo.value


class Histogram(_Metric):
    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 labelnames: Tuple[str, ...], lock: threading.Lock,
                 buckets: Tuple[float, ...] = LATENCY_BUCKETS):
        edges = tuple(sorted(set(float(edge) for edge in buckets)))
        if not edges:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = edges
        super().__init__(name, help_text, labelnames, lock)

    def _new_child(self) -> _HistogramValue:
        return _HistogramValue(self.buckets, self._lock)

    def observe(self, value: float) -> None:
        self._solo.observe(value)

    def percentile(self, quantile: float) -> float:
        return self._solo.percentile(quantile)

    def summary(self) -> Dict[str, float]:
        return self._solo.summary()

    @property
    def count(self) -> int:
        return self._solo.count

    @property
    def sum(self) -> float:
        return self._solo.sum


_NAME_ERROR = ("metric names must match [a-zA-Z_:][a-zA-Z0-9_:]* "
               "(Prometheus exposition format)")


def _check_name(name: str) -> str:
    if not name or not (name[0].isalpha() or name[0] in "_:"):
        raise ValueError(f"{_NAME_ERROR}; got {name!r}")
    for char in name:
        if not (char.isalnum() or char in "_:"):
            raise ValueError(f"{_NAME_ERROR}; got {name!r}")
    return name


class MetricsRegistry:
    """A named collection of metric families, one per service.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking for
    an existing name returns the existing family (and raises if the
    type or labels disagree), so independent subsystems can share one
    registry without coordinating creation order.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: "Dict[str, _Metric]" = {}

    def _family(self, cls, name: str, help_text: str,
                labelnames: Iterable[str], **kwargs) -> _Metric:
        _check_name(name)
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}, not {cls.kind}")
                if family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered with "
                        f"labels {family.labelnames}, not {labelnames}")
                return family
            family = cls(name, help_text, labelnames,
                         threading.Lock(), **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        return self._family(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        return self._family(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Tuple[float, ...] = LATENCY_BUCKETS
                  ) -> Histogram:
        return self._family(Histogram, name, help_text, labelnames,
                            buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[_Metric]:
        with self._lock:
            return [self._families[name]
                    for name in sorted(self._families)]

    def render_prometheus(self) -> str:
        """The whole registry in the Prometheus text exposition
        format (version 0.0.4), families sorted by name."""
        lines: List[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, object]:
        """Every sample as a JSON-able dict (tests and debugging)."""
        out: Dict[str, object] = {}
        for family in self.families():
            samples: Dict[str, object] = {}
            for labels, child in family.children():
                key = _label_suffix(tuple(labels)) or "_"
                if isinstance(child, _HistogramValue):
                    samples[key] = child.summary()
                else:
                    samples[key] = child.value
            out[family.name] = {"type": family.kind, "samples": samples}
        return out


def parse_prometheus_families(text: str) -> Dict[str, str]:
    """``{family name: type}`` from a text-format exposition — what the
    tests pin at the wire level."""
    families: Dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families[name] = kind.strip()
    return families


#: Prometheus content type for the text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
