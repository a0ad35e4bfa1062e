"""A labeled metrics registry shared by every layer of one invocation.

The pipeline, scheduler, caches and adaptive engine used to keep their
own private tallies (per-pipeline point counts, ``Counter`` dicts
inside the progress printer, hand-rolled ``reused``/``recomputed``
ints on the run manifest).  This module replaces them with one
:class:`MetricsRegistry` of labeled counters, gauges and histograms:

* every layer increments the same registry, so the ``--progress``
  printer, the ``--dry-run`` report, the resume summary and the
  manifest snapshot all read one source of truth instead of each
  re-counting events;
* :meth:`MetricsRegistry.snapshot` serialises the whole registry as a
  stable, sorted JSON document (``repro-metrics/1``) — journaled into
  the run manifest at exit and into the trace as its final event, and
  reused verbatim by ``cache stats --format json``.

Metrics are cheap (a dict lookup and an integer add per event — the
events are per *point*, never per Monte-Carlo sample), so the registry
is always on; only the trace writer has an off switch.
"""

from __future__ import annotations

from ..exceptions import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS_SCHEMA",
]

#: Schema tag of :meth:`MetricsRegistry.snapshot` payloads (bumped on
#: incompatible changes, mirroring the manifest format discipline).
METRICS_SCHEMA = "repro-metrics/1"


class Counter:
    """A monotonically increasing count (events, points, retries)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_value(self):
        return self.value


class Gauge:
    """A point-in-time level (pending points, in-flight high-water)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def update_max(self, value) -> None:
        """High-water semantics: keep the largest observed level."""
        if value > self.value:
            self.value = value

    def to_value(self):
        return self.value


class Histogram:
    """Summary statistics of observed samples (job wall times).

    Full per-sample retention belongs in the trace; the registry keeps
    the count/total/min/max summary, which is what the manifest
    snapshot and the utilization report need.
    """

    kind = "histogram"
    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_value(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Get-or-create store of labeled metrics, keyed by (name, labels).

    Labels are keyword arguments with string values; one metric name
    must keep one kind (asking for ``counter("x")`` after ``gauge("x")``
    is a programming error and raises).  Iteration order is insertion
    order — the dry-run report relies on it to keep first-declaration
    study ordering — while :meth:`snapshot` sorts for stability.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, object] = {}

    @staticmethod
    def _key(name: str, labels: dict) -> tuple:
        return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))

    def _get_or_create(self, cls, name: str, labels: dict):
        key = self._key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ReproError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    def get(self, name: str, **labels):
        """The metric registered under (name, labels), or ``None``."""
        return self._metrics.get(self._key(name, labels))

    def value(self, name: str, **labels):
        """The metric's current value, or ``0`` when never registered."""
        metric = self._metrics.get(self._key(name, labels))
        return 0 if metric is None else metric.value

    def labeled(self, name: str) -> list[tuple[dict, object]]:
        """Every (labels, metric) registered under ``name``, insertion order."""
        return [
            (dict(key[1]), metric)
            for key, metric in self._metrics.items()
            if key[0] == name
        ]

    def clear(self, name: str) -> None:
        """Drop every metric registered under ``name`` (preview refresh)."""
        for key in [k for k in self._metrics if k[0] == name]:
            del self._metrics[key]

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """The whole registry as a stable, JSON-serialisable document."""
        rows = [
            {
                "name": key[0],
                "labels": dict(key[1]),
                "type": metric.kind,
                "value": metric.to_value(),
            }
            for key, metric in sorted(self._metrics.items())
        ]
        return {"schema": METRICS_SCHEMA, "metrics": rows}
