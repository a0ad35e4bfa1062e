"""Observability: structured tracing, metrics, and trace analysis.

One invocation, one :class:`~repro.obs.metrics.MetricsRegistry`
(always on — the progress printer, dry-run report, resume summary and
manifest snapshot all read it) and one
:class:`~repro.obs.trace.TraceWriter` (``--trace``; the
:data:`~repro.obs.trace.NULL_TRACE` null writer otherwise, so hot
paths pay a single ``enabled`` check).  :mod:`repro.obs.report` turns
a written trace back into per-phase wall-time, scheduler-occupancy
and worker-utilisation answers for the ``trace`` CLI.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".metrics": ("METRICS_SCHEMA", "Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".stream": ("LineStream",),
    ".trace": (
        "ENVIRONMENT_EVENTS", "EVENT_FIELDS", "NULL_TRACE", "TRACE_FORMAT",
        "TRACE_NAME", "VOLATILE_FIELDS", "NullTraceWriter", "TraceWriter",
        "comparable_events", "iter_trace", "load_trace", "validate_event",
    ),
})

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS_SCHEMA",
    "LineStream",
    "TraceWriter",
    "NullTraceWriter",
    "NULL_TRACE",
    "TRACE_FORMAT",
    "TRACE_NAME",
    "EVENT_FIELDS",
    "VOLATILE_FIELDS",
    "ENVIRONMENT_EVENTS",
    "validate_event",
    "iter_trace",
    "load_trace",
    "comparable_events",
]
