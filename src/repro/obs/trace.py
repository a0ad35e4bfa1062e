"""Structured run tracing: one JSON Lines journal per traced run.

``--trace`` turns every layer's notable moments — study declares,
plan dedup, job submit/complete/retry, cache hits/misses/stores,
analytic memo serves, adaptive wave staging and convergence, table
emission — into a stream of schema-validated events under
``<runs-dir>/<run-id>/trace.jsonl`` (or ``--trace-file``):

* **point events** record one fact (``{"ev": "cache_hit", "t": 0.81,
  "key": "ab12…"}``); **span events** come in ``span_begin`` /
  ``span_end`` pairs sharing a sequential ``sid``, and the end event
  carries the duration — the ``trace summary`` per-phase breakdown
  sums them;
* timestamps are monotonic seconds relative to the trace start, so a
  clock step mid-run cannot reorder the journal;
* each event is one ``json.dumps`` line written in a single flushed
  ``write()`` — an append is atomic with respect to crashes (a killed
  run leaves a valid prefix) and to any other writer of the stream;
* event shapes live in :data:`EVENT_FIELDS`; :func:`validate_event`
  rejects unknown events, missing required fields and undeclared
  fields, so the trace format cannot drift silently.

When tracing is off every instrumentation site holds the
:data:`NULL_TRACE` null writer whose ``enabled`` flag is ``False`` —
hot paths pay one attribute check and skip even building the event's
keyword arguments.  The sampled numbers never depend on tracing:
instrumentation only observes, so output bytes are identical with
``--trace`` on or off.

Determinism: with timing/process identity stripped
(:data:`VOLATILE_FIELDS`) and the environment-describing events
dropped (:data:`ENVIRONMENT_EVENTS`), the same command produces the
same event *multiset* on any executor — serial or pooled — because
every remaining field is a pure function of the plan.
:func:`comparable_events` applies exactly that reduction for tests.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from ..constants import TRACE_NAME
from ..exceptions import ReproError

__all__ = [
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

#: Current trace schema version (stamped into ``trace_start``).
TRACE_FORMAT = 1

#: Fields whose values vary run-to-run (timing, process identity) even
#: when the computation is identical — stripped before determinism
#: comparisons and by ``trace timeline``'s compact detail column.
VOLATILE_FIELDS = frozenset({"t", "dur", "worker", "pid"})

#: Events that describe the execution environment (argv, worker
#: counts, window sizes) rather than the computation — dropped before
#: cross-executor determinism comparisons.
ENVIRONMENT_EVENTS = frozenset({"trace_start", "trace_end", "schedule", "snapshot"})

#: Event vocabulary: ``ev`` -> (required fields, optional fields).
#: ``ev`` and ``t`` are implicit on every event.  Adding an event or a
#: field here *is* the schema change; everything else validates
#: against this table.
EVENT_FIELDS: dict[str, tuple[frozenset, frozenset]] = {
    # lifecycle
    "trace_start": (frozenset({"format", "pid", "argv"}), frozenset({"run_id", "command"})),
    "trace_end": (frozenset({"status"}), frozenset()),
    "snapshot": (frozenset({"metrics"}), frozenset()),
    # spans (declare | execute)
    "span_begin": (frozenset({"name", "sid"}), frozenset({"study", "platform", "round"})),
    "span_end": (
        frozenset({"name", "sid", "dur"}),
        frozenset({"study", "platform", "round", "points"}),
    ),
    # planning and point delivery
    "plan": (frozenset({"round", "points", "unique", "jobs"}), frozenset()),
    "point": (frozenset({"study", "status", "key"}), frozenset()),
    # scheduler
    "schedule": (frozenset({"jobs", "max_inflight", "workers"}), frozenset()),
    "job_submit": (frozenset({"job", "attempt"}), frozenset()),
    "job_complete": (frozenset({"job"}), frozenset({"dur", "worker"})),
    "job_retry": (frozenset({"job", "attempt", "error"}), frozenset()),
    "job_inline": (frozenset({"job"}), frozenset({"dur"})),
    # result cache / analytic memo
    "cache_hit": (frozenset({"key"}), frozenset()),
    "cache_miss": (frozenset({"key"}), frozenset()),
    # dur: wall seconds of the store (1.23+; older journals lack it)
    "cache_store": (frozenset({"key", "kind"}), frozenset({"dur"})),
    "memo_serve": (frozenset({"study", "count"}), frozenset()),
    # dur: wall seconds of the batch (1.21+; older journals lack it)
    "analytic_batch": (frozenset({"study", "evaluated", "served"}), frozenset({"dur"})),
    # adaptive replicate engine
    "wave_stage": (
        frozenset({"family", "wave", "start", "stop"}),
        frozenset({"rows"}),
    ),
    "wave_converge": (
        frozenset({"family", "wave", "converged", "active", "rows_converged"}),
        frozenset(),
    ),
    # output and resume
    "emit": (frozenset({"study", "tables"}), frozenset()),
    "resume_validate": (
        frozenset({"reused", "invalidated", "missing", "stale"}),
        frozenset(),
    ),
}


def validate_event(event: dict) -> None:
    """Raise :class:`ReproError` unless ``event`` matches its schema."""
    if not isinstance(event, dict):
        raise ReproError(f"trace event is not an object: {event!r}")
    ev = event.get("ev")
    if ev not in EVENT_FIELDS:
        raise ReproError(f"unknown trace event type {ev!r}")
    if not isinstance(event.get("t"), (int, float)):
        raise ReproError(f"trace event {ev!r} lacks a numeric timestamp 't'")
    required, optional = EVENT_FIELDS[ev]
    fields = set(event) - {"ev", "t"}
    missing = required - fields
    if missing:
        raise ReproError(
            f"trace event {ev!r} is missing required fields {sorted(missing)}"
        )
    unknown = fields - required - optional
    if unknown:
        raise ReproError(
            f"trace event {ev!r} carries undeclared fields {sorted(unknown)}"
        )
    if ev == "point" and event["status"] not in ("computed", "served"):
        raise ReproError(f"trace point has unknown status {event['status']!r}")


class TraceWriter:
    """Append-only JSON Lines journal of one run's events.

    Single-writer by construction (one writer per CLI invocation);
    the internal lock additionally serialises line writes so callbacks
    firing from any thread can never interleave bytes mid-line.
    """

    enabled = True

    def __init__(
        self,
        path: str | Path,
        argv=(),
        run_id: str | None = None,
        command: str | None = None,
        clock=time.monotonic,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.Lock()
        self._sid = 0
        self.events_written = 0
        self.closed = False
        self._handle = open(self.path, "w")
        import os

        start = {"format": TRACE_FORMAT, "pid": os.getpid(), "argv": list(argv)}
        if run_id is not None:
            start["run_id"] = run_id
        if command is not None:
            start["command"] = command
        self.event("trace_start", **start)

    def _now(self) -> float:
        return round(self._clock() - self._t0, 6)

    def event(self, ev: str, **fields) -> None:
        """Journal one point event (a no-op after :meth:`close`)."""
        if self.closed:
            return
        fields["ev"] = ev
        fields["t"] = self._now()
        line = json.dumps(fields, sort_keys=True, separators=(",", ":")) + "\n"
        with self._lock:
            self._handle.write(line)
            self._handle.flush()
            self.events_written += 1

    @contextmanager
    def span(self, name: str, **fields):
        """A ``span_begin``/``span_end`` pair around a code region.

        Yields a dict; anything the caller puts in it before the block
        exits rides on the ``span_end`` event (e.g. how many points a
        declare phase staged).
        """
        with self._lock:
            self._sid += 1
            sid = self._sid
        started = self._clock()
        self.event("span_begin", name=name, sid=sid, **fields)
        extra: dict = {}
        try:
            yield extra
        finally:
            self.event(
                "span_end",
                name=name,
                sid=sid,
                dur=round(self._clock() - started, 6),
                **{**fields, **extra},
            )

    def close(self, status: str = "complete") -> None:
        if self.closed:
            return
        self.event("trace_end", status=status)
        self.closed = True
        self._handle.close()


class NullTraceWriter:
    """The off switch: every hook is a no-op, ``enabled`` is ``False``.

    Instrumentation sites guard their event construction with
    ``if trace.enabled:`` so a disabled run pays one attribute check —
    the null methods exist for unguarded (cold) call sites.
    """

    enabled = False
    closed = True
    path = None
    events_written = 0

    def event(self, ev: str, **fields) -> None:
        pass

    @contextmanager
    def span(self, name: str, **fields):
        yield {}

    def close(self, status: str = "complete") -> None:
        pass


#: The shared null writer (stateless, so one instance serves everyone).
NULL_TRACE = NullTraceWriter()


def iter_trace(path: str | Path, validate: bool = True):
    """Yield the events of a trace file, optionally schema-validating."""
    path = Path(path)
    try:
        handle = open(path)
    except OSError as exc:
        raise ReproError(f"no trace at {path}: {exc}") from None
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if validate:
                try:
                    validate_event(event)
                except ReproError as exc:
                    raise ReproError(f"{path}:{lineno}: {exc}") from None
            yield event


def load_trace(path: str | Path, validate: bool = True) -> list[dict]:
    """Every event of a trace file as a list (see :func:`iter_trace`)."""
    return list(iter_trace(path, validate=validate))


def comparable_events(events, drop: frozenset = ENVIRONMENT_EVENTS) -> list[dict]:
    """Reduce events to their executor-independent core.

    Drops the environment-describing event types and strips the
    volatile fields; the result's *multiset* is invariant across
    serial/pooled execution of the same command (the emission
    order still follows completion order, so compare sorted).
    """
    out = []
    for event in events:
        if event.get("ev") in drop:
            continue
        out.append({k: v for k, v in event.items() if k not in VOLATILE_FIELDS})
    return out
