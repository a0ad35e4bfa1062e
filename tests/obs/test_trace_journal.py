"""The trace writer and schema: journaling, validation, null writer."""

from __future__ import annotations

import json
import threading

import pytest

from repro.exceptions import ReproError
from repro.obs.trace import (
    ENVIRONMENT_EVENTS,
    EVENT_FIELDS,
    NULL_TRACE,
    TRACE_FORMAT,
    TraceWriter,
    comparable_events,
    iter_trace,
    load_trace,
    validate_event,
)


@pytest.fixture
def trace_path(tmp_path):
    return tmp_path / "trace.jsonl"


class TestWriter:
    def test_header_and_end(self, trace_path):
        writer = TraceWriter(trace_path, argv=["fig5", "--trace"], run_id="r1",
                             command="fig5")
        writer.close()
        events = load_trace(trace_path)
        assert events[0]["ev"] == "trace_start"
        assert events[0]["format"] == TRACE_FORMAT
        assert events[0]["argv"] == ["fig5", "--trace"]
        assert events[0]["run_id"] == "r1"
        assert events[-1] == {
            "ev": "trace_end", "status": "complete", "t": events[-1]["t"],
        }

    def test_events_validate_and_timestamps_monotonic(self, trace_path):
        writer = TraceWriter(trace_path)
        writer.event("cache_miss", key="k1")
        writer.event("point", study="fig5", status="computed", key="k1")
        writer.close()
        events = load_trace(trace_path)  # validate=True: schema-checks all
        stamps = [event["t"] for event in events]
        assert stamps == sorted(stamps)

    def test_span_pairs_share_sid_and_carry_extras(self, trace_path):
        writer = TraceWriter(trace_path)
        with writer.span("declare", study="fig5") as extra:
            extra["points"] = 54
        writer.close()
        begin, end = [e for e in load_trace(trace_path)
                      if e["ev"].startswith("span_")]
        assert begin["sid"] == end["sid"]
        assert begin["study"] == end["study"] == "fig5"
        assert end["points"] == 54
        assert end["dur"] >= 0

    def test_extra_overrides_begin_field(self, trace_path):
        writer = TraceWriter(trace_path)
        with writer.span("declare", study="before") as extra:
            extra["study"] = "after"
        writer.close()
        end = [e for e in load_trace(trace_path) if e["ev"] == "span_end"][0]
        assert end["study"] == "after"

    def test_close_is_idempotent_and_seals(self, trace_path):
        writer = TraceWriter(trace_path)
        writer.close()
        writer.close()
        writer.event("cache_miss", key="ignored")  # after close: dropped
        events = load_trace(trace_path)
        assert [e["ev"] for e in events] == ["trace_start", "trace_end"]

    def test_concurrent_events_never_tear_lines(self, trace_path):
        writer = TraceWriter(trace_path)

        def hammer(n):
            for i in range(50):
                writer.event("cache_miss", key=f"{n}-{i}")

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        writer.close()
        events = load_trace(trace_path)  # any torn line fails JSON parsing
        assert sum(1 for e in events if e["ev"] == "cache_miss") == 200


class TestNullWriter:
    def test_disabled_and_inert(self):
        assert NULL_TRACE.enabled is False
        NULL_TRACE.event("point", study="x", status="computed", key="k")
        with NULL_TRACE.span("declare") as extra:
            extra["points"] = 1
        NULL_TRACE.close()
        assert NULL_TRACE.events_written == 0


class TestValidation:
    def test_unknown_event_rejected(self):
        with pytest.raises(ReproError, match="unknown trace event"):
            validate_event({"ev": "nope", "t": 0.0})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ReproError, match="missing required"):
            validate_event({"ev": "point", "t": 0.0, "study": "fig5"})

    def test_undeclared_field_rejected(self):
        with pytest.raises(ReproError, match="undeclared fields"):
            validate_event(
                {"ev": "cache_hit", "t": 0.0, "key": "k", "extra": 1}
            )

    def test_retired_skipped_point_rejected(self):
        """``skipped`` (sharded runs, removed in 1.18) is no point status:
        `trace summary` of such a journal fails with this one-line error."""
        with pytest.raises(ReproError, match="unknown status 'skipped'"):
            validate_event(
                {"ev": "point", "t": 0.0, "study": None, "status": "skipped",
                 "key": None}
            )

    def test_analytic_batch_dur_is_optional(self):
        batch = {"ev": "analytic_batch", "t": 0.0, "study": "fig5",
                 "evaluated": 3, "served": 1}
        validate_event(batch)  # journals from before 1.21
        validate_event(dict(batch, dur=0.0075))

    def test_job_submit_task_is_optional(self):
        # Journals written before tasks (1.26) carry no task id.
        submit = {"ev": "job_submit", "t": 0.1, "job": "1.0", "attempt": 0}
        validate_event(submit)
        validate_event(dict(submit, task=7))

    def test_missing_timestamp_rejected(self):
        with pytest.raises(ReproError, match="numeric timestamp"):
            validate_event({"ev": "cache_hit", "key": "k"})

    def test_every_declared_event_minimally_validates(self):
        samples = {
            "format": 1, "pid": 1, "argv": [], "status": "computed", "metrics": {},
            "name": "declare", "sid": 1, "dur": 0.1, "round": 1, "points": 1,
            "unique": 1, "jobs": 1, "study": "s", "key": "k", "max_inflight": 1,
            "workers": 1, "job": "1.0", "attempt": 1, "error": "E", "kind": "v",
            "count": 1, "evaluated": 1, "served": 1, "family": "f", "wave": 0,
            "start": 0, "stop": 1, "converged": 0, "active": 1,
            "rows_converged": 0, "tables": 1, "reused": 0, "invalidated": 0,
            "missing": 0, "stale": 0,
        }
        for ev, (required, _) in EVENT_FIELDS.items():
            event = {"ev": ev, "t": 0.0}
            event.update({field: samples[field] for field in required})
            validate_event(event)

    def test_iter_trace_reports_bad_line_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev":"trace_start","t":0,"format":1,"pid":1,"argv":[]}\n'
                        "not json\n")
        with pytest.raises(ReproError, match="bad.jsonl:2"):
            list(iter_trace(path))

    def test_iter_trace_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="no trace at"):
            list(iter_trace(tmp_path / "absent.jsonl"))


class TestComparable:
    def test_strips_volatile_and_environment(self):
        events = [
            {"ev": "trace_start", "t": 0.0, "format": 1, "pid": 9, "argv": []},
            {"ev": "schedule", "t": 0.1, "jobs": 4, "max_inflight": 8,
             "workers": 2},
            {"ev": "job_submit", "t": 0.15, "job": "1.0", "attempt": 0,
             "task": 3},
            {"ev": "job_complete", "t": 0.2, "job": "1.0", "dur": 0.05,
             "worker": 1234},
            {"ev": "point", "t": 0.3, "study": "fig5", "status": "computed",
             "key": "k"},
        ]
        core = comparable_events(events)
        # The task a job rode in is placement, like its worker: serial and
        # pooled runs coalesce the same jobs into different tasks.
        assert core == [
            {"ev": "job_submit", "job": "1.0", "attempt": 0},
            {"ev": "job_complete", "job": "1.0"},
            {"ev": "point", "study": "fig5", "status": "computed", "key": "k"},
        ]

    def test_custom_drop_set(self):
        events = [{"ev": "emit", "t": 1.0, "study": "s", "tables": 2}]
        assert comparable_events(events, drop=ENVIRONMENT_EVENTS | {"emit"}) == []

    def test_round_trip_stays_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TraceWriter(path)
        writer.event("cache_store", key="k", kind="value")
        writer.close()
        core = comparable_events(load_trace(path))
        assert json.loads(json.dumps(core)) == core
