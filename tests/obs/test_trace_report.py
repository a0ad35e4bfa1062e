"""Trace analysis on synthetic event streams: summarize and render."""

from __future__ import annotations

import json

import pytest

from repro.obs.report import SUMMARY_SCHEMA, render_summary_text, render_timeline, summarize


def _events():
    """A hand-built two-study trace: spans, jobs, cache traffic, points."""
    return [
        {"ev": "trace_start", "t": 0.0, "format": 1, "pid": 1, "argv": ["fig5"]},
        {"ev": "span_begin", "t": 0.0, "name": "declare", "sid": 1,
         "study": "fig5"},
        {"ev": "span_end", "t": 0.1, "name": "declare", "sid": 1,
         "study": "fig5", "dur": 0.1},
        {"ev": "schedule", "t": 0.1, "jobs": 2, "max_inflight": 2, "workers": 2},
        {"ev": "span_begin", "t": 0.1, "name": "execute", "sid": 2, "round": 1},
        {"ev": "cache_miss", "t": 0.11, "key": "k1"},
        {"ev": "cache_hit", "t": 0.12, "key": "k2"},
        {"ev": "job_submit", "t": 0.15, "job": "1.0", "attempt": 1},
        {"ev": "job_submit", "t": 0.15, "job": "1.1", "attempt": 1},
        {"ev": "job_complete", "t": 0.35, "job": "1.0", "dur": 0.2,
         "worker": 11},
        {"ev": "job_complete", "t": 0.55, "job": "1.1", "dur": 0.4,
         "worker": 12},
        {"ev": "cache_store", "t": 0.56, "key": "k1", "kind": "value",
         "dur": 0.0002},
        {"ev": "point", "t": 0.6, "study": "fig5", "status": "computed",
         "key": "k1"},
        {"ev": "point", "t": 0.61, "study": "fig5", "status": "served",
         "key": "k2"},
        {"ev": "point", "t": 0.62, "study": None, "status": "computed",
         "key": None},
        {"ev": "analytic_batch", "t": 0.63, "study": "fig5", "evaluated": 3,
         "served": 1, "dur": 0.0075},
        {"ev": "emit", "t": 0.7, "study": "fig5", "tables": 1},
        {"ev": "trace_end", "t": 0.8, "status": "complete"},
    ]


class TestSummarize:
    def test_schema_and_wall(self):
        summary = summarize(_events())
        assert summary["schema"] == SUMMARY_SCHEMA
        assert summary["events"] == len(_events())
        assert summary["wall_seconds"] == pytest.approx(0.8)

    def test_phases_sum_span_durations(self):
        phases = summarize(_events())["phases"]
        assert phases["declare"] == {"count": 1, "seconds": 0.1}
        assert "execute" not in phases  # unterminated span: no end event

    def test_studies_tally_per_declaration(self):
        studies = summarize(_events())["studies"]
        assert studies["fig5"] == {"computed": 1, "served": 1, "points": 2}
        assert studies["(ungrouped)"]["computed"] == 1

    def test_fates_count_unique_keys_last_wins(self):
        events = _events() + [
            {"ev": "point", "t": 0.65, "study": "fig5", "status": "served",
             "key": "k1"},  # k1 delivered again: last event wins
        ]
        fates = summarize(events)["fates"]
        assert fates == {"computed": 0, "served": 2}

    def test_scheduler_occupancy(self):
        sched = summarize(_events())["scheduler"]
        assert sched["jobs"] == 2
        assert sched["max_inflight"] == 2
        # Two jobs submitted at 0.15, done at 0.35 / 0.55: busy 0.6 over
        # a 0.4 span -> mean in-flight 1.5, occupancy 0.75 of window 2.
        assert sched["span_seconds"] == pytest.approx(0.4)
        assert sched["busy_seconds"] == pytest.approx(0.6)
        assert sched["mean_inflight"] == pytest.approx(1.5)
        assert sched["occupancy"] == pytest.approx(0.75)

    def test_worker_utilization(self):
        workers = summarize(_events())["workers"]
        assert workers["11"]["jobs"] == 1
        assert workers["11"]["busy_seconds"] == pytest.approx(0.2)
        assert workers["12"]["utilization"] == pytest.approx(1.0)

    def test_cache_and_analytic_rates(self):
        summary = summarize(_events())
        assert summary["cache"] == {
            "hit": 1, "miss": 1, "store": 1, "hit_rate": 0.5, "ms_per_store": 0.2,
        }
        assert summary["analytic"]["evaluated"] == 3
        assert summary["analytic"]["hit_rate"] == pytest.approx(0.25)

    def test_analytic_ms_per_evaluated_model(self):
        analytic = summarize(_events())["analytic"]
        assert analytic["seconds"] == pytest.approx(0.0075)
        assert analytic["ms_per_evaluated"] == pytest.approx(2.5)

    def test_analytic_batches_without_dur_report_no_rate(self):
        # Journals written before analytic_batch carried a dur.
        events = [dict(e) for e in _events()]
        for event in events:
            event.pop("dur") if event["ev"] == "analytic_batch" else None
        analytic = summarize(events)["analytic"]
        assert analytic["seconds"] is None and analytic["ms_per_evaluated"] is None
        lines = render_summary_text(summarize(events))
        assert "[analytic] 3 evaluated, 1 memo-served (hit rate 25.00%)" in lines

    def test_cache_line_reports_ms_per_stored_entry(self):
        events = _events() + [
            {"ev": "cache_store", "t": 0.57, "key": "k3", "kind": "estimate",
             "dur": 0.0004},
        ]
        assert summarize(events)["cache"]["ms_per_store"] == pytest.approx(0.3)
        lines = render_summary_text(summarize(events))
        assert ("[cache] 1 hits, 1 misses, 2 stores (hit rate 50.00%), "
                "0.300 ms per stored entry") in lines

    def test_cache_stores_without_dur_report_no_rate(self):
        # Journals written before cache_store carried a dur.
        events = [dict(e) for e in _events()]
        for event in events:
            event.pop("dur") if event["ev"] == "cache_store" else None
        assert summarize(events)["cache"]["ms_per_store"] is None
        lines = render_summary_text(summarize(events))
        assert "[cache] 1 hits, 1 misses, 1 stores (hit rate 50.00%)" in lines

    def test_critical_path_ranks_by_extent(self):
        critical = summarize(_events())["critical_path"]
        assert critical[0]["study"] == "fig5"
        # First declare at t=0; the emit at t=0.7 follows the last
        # point (t=0.61), so it ends the window.
        assert critical[0]["seconds"] == pytest.approx(0.7)

    def test_critical_path_counts_declare_and_emit(self):
        """A zero-point study spans its declare and emission, not 0 s."""
        events = [
            {"ev": "trace_start", "t": 0.0, "format": 1, "pid": 1,
             "argv": ["all"]},
            {"ev": "span_begin", "t": 0.1, "name": "declare", "sid": 1,
             "study": "ext-segments"},
            {"ev": "span_end", "t": 0.4, "name": "declare", "sid": 1,
             "study": "ext-segments", "dur": 0.3},
            {"ev": "span_begin", "t": 0.4, "name": "declare", "sid": 2,
             "study": "ext-weakscaling"},
            {"ev": "span_end", "t": 0.5, "name": "declare", "sid": 2,
             "study": "ext-weakscaling", "dur": 0.1},
            {"ev": "emit", "t": 0.9, "study": "ext-weakscaling", "tables": 2},
            {"ev": "emit", "t": 0.95, "study": "(elsewhere)", "tables": 1},
            {"ev": "trace_end", "t": 1.0, "status": "complete"},
        ]
        critical = {
            row["study"]: row for row in summarize(events)["critical_path"]
        }
        # Declare end bounds ext-segments (no emit in this trace) ...
        assert critical["ext-segments"]["start"] == pytest.approx(0.1)
        assert critical["ext-segments"]["seconds"] == pytest.approx(0.3)
        # ... the emit bounds ext-weakscaling, and an emit alone opens
        # no window.
        assert critical["ext-weakscaling"]["seconds"] == pytest.approx(0.5)
        assert "(elsewhere)" not in critical

    def test_adaptive_waves(self):
        events = _events() + [
            {"ev": "wave_stage", "t": 0.2, "family": "f", "wave": 0,
             "start": 0, "stop": 3},
            {"ev": "wave_stage", "t": 0.4, "family": "f", "wave": 1,
             "start": 3, "stop": 5},
            {"ev": "wave_converge", "t": 0.5, "family": "f", "wave": 1,
             "converged": 4, "active": 2, "rows_converged": 4},
        ]
        adaptive = summarize(events)["adaptive"]
        assert adaptive["f"] == {"waves": 2, "rows_converged": 4}

    def test_empty_trace(self):
        summary = summarize([])
        assert summary["events"] == 0
        assert summary["scheduler"]["occupancy"] is None
        assert summary["cache"]["hit_rate"] is None

    def test_summary_is_json_serialisable(self):
        summary = summarize(_events())
        assert json.loads(json.dumps(summary)) == summary


class TestRender:
    def test_text_sections_present(self):
        lines = render_summary_text(summarize(_events()))
        text = "\n".join(lines)
        for section in ("[trace]", "[phases]", "[scheduler]", "[workers]",
                        "[studies]", "[fates]", "[cache]", "[analytic]",
                        "[critical-path]"):
            assert section in text
        assert "occupancy 75% of window 2" in text

    def test_analytic_line_reports_ms_per_evaluated_model(self):
        lines = render_summary_text(summarize(_events()))
        assert (
            "[analytic] 3 evaluated, 1 memo-served (hit rate 25.00%), "
            "2.500 ms per evaluated model"
        ) in lines

    def test_fates_line_and_studies_header(self):
        lines = render_summary_text(summarize(_events()))
        assert "[fates] 2 unique keys: 1 computed, 1 served" in lines
        header = lines[lines.index("[studies]") + 1].split()
        assert header == ["study", "points", "computed", "served"]

    def test_validate_phase_reports_ms_per_verified_entry(self):
        events = _events()
        events[1:1] = [
            {"ev": "span_begin", "t": 0.0, "name": "validate", "sid": 9},
            {"ev": "span_end", "t": 0.0, "name": "validate", "sid": 9,
             "dur": 0.0243, "points": 486},
        ]
        summary = summarize(events)
        assert summary["phases"]["validate"] == {
            "count": 1, "seconds": 0.0243, "points": 486
        }
        lines = render_summary_text(summary)
        at = lines.index("[phases]")
        assert lines[at + 1].split() == [
            "phase", "spans", "seconds", "points", "ms/point"
        ]
        rows = {line.split()[0]: line.split() for line in lines[at + 3 : at + 5]}
        assert rows["validate"] == ["validate", "1", "0.024", "486", "0.050"]
        assert rows["declare"] == ["declare", "1", "0.100", "-", "-"]

    def test_timeline_excludes_volatile_fields(self):
        lines = render_timeline(_events())
        assert len(lines) == len(_events())
        complete = next(line for line in lines if "job_complete" in line)
        assert "dur=" not in complete and "worker=" not in complete
        assert "job=1.0" in complete

    def test_timeline_limit_tail(self):
        lines = render_timeline(_events(), limit=3)
        assert len(lines) == 4
        assert lines[-1] == f"... {len(_events()) - 3} more events"
