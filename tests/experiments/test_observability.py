"""End-to-end run telemetry: tracing, metrics, and the `trace` CLI.

The acceptance contract of the observability layer: table bytes are
identical with ``--trace`` on or off; a traced run's journal schema-
validates and its per-study tallies match the manifest's metrics
snapshot and fates exactly; the comparable event multiset is invariant
across serial and pooled executors; and the ``trace``
subcommand summarizes, timelines and exports the journal.  Everything
drives the real CLI (``main``), like the resume suite.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.experiments.runner import main
from repro.obs.stream import LineStream
from repro.obs.trace import ENVIRONMENT_EVENTS, comparable_events, load_trace

#: Small but parallel-friendly budget: several chunk jobs per study.
FAST_ARGS = ["--runs", "3", "--patterns", "4"]


def _strip_volatile(text: str) -> str:
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith(("[done in", "[cache]"))
    )


def _multiset(events, drop=ENVIRONMENT_EVENTS):
    return sorted(
        json.dumps(e, sort_keys=True) for e in comparable_events(events, drop=drop)
    )


def _traced_run(tmp_path, capsys, extra=(), run_id="r1"):
    """One journaled, traced fig5 run; returns (stdout, events, manifest)."""
    args = [
        "fig5", *FAST_ARGS,
        "--cache-dir", str(tmp_path / "cache"),
        "--runs-dir", str(tmp_path / "runs"),
        "--run-id", run_id,
        "--trace",
        *extra,
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    events = load_trace(tmp_path / "runs" / run_id / "trace.jsonl")
    manifest = json.loads(
        (tmp_path / "runs" / run_id / "manifest.json").read_text()
    )
    return out, events, manifest


class TestByteIdentity:
    def test_traced_stdout_identical_to_untraced(self, tmp_path, capsys):
        assert main(["fig5", *FAST_ARGS]) == 0
        golden = _strip_volatile(capsys.readouterr().out)
        traced, _, _ = _traced_run(tmp_path, capsys)
        assert _strip_volatile(traced) == golden

    def test_trace_file_flag_implies_tracing(self, tmp_path, capsys):
        path = tmp_path / "custom.jsonl"
        assert main(["fig5", *FAST_ARGS, "--trace-file", str(path)]) == 0
        capsys.readouterr()
        events = load_trace(path)
        assert events[0]["ev"] == "trace_start"
        assert events[-1]["ev"] == "trace_end"


class TestJournalContract:
    def test_schema_valid_and_counts_match_manifest(self, tmp_path, capsys):
        _, events, manifest = _traced_run(tmp_path, capsys)
        # load_trace already schema-validated every event.  The point
        # events must reproduce the manifest's journaled fates exactly.
        fate_by_key = {}
        for event in events:
            if event["ev"] == "point" and event["key"] is not None:
                fate_by_key[event["key"]] = event["status"]
        assert fate_by_key == manifest["fates"]
        # ... and the metrics snapshot's per-study counters must match
        # the per-event tallies.
        tallies: Counter = Counter()
        for event in events:
            if event["ev"] == "point":
                tallies[event["status"]] += 1
        for row in manifest["metrics"]["metrics"]:
            if row["name"] == "points":
                assert row["value"] == tallies[row["labels"]["status"]]

    def test_snapshot_rides_trace_and_manifest_alike(self, tmp_path, capsys):
        _, events, manifest = _traced_run(tmp_path, capsys)
        snapshots = [e for e in events if e["ev"] == "snapshot"]
        assert len(snapshots) == 1
        trace_points = [
            row for row in snapshots[0]["metrics"]["metrics"]
            if row["name"] == "points"
        ]
        manifest_points = [
            row for row in manifest["metrics"]["metrics"]
            if row["name"] == "points"
        ]
        assert trace_points == manifest_points

    def test_execution_flags_keep_resume_valid(self, tmp_path, capsys):
        # --trace is execution-only: a resume of an untraced run with
        # tracing on must validate (config hash ignores it) and reuse
        # every point.
        args = [
            "fig5", *FAST_ARGS,
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(tmp_path / "runs"),
            "--run-id", "r1",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume", "--trace"]) == 0
        err = capsys.readouterr().err
        manifest = json.loads(
            (tmp_path / "runs" / "r1" / "manifest.json").read_text()
        )
        assert manifest["recomputed"] == 0
        assert manifest["reused"] == len(manifest["fates"])
        assert "[resume] round delivered:" in err


class TestDeterminism:
    def _trace_of(self, tmp_path, capsys, tag, extra):
        path = tmp_path / f"{tag}.jsonl"
        assert main([
            "fig5", *FAST_ARGS, "--trace-file", str(path), *extra,
        ]) == 0
        capsys.readouterr()
        return load_trace(path)

    def test_serial_vs_pooled_event_multiset(self, tmp_path, capsys):
        serial = self._trace_of(
            tmp_path, capsys, "serial",
            ["--cache-dir", str(tmp_path / "c1")],
        )
        pooled = self._trace_of(
            tmp_path, capsys, "pooled",
            ["--cache-dir", str(tmp_path / "c2"), "--jobs", "2"],
        )
        assert _multiset(serial) == _multiset(pooled)

    def test_uncached_serial_vs_pooled_event_multiset(self, tmp_path, capsys):
        serial = self._trace_of(tmp_path, capsys, "serial", [])
        pooled = self._trace_of(tmp_path, capsys, "pooled", ["--jobs", "2"])
        assert _multiset(serial) == _multiset(pooled)


class TestTraceCli:
    @pytest.fixture
    def run(self, tmp_path, capsys):
        _traced_run(tmp_path, capsys, extra=["--jobs", "2"])
        return tmp_path

    def test_summary_text(self, run, capsys):
        assert main(["trace", "summary", "r1",
                     "--runs-dir", str(run / "runs")]) == 0
        out = capsys.readouterr().out
        for section in ("[trace]", "[phases]", "[scheduler]", "[studies]",
                        "[fates]", "[cache]"):
            assert section in out
        assert "occupancy" in out

    def test_summary_json_matches_manifest_fates(self, run, capsys):
        assert main(["trace", "summary", "r1",
                     "--runs-dir", str(run / "runs"), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        manifest = json.loads((run / "runs" / "r1" / "manifest.json").read_text())
        assert summary["fates"] == dict(
            Counter(manifest["fates"].values()),
            **{s: 0 for s in ("computed", "served")
               if s not in set(manifest["fates"].values())},
        )

    def test_target_resolution_file_dir_and_id(self, run, capsys):
        trace_file = run / "runs" / "r1" / "trace.jsonl"
        for target, extra in (
            (str(trace_file), []),
            (str(trace_file.parent), []),
            ("r1", ["--runs-dir", str(run / "runs")]),
        ):
            assert main(["trace", "summary", target, *extra]) == 0
            capsys.readouterr()

    def test_unknown_target_fails_with_hint(self, tmp_path):
        with pytest.raises(SystemExit, match="no trace found"):
            main(["trace", "summary", "nope",
                  "--runs-dir", str(tmp_path / "runs")])

    def test_timeline_limit(self, run, capsys):
        assert main(["trace", "timeline", "r1",
                     "--runs-dir", str(run / "runs"), "--limit", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[-1].startswith("... ")
        assert "trace_start" in lines[0]

    def test_export_round_trips(self, run, capsys):
        trace_file = run / "runs" / "r1" / "trace.jsonl"
        original = load_trace(trace_file)
        assert main(["trace", "export", str(trace_file)]) == 0
        jsonl = capsys.readouterr().out
        assert [json.loads(l) for l in jsonl.splitlines()] == original
        assert main(["trace", "export", str(trace_file),
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == original


class TestCacheStatsJson:
    def test_json_format_uses_metrics_schema(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["fig5", *FAST_ARGS, "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-metrics/1"
        assert payload["directory"] == str(cache_dir)
        by_name = {row["name"]: row["value"] for row in payload["metrics"]
                   if not row["labels"]}
        assert by_name["cache_entries"] > 0
        assert by_name["cache_bytes"] > 0

    def test_text_format_unchanged_by_default(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["fig5", *FAST_ARGS, "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[cache] ")
        assert "[analytic]" in out


class TestProgressStream:
    def test_line_is_single_write(self):
        writes = []

        class Probe:
            def write(self, text):
                writes.append(text)

            def flush(self):
                pass

        LineStream(Probe()).line("[progress] fig5 1/54")
        assert writes == ["[progress] fig5 1/54\n"]

    def test_progress_reads_registry(self, tmp_path, capsys):
        assert main(["fig5", *FAST_ARGS, "--progress"]) == 0
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("[progress]")]
        assert lines, err
        # The final line's tallies cover every delivered point.
        assert lines[-1].startswith("[progress] fig5 54/54 computed=")
