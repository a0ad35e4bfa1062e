"""Trace analysis: the engine behind ``repro-experiments trace``.

:func:`summarize` folds a run's event stream (see
:mod:`repro.obs.trace`) into one JSON-serialisable document answering
the questions a 40-minute sweep raises afterwards:

* **phases** — wall time per span name (declare / validate /
  execute), so "where did the time go" has a number per layer, plus
  the points the spans report (points a declare staged, entries a
  resume validated) where they report any;
* **scheduler** — jobs, the tasks they were coalesced into and jobs
  per task; integrated tasks-in-flight time over the scheduling
  window: mean in-flight depth and occupancy against the configured
  window (tasks, so never above 1); retry and inline-fallback counts;
* **workers** — per-worker job counts and busy seconds (utilisation
  against the execute window) from the per-job timings;
* **studies / fates** — per-study computed/served tallies
  (per declaration, matching the metrics registry) and unique-key
  fates (last event wins, matching the run manifest exactly);
* **cache** — result-cache hits, misses and stores, and milliseconds
  per stored entry;
* **analytic** — models the analytic pass evaluated and the memo
  served, its hit rate and milliseconds per evaluated model;
* **critical path** — per study, first declare to the latest of its
  last delivered point, its declare's end and its table emission: the
  studies that bounded the run's wall clock.

``render_summary_text`` formats that document for terminals;
``render_timeline`` prints the raw event stream with relative
timestamps for spelunking.
"""

from __future__ import annotations

from collections import defaultdict

from .trace import VOLATILE_FIELDS

__all__ = ["summarize", "render_summary_text", "render_timeline", "SUMMARY_SCHEMA"]

#: Schema tag of :func:`summarize` payloads.
SUMMARY_SCHEMA = "repro-trace-summary/1"


def _scheduled_work(events):
    """Per-job completions and per-task in-flight intervals.

    Returns ``(jobs, tasks)``: ``jobs`` holds ``(dur, worker)`` per
    completed job (``job_complete`` or ``job_inline``); ``tasks`` holds
    ``[submit_t, end_t]`` per submitted task, where a task ends at the
    first completion or retry of any of its members — the moment its
    result reached the scheduler.  A journal written before
    ``job_submit`` carried a ``task`` counts each submission as its own
    task.
    """
    submitted: dict[str, list] = defaultdict(list)  # job -> [task key, ...]
    tasks: dict = {}
    jobs = []
    for n, event in enumerate(events):
        ev = event["ev"]
        if ev == "job_submit":
            key = event.get("task", ("job", n))
            submitted[event["job"]].append(key)
            tasks.setdefault(key, [event["t"], None])
        elif ev in ("job_complete", "job_retry"):
            if submitted[event["job"]]:
                window = tasks[submitted[event["job"]].pop(0)]
                if window[1] is None or event["t"] < window[1]:
                    window[1] = event["t"]
        if ev in ("job_complete", "job_inline"):
            worker = event.get("worker", "inline" if ev == "job_inline" else None)
            jobs.append((event.get("dur"), worker))
    return jobs, [window for window in tasks.values() if window[1] is not None]


def _mean_inflight(intervals) -> tuple[float, float]:
    """(span_seconds, integrated in-flight seconds) over the schedule."""
    if not intervals:
        return 0.0, 0.0
    start = min(i[0] for i in intervals)
    end = max(i[1] for i in intervals)
    busy = sum(i[1] - i[0] for i in intervals)
    return max(end - start, 0.0), busy


def summarize(events: list[dict]) -> dict:
    """Fold one trace into the summary document (see module docstring)."""
    wall = max((e["t"] for e in events), default=0.0)

    # Per-phase wall time from span pairs (matched on sid).
    begins: dict[int, dict] = {}
    phases: dict[str, dict] = {}
    for event in events:
        if event["ev"] == "span_begin":
            begins[event["sid"]] = event
        elif event["ev"] == "span_end":
            begins.pop(event["sid"], None)
            entry = phases.setdefault(event["name"], {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] = round(entry["seconds"] + event["dur"], 6)
            if "points" in event:
                entry["points"] = entry.get("points", 0) + event["points"]

    # Per-study declaration tallies and unique-key fates (last wins).
    studies: dict[str, dict] = {}
    fate_by_key: dict[str, str] = {}
    study_window: dict[str, list] = {}  # study -> [first_t, last_t]

    def extend(study: str, t: float) -> None:
        window = study_window.setdefault(study, [t, t])
        window[1] = max(window[1], t)

    for event in events:
        ev = event["ev"]
        if ev == "point":
            study = event["study"] if event["study"] is not None else "(ungrouped)"
            entry = studies.setdefault(
                study, {"computed": 0, "served": 0, "points": 0}
            )
            entry[event["status"]] += 1
            entry["points"] += 1
            if event["key"] is not None:
                fate_by_key[event["key"]] = event["status"]
            extend(study, event["t"])
        elif ev == "span_begin" and event.get("name") == "declare":
            if event.get("study") is not None:
                extend(event["study"], event["t"])
        elif (
            ev == "emit" or (ev == "span_end" and event.get("name") == "declare")
        ) and event.get("study") in study_window:
            # A study ends where its last declare, point or table does:
            # a zero-point study (ext-segments) spans its declare.
            extend(event["study"], event["t"])
    fates = {"computed": 0, "served": 0}
    for fate in fate_by_key.values():
        fates[fate] = fates.get(fate, 0) + 1

    # Scheduler occupancy from the per-task submit/complete intervals.
    jobs, task_windows = _scheduled_work(events)
    span, busy = _mean_inflight(task_windows)
    max_inflight = max(
        (e["max_inflight"] for e in events if e["ev"] == "schedule"), default=None
    )
    retries = sum(1 for e in events if e["ev"] == "job_retry")
    inline = sum(1 for e in events if e["ev"] == "job_inline")
    submits = sum(1 for e in events if e["ev"] == "job_submit")
    mean_inflight = busy / span if span > 0 else 0.0
    scheduler = {
        "jobs": len(jobs),
        "tasks": len(task_windows),
        "jobs_per_task": (
            round(submits / len(task_windows), 3) if task_windows else None
        ),
        "retries": retries,
        "inline_fallbacks": inline,
        "max_inflight": max_inflight,
        "span_seconds": round(span, 6),
        "busy_seconds": round(busy, 6),
        "mean_inflight": round(mean_inflight, 3),
        "occupancy": (
            round(mean_inflight / max_inflight, 3) if max_inflight else None
        ),
    }

    # Worker utilisation from the per-job timings.
    workers: dict[str, dict] = {}
    for dur, worker in jobs:
        if worker is None:
            continue
        entry = workers.setdefault(str(worker), {"jobs": 0, "busy_seconds": 0.0})
        entry["jobs"] += 1
        if dur is not None:
            entry["busy_seconds"] = round(entry["busy_seconds"] + dur, 6)
    for entry in workers.values():
        entry["utilization"] = (
            round(entry["busy_seconds"] / span, 3) if span > 0 else None
        )

    # Cache / analytic-memo traffic.
    cache = {
        "hit": sum(1 for e in events if e["ev"] == "cache_hit"),
        "miss": sum(1 for e in events if e["ev"] == "cache_miss"),
        "store": sum(1 for e in events if e["ev"] == "cache_store"),
    }
    lookups = cache["hit"] + cache["miss"]
    cache["hit_rate"] = round(cache["hit"] / lookups, 4) if lookups else None
    # Journals written before cache_store carried a dur report no rate.
    timed = [e["dur"] for e in events if e["ev"] == "cache_store" and "dur" in e]
    cache["ms_per_store"] = round(1e3 * sum(timed) / len(timed), 3) if timed else None
    analytic = {"evaluated": 0, "served": 0, "seconds": None}
    for event in events:
        if event["ev"] == "analytic_batch":
            analytic["evaluated"] += event["evaluated"]
            analytic["served"] += event["served"]
            if "dur" in event:
                analytic["seconds"] = round((analytic["seconds"] or 0.0) + event["dur"], 6)
    total = analytic["evaluated"] + analytic["served"]
    analytic["hit_rate"] = round(analytic["served"] / total, 4) if total else None
    analytic["ms_per_evaluated"] = (
        round(1e3 * analytic["seconds"] / analytic["evaluated"], 3)
        if analytic["seconds"] is not None and analytic["evaluated"]
        else None
    )

    # Adaptive waves.
    adaptive: dict[str, dict] = {}
    for event in events:
        if event["ev"] == "wave_stage":
            entry = adaptive.setdefault(
                event["family"], {"waves": 0, "rows_converged": 0}
            )
            entry["waves"] += 1
        elif event["ev"] == "wave_converge":
            entry = adaptive.setdefault(
                event["family"], {"waves": 0, "rows_converged": 0}
            )
            entry["rows_converged"] = event["converged"]

    # Critical path: studies ranked by declare-to-last-event extent.
    critical = sorted(
        (
            {
                "study": study,
                "start": round(window[0], 6),
                "end": round(window[1], 6),
                "seconds": round(window[1] - window[0], 6),
            }
            for study, window in study_window.items()
        ),
        key=lambda row: -row["seconds"],
    )

    return {
        "schema": SUMMARY_SCHEMA,
        "events": len(events),
        "wall_seconds": round(wall, 6),
        "phases": phases,
        "studies": studies,
        "fates": fates,
        "scheduler": scheduler,
        "workers": workers,
        "cache": cache,
        "analytic": analytic,
        "adaptive": adaptive,
        "critical_path": critical[:10],
    }


def _table(lines: list[str], header: tuple, rows: list[tuple]) -> None:
    """Append a small aligned table to ``lines`` (no external deps)."""
    cells = [tuple(str(c) for c in row) for row in [header, *rows]]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    for n, row in enumerate(cells):
        lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if n == 0:
            lines.append("  " + "  ".join("-" * w for w in widths))


def render_summary_text(summary: dict) -> list[str]:
    """The summary document as terminal lines (``--format text``)."""
    lines = [
        f"[trace] {summary['events']} events over "
        f"{summary['wall_seconds']:.3f}s wall"
    ]
    if summary["phases"]:
        lines.append("[phases]")
        _table(
            lines,
            ("phase", "spans", "seconds", "points", "ms/point"),
            [
                (
                    name,
                    entry["count"],
                    f"{entry['seconds']:.3f}",
                    entry.get("points", "-"),
                    f"{1000 * entry['seconds'] / entry['points']:.3f}"
                    if entry.get("points")
                    else "-",
                )
                for name, entry in summary["phases"].items()
            ],
        )
    sched = summary["scheduler"]
    occupancy = (
        f"{sched['occupancy']:.0%} of window {sched['max_inflight']}"
        if sched["occupancy"] is not None
        else "n/a"
    )
    per_task = (
        f" ({sched['jobs_per_task']:.1f} jobs per task)"
        if sched["jobs_per_task"] is not None
        else ""
    )
    lines.append(
        f"[scheduler] {sched['jobs']} jobs in {sched['tasks']} tasks{per_task} "
        f"over {sched['span_seconds']:.3f}s, "
        f"mean in-flight {sched['mean_inflight']:.2f} tasks (occupancy {occupancy}), "
        f"{sched['retries']} retries, {sched['inline_fallbacks']} inline fallbacks"
    )
    if summary["workers"]:
        lines.append("[workers]")
        _table(
            lines,
            ("worker", "jobs", "busy (s)", "utilization"),
            [
                (
                    worker,
                    entry["jobs"],
                    f"{entry['busy_seconds']:.3f}",
                    f"{entry['utilization']:.0%}"
                    if entry["utilization"] is not None
                    else "n/a",
                )
                for worker, entry in sorted(summary["workers"].items())
            ],
        )
    if summary["studies"]:
        lines.append("[studies]")
        _table(
            lines,
            ("study", "points", "computed", "served"),
            [
                (study, entry["points"], entry["computed"], entry["served"])
                for study, entry in summary["studies"].items()
            ],
        )
    fates = summary["fates"]
    lines.append(
        f"[fates] {sum(fates.values())} unique keys: "
        f"{fates['computed']} computed, {fates['served']} served"
    )
    cache = summary["cache"]
    rate = f"{cache['hit_rate']:.2%}" if cache["hit_rate"] is not None else "n/a"
    ms = cache["ms_per_store"]
    per_store = f", {ms:.3f} ms per stored entry" if ms is not None else ""
    lines.append(
        f"[cache] {cache['hit']} hits, {cache['miss']} misses, "
        f"{cache['store']} stores (hit rate {rate}){per_store}"
    )
    analytic = summary["analytic"]
    rate = (
        f"{analytic['hit_rate']:.2%}" if analytic["hit_rate"] is not None else "n/a"
    )
    per_model = (
        f", {analytic['ms_per_evaluated']:.3f} ms per evaluated model"
        if analytic["ms_per_evaluated"] is not None else ""
    )
    lines.append(
        f"[analytic] {analytic['evaluated']} evaluated, "
        f"{analytic['served']} memo-served (hit rate {rate}){per_model}"
    )
    for family, entry in summary["adaptive"].items():
        lines.append(
            f"[adaptive] {family}: {entry['waves']} waves, "
            f"{entry['rows_converged']} rows converged"
        )
    if summary["critical_path"]:
        lines.append("[critical-path]")
        _table(
            lines,
            ("study", "start (s)", "end (s)", "extent (s)"),
            [
                (
                    row["study"],
                    f"{row['start']:.3f}",
                    f"{row['end']:.3f}",
                    f"{row['seconds']:.3f}",
                )
                for row in summary["critical_path"]
            ],
        )
    return lines


def render_timeline(events: list[dict], limit: int | None = None) -> list[str]:
    """Raw events as ``t  ev  k=v ...`` lines (``trace timeline``)."""
    shown = events if limit is None else events[:limit]
    lines = []
    for event in shown:
        detail = " ".join(
            f"{k}={event[k]}"
            for k in sorted(event)
            if k not in VOLATILE_FIELDS and k != "ev"
        )
        lines.append(f"{event['t']:>12.6f}  {event['ev']:<15} {detail}".rstrip())
    if limit is not None and len(events) > limit:
        lines.append(f"... {len(events) - limit} more events")
    return lines
