"""Command-line entry point regenerating the paper's evaluation.

Usage examples::

    repro-experiments tables                 # Tables II and III (inputs)
    repro-experiments fig2 --platform Hera   # one Figure 2 panel column
    repro-experiments fig2 --all-platforms   # the full Figure 2
    repro-experiments fig5 --paper           # full-fidelity Monte Carlo
    repro-experiments all --no-sim           # every analytic series, fast
    repro-experiments fig6 --csv out/        # dump series as CSV too
    repro-experiments sweep --spec my.toml   # user-defined TOML study
    repro-experiments cache stats --cache-dir cache/

(Equivalently: ``python -m repro <command> ...``.)

Every figure subcommand is derived from the study registry
(:mod:`repro.experiments.registry`): its name, help text and platform
grid live on the :class:`~repro.experiments.spec.StudySpec`, so the
CLI cannot drift from the registered studies.  ``--jobs`` is the one
parallelism knob: it sizes the process pool every study shares.

Building the parser loads no numpy and no study: the registry's rows
and :mod:`repro.constants` carry everything it shows, and each command
imports its own machinery when it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import re
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from ..constants import (
    DEFAULT_RUNS_DIR,
    DEFAULT_SEED,
    METHODS,
    PLATFORM_NAMES,
    TRACE_NAME,
)
from ..exceptions import InvalidParameterError, OptimizationError, ReproError
from ..io.tables import render_table
from .registry import REGISTRY, STUDIES, get_spec

if TYPE_CHECKING:
    from ..io.stream import StreamingEmitter
    from ..sim.manifest import ResumeReport, RunRecorder
    from .common import FigureResult, SimSettings
    from .pipeline import SimulationPipeline
    from .spec import StudySpec

__all__ = ["main", "print_input_tables", "print_command_index", "check_experiments_md"]

#: Real subcommands that are not figure pipelines; references to them
#: in EXPERIMENTS.md are legitimate and exempt from the drift check.
_META_COMMANDS = {
    "all", "tables", "report", "index", "sweep", "cache", "scenario", "resume",
    "trace",
}

#: Meta commands EXPERIMENTS.md is required to document (the figure
#: commands are always required; ``index`` documents itself).
_DOCUMENTED_META = (
    "all", "tables", "sweep", "cache", "scenario", "resume", "trace",
)


def print_input_tables(stream=None) -> None:
    """Print Tables II (platforms) and III (scenarios) — the inputs."""
    from ..platforms.catalog import PLATFORMS
    from ..platforms.scenarios import SCENARIOS

    stream = stream or sys.stdout
    rows2 = [
        (
            p.name,
            p.lambda_ind,
            p.fail_stop_fraction,
            p.silent_fraction,
            p.reference_processors,
            p.checkpoint_cost,
            p.verification_cost,
        )
        for p in (PLATFORMS[n] for n in PLATFORM_NAMES)
    ]
    print(
        render_table(
            ("platform", "lambda_ind", "f", "s", "P_ref", "C_P (s)", "V_P (s)"),
            rows2,
            title="Table II: platform parameters (SCR measurements)",
        ),
        file=stream,
    )
    print(file=stream)
    rows3 = [(s.id, s.checkpoint_form, s.verification_form) for s in SCENARIOS.values()]
    print(
        render_table(
            ("scenario", "C_P,R_P", "V_P"),
            rows3,
            title="Table III: resilience scenarios",
        ),
        file=stream,
    )


def _settings_from_args(args: argparse.Namespace) -> SimSettings:
    from ..sim.montecarlo import FAST, PAPER, Fidelity
    from .common import SimSettings

    if args.runs is not None or args.patterns is not None:
        fidelity = Fidelity(
            n_runs=args.runs if args.runs is not None else FAST.n_runs,
            n_patterns=args.patterns if args.patterns is not None else FAST.n_patterns,
            name="custom",
        )
    else:
        fidelity = PAPER if args.paper else FAST
    return SimSettings(
        simulate=not args.no_sim,
        fidelity=fidelity,
        seed=args.seed,
        method=args.method,
    )


def _trace_path(args: argparse.Namespace) -> Path | None:
    """Where ``--trace``/``--trace-file`` journal events (``None``: off).

    ``--trace-file`` names the journal explicitly; bare ``--trace``
    puts it next to the run's manifest (``<runs-dir>/<run-id>/``) when
    the invocation is journaled, else directly under the runs directory.
    """
    trace_file = getattr(args, "trace_file", None)
    if trace_file is not None:
        return Path(trace_file)
    if not getattr(args, "trace", False):
        return None
    runs_dir = Path(getattr(args, "runs_dir", None) or DEFAULT_RUNS_DIR)
    run_id = getattr(args, "run_id", None)
    return (runs_dir / run_id if run_id is not None else runs_dir) / TRACE_NAME


def _make_output_dirs(dirs: Sequence[tuple[str, Path]]) -> None:
    """Create the ``(flag, directory)`` pairs an invocation writes into,
    before any work; refuse an unusable one in one line, leaving nothing."""
    made: list[Path] = []
    for flag, path in dirs:
        made += [p for p in (path, *path.parents) if not p.exists()]
        try:
            path.mkdir(parents=True, exist_ok=True)
            if not os.access(path, os.W_OK | os.X_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        except OSError as exc:
            for created in sorted(made, key=lambda p: len(p.parts), reverse=True):
                with contextlib.suppress(OSError):
                    created.rmdir()
            raise SystemExit(f"{flag} {path}: unusable directory ({exc.strerror})") from None


def _pipeline_from_args(
    args: argparse.Namespace, argv: Sequence[str] = ()
) -> SimulationPipeline:
    """One shared pipeline (executor + caches) for a whole CLI invocation.

    ``--jobs`` sizes the one process pool shared by every figure;
    without it the pipeline runs serially.  Every pipeline carries one
    :class:`~repro.obs.metrics.MetricsRegistry` and (with ``--trace``)
    one :class:`~repro.obs.trace.TraceWriter` — the observability
    spine the progress printer, dry-run report, resume summary and
    manifest snapshot all read.
    """
    from ..obs.metrics import MetricsRegistry
    from .pipeline import SimulationPipeline

    jobs = 1 if args.jobs is None else args.jobs
    fault = None
    fault_spec = getattr(args, "fault_plan", None)
    if fault_spec:
        from ..sim.faults import parse_fault_plan

        try:
            fault = parse_fault_plan(fault_spec)
        except ReproError as exc:
            raise SystemExit(str(exc)) from None
    cache_dir = args.cache_dir
    run_id = getattr(args, "run_id", None)
    if run_id is None and getattr(args, "resume", False):
        raise SystemExit("--resume requires --run-id (whose manifest to resume)")
    if run_id is not None and cache_dir is None:
        raise SystemExit(
            "--run-id needs a result cache (--cache-dir): the manifest "
            "journals point fates; the cache holds the values a resume reuses"
        )
    if run_id is not None and getattr(args, "resume", False):
        from ..sim.manifest import RunManifest, check_inputs, manifest_path

        path = manifest_path(getattr(args, "runs_dir", None) or DEFAULT_RUNS_DIR, run_id)
        if not path.is_file():
            raise SystemExit(f"no run manifest at {path}")
        try:
            check_inputs(RunManifest.load(path))
        except ReproError as exc:
            raise SystemExit(str(exc)) from None
    # Every flag is checked above: only from here on may the invocation
    # touch the disk, creating the directories it writes into first.
    dirs = [] if cache_dir is None else [("--cache-dir", Path(cache_dir))]
    if run_id is not None and not getattr(args, "dry_run", False):
        dirs.append(("--runs-dir", Path(args.runs_dir or DEFAULT_RUNS_DIR) / run_id))
    trace_path = _trace_path(args)
    if trace_path is not None:
        dirs.append(("--trace-file" if args.trace_file else "--runs-dir", trace_path.parent))
    out = getattr(args, "out", None)
    if out is not None and not args.dry_run:
        # ``report --out`` names a file: its directory must be usable.
        dirs.append(("--out", Path(out).parent))
    csv = getattr(args, "csv", None)
    if csv is not None and not args.dry_run:
        dirs.append(("--csv", Path(csv)))
    _make_output_dirs(dirs)
    # Without --trace the pipeline holds the null writer, and the hot
    # paths pay one flag check.
    writer = None
    if trace_path is not None:
        from ..obs.trace import TraceWriter

        writer = TraceWriter(trace_path, argv=list(argv), run_id=run_id,
                             command=getattr(args, "command", None))
        print(f"[trace] journaling events to {writer.path}", file=sys.stderr)
    pipeline = SimulationPipeline(
        jobs=jobs,
        cache_dir=cache_dir,
        fault=fault,
        trace=writer,
        metrics=MetricsRegistry(),
    )
    if fault is not None and pipeline.cache is not None:
        hurt = fault.corrupt_cache(pipeline.cache)
        if hurt is not None:
            print(f"[fault] corrupted cache entry {hurt[:16]}…", file=sys.stderr)
    return pipeline


def _platforms_for(spec: StudySpec, args: argparse.Namespace) -> tuple[str, ...]:
    """The platform grid one CLI invocation runs a spec over."""
    if spec.supports_all_platforms and getattr(args, "all_platforms", False):
        return tuple(PLATFORM_NAMES)
    platform = getattr(args, "platform", None)
    if platform is None:
        return spec.platforms  # sweep: the spec's own platform grid
    return (platform,)


def _stage_specs(
    specs: Sequence[StudySpec],
    args: argparse.Namespace,
    pipeline: SimulationPipeline,
) -> list:
    """Declare every (spec, platform) study onto the shared pipeline."""
    from .spec import stage_study

    settings = _settings_from_args(args)
    staged = []
    for spec in specs:
        for platform in _platforms_for(spec, args):
            staged.append(
                stage_study(spec, platform=platform, settings=settings, pipeline=pipeline)
            )
    return staged


def _progress_printer(staged: Sequence, pipeline: SimulationPipeline,
                      stream=None) -> Callable:
    """Per-study progress lines (stderr) as the scheduler resolves points.

    The tallies come straight from the pipeline's metrics registry
    (``points{study,status}`` — incremented before any ``on_event``
    callback fires), so this printer re-counts nothing.  Lines go
    through a :class:`~repro.obs.stream.LineStream`, whose single
    locked write keeps concurrent callback output from tearing
    mid-line.

    ``staged`` is read live on every event, not snapshotted: adaptive
    runs keep appending newly staged waves to it mid-round, and the
    denominator has to track them.  (For fixed runs the sequence never
    grows, so the recomputation changes nothing.)
    """
    from ..obs.stream import LineStream

    out = LineStream(stream if stream is not None else sys.stderr)
    metrics = pipeline.metrics

    def on_event(event) -> None:
        totals: dict[str, int] = defaultdict(int)
        for stage in staged:
            totals[stage.group] += stage.n_pending
        group = event.group if event.group is not None else "?"
        label = event.group if event.group is not None else "(ungrouped)"
        computed = metrics.value("points", study=label, status="computed")
        served = metrics.value("points", study=label, status="served")
        done = computed + served
        out.line(
            f"[progress] {group} {done}/{totals.get(group, done)} "
            f"computed={computed} served={served}"
        )

    return on_event


def _input_files(args: argparse.Namespace) -> tuple[str, ...]:
    """The input file a command reads its studies from, if any."""
    if args.command == "scenario":
        return (args.file,)
    if args.command == "sweep":
        return (args.spec,)
    return ()


def _validate_resumed(
    recorder: RunRecorder,
    pipeline: SimulationPipeline,
    argv: Sequence[str],
    report: ResumeReport | None = None,
) -> ResumeReport:
    """Check the journaled fates among the pending plan keys.

    Runs before each staging round of a resumed run, so every journaled
    entry is read and checked before the round that serves it; the
    report accumulates (see
    :func:`~repro.sim.manifest.validate_resume`) until
    :func:`_report_resumed` prints it.
    """
    from ..sim.manifest import validate_resume

    checked = 0 if report is None else len(report.reusable) + len(report.invalidated)
    with pipeline.trace.span("validate") as span:
        report = validate_resume(
            recorder.manifest, pipeline.pending_keys(), pipeline.cache, argv, report
        )
        span["points"] = len(report.reusable) + len(report.invalidated) - checked
    return report


def _report_resumed(report: ResumeReport, pipeline: SimulationPipeline) -> None:
    """Publish a resumed round's validation once the round has ended.

    Only then is a journaled fate the round never declared known to be
    stale.  The outcomes land in the registry's
    ``resume_points{outcome}`` counters (which :func:`_run_round`'s
    closing summary and the manifest's metrics snapshot read), the
    trace and stderr, keeping the table bytes on stdout identical to
    an unjournaled run.
    """
    for outcome in ("reusable", "invalidated", "missing", "stale"):
        n = len(getattr(report, outcome))
        if n:
            pipeline.metrics.counter("resume_points", outcome=outcome).inc(n)
    if pipeline.trace.enabled:
        pipeline.trace.event(
            "resume_validate",
            reused=len(report.reusable),
            invalidated=len(report.invalidated),
            missing=len(report.missing),
            stale=len(report.stale),
        )
    for line in report.lines():
        print(line, file=sys.stderr)


def _run_round(
    args: argparse.Namespace,
    argv: Sequence[str],
    pipeline: SimulationPipeline,
    staged: Sequence,
    emitter: StreamingEmitter | None = None,
    run=None,
    on_start: Callable[[], None] | None = None,
) -> None:
    """Journal, observe and resolve one invocation's staged studies.

    The round every simulating command runs, after staging:

    1. open the durable-run journal implied by ``--run-id``/``--resume``
       on a pipeline built by :func:`_pipeline_from_args` (which already
       refused journal flags without a result cache, and a resume whose
       input file changed);
    2. ``on_start()``, then resolve every pending point in one
       event-driven round.  Each resolved point feeds the journal, the
       ``--progress`` printer (reading ``staged`` live), ``run`` and
       ``emitter`` — whose studies the caller queued — in that order;
       an adaptive ``run``
       (:class:`~repro.experiments.scenarios.AdaptiveRun`) also stages
       new waves between staging rounds.  A resume checks the journaled
       fates each staging round declares before that round resolves;
       a resumed adaptive run re-derives its waves from the data, and
       every wave the interrupted run staged is served from the cache;
    3. drain ``emitter`` and finalize ``run``, and only then print a
       resumed round's validation and reuse summary and seal the
       journal.

    All journal reporting goes to stderr.
    """
    recorder = None
    report = None
    run_id = getattr(args, "run_id", None)
    if run_id is not None:
        from ..sim.manifest import RunRecorder

        runs_dir = getattr(args, "runs_dir", None) or DEFAULT_RUNS_DIR
        try:
            if not args.resume:
                recorder = RunRecorder.create(runs_dir, run_id, argv,
                                              metrics=pipeline.metrics,
                                              inputs=_input_files(args))
                print(f"[run] journaling to {recorder.path}", file=sys.stderr)
            else:
                recorder = RunRecorder.resume(runs_dir, run_id, argv,
                                              metrics=pipeline.metrics)
        except ReproError as exc:
            raise SystemExit(str(exc)) from None
        if args.resume:
            report = _validate_resumed(recorder, pipeline, argv)
            recorder.write()

    def on_round() -> bool:
        nonlocal report
        progressed = run.on_round()
        if report is not None and pipeline.pending_points:
            report = _validate_resumed(recorder, pipeline, argv, report)
        return progressed

    if on_start is not None:
        on_start()
    callbacks = [
        cb
        for cb in (
            recorder.on_event if recorder is not None else None,
            _progress_printer(staged, pipeline) if args.progress else None,
            run.on_event if run is not None else None,
            emitter.on_event if emitter is not None else None,
        )
        if cb is not None
    ]

    def on_event(event) -> None:
        for cb in callbacks:
            cb(event)

    with recorder or contextlib.nullcontext():  # compacts on any exit
        pipeline.resolve(
            on_event=on_event if callbacks else None,
            on_round=on_round if run is not None else None,
        )
        if emitter is not None:
            emitter.drain()
        if run is not None:
            run.finalize()
        if recorder is None:
            return
        if report is not None:
            _report_resumed(report, pipeline)
        recorder.finish()
        # The summary reads the counters the journal wrote, so the
        # printed numbers cannot drift from the manifest; fresh runs
        # stay silent.
        manifest = recorder.manifest
        if manifest.resumes:
            invalidated = pipeline.metrics.value(
                "resume_points", outcome="invalidated"
            )
            print(
                f"[resume] round delivered: {manifest.reused} reused, "
                f"{manifest.recomputed} recomputed, {invalidated} invalidated",
                file=sys.stderr,
            )


def _print_dry_run(pipeline: SimulationPipeline, stream=None) -> None:
    """Planned-work report of every staged study (``--dry-run``).

    :meth:`~repro.experiments.pipeline.SimulationPipeline.pending_report`
    populates the registry's ``plan{study,field}`` counters; this
    printer renders them — the report dict and the registry are the
    same numbers by construction.
    """
    stream = stream or sys.stdout
    pipeline.pending_report()
    report: dict[str, dict[str, int]] = {}
    for labels, metric in pipeline.metrics.labeled("plan"):
        report.setdefault(labels["study"], {})[labels["field"]] = metric.value
    totals: Counter = Counter()
    for name, entry in report.items():
        totals.update(entry)
        print(
            f"[dry-run] {name}: {entry['points']} points "
            f"({entry['unique']} unique, {entry['deduped']} deduped), "
            f"{entry['cache_hits']} cache hits, "
            f"{entry['to_compute']} to compute -> {entry['jobs']} chunk jobs; "
            f"analytic {entry['analytic_evaluated']} evaluated, "
            f"{entry['analytic_served']} memo-served",
            file=stream,
        )
    print(
        f"[dry-run] total: {totals['points']} points, "
        f"{totals['deduped']} deduped, {totals['cache_hits']} cache hits, "
        f"{totals['to_compute']} to compute -> {totals['jobs']} chunk jobs; "
        f"analytic {totals['analytic_evaluated']} evaluated, "
        f"{totals['analytic_served']} memo-served "
        f"(nothing executed)",
        file=stream,
    )


def _positive_int(text: str) -> int:
    """argparse type of a budget or pool width: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type of an RNG seed or a count limit: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type of a ``cache prune`` threshold: a finite number >= 0.

    A negative age or size would select every entry for deletion.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _run_id(text: str) -> str:
    """argparse type of a run id: one path component under ``--runs-dir``."""
    if text in ("", ".", "..") or Path(text).name != text:
        raise argparse.ArgumentTypeError(
            f"must be one non-empty path component other than '.' and '..', got {text!r}"
        )
    return text


def _add_sim_options(
    sub: argparse.ArgumentParser,
    seed_default: int | None = DEFAULT_SEED,
    seed_help: str = "master RNG seed",
) -> None:
    """The simulation/pipeline flags every sim command shares."""
    sub.add_argument("--no-sim", action="store_true", help="skip Monte-Carlo columns")
    sub.add_argument(
        "--paper",
        action="store_true",
        help="full-fidelity simulation (500 runs x 500 patterns)",
    )
    sub.add_argument(
        "--runs", type=_positive_int, default=None, help="override Monte-Carlo runs"
    )
    sub.add_argument(
        "--patterns", type=_positive_int, default=None,
        help="override patterns per run",
    )
    sub.add_argument(
        "--seed", type=_non_negative_int, default=seed_default, help=seed_help
    )
    sub.add_argument(
        "--method",
        default="auto",
        choices=list(METHODS),
        help="simulation backend: auto picks vectorized for paper-size "
        "budgets, batch below; des is the slow event-level protocol loop",
    )
    sub.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes of the fused simulation pipeline's shared "
        "pool (default: serial)",
    )
    sub.add_argument(
        "--progress",
        action="store_true",
        help="print per-study computed/served counts to stderr as "
        "points resolve (off by default; table output is unaffected)",
    )
    sub.add_argument(
        "--dry-run",
        action="store_true",
        help="print the planned job count, dedup savings and expected cache "
        "hits per study, then exit without simulating anything",
    )
    sub.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed on-disk cache of simulation results; "
        "re-runs skip every already-computed point",
    )
    sub.add_argument(
        "--run-id",
        type=_run_id,
        default=None,
        metavar="ID",
        help="journal this invocation as a durable run: every resolved "
        "point's fate is appended to the run's journal under --runs-dir "
        "and flushed, so an interrupted run can be resumed "
        "(`repro-experiments resume ID`); after a power loss whatever "
        "verifies is served and the rest recomputes; requires --cache-dir",
    )
    sub.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help=f"directory holding run manifests (default {DEFAULT_RUNS_DIR})",
    )
    sub.add_argument(
        "--resume",
        action="store_true",
        help="continue the --run-id run from its manifest: journaled fates "
        "whose cache entries verify are reused; stale/corrupt/missing "
        "ones recompute",
    )
    sub.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="dev/test harness: inject deterministic faults, e.g. "
        "'crash-after=20', 'fail-job=3:2', 'kill-worker=5', "
        "'corrupt-entry=0' (comma-separated)",
    )
    sub.add_argument(
        "--trace",
        action="store_true",
        help="journal every pipeline event (declares, plans, jobs, cache "
        "traffic, point fates) as JSON Lines for `repro-experiments "
        "trace`; table output is byte-identical with or without it",
    )
    sub.add_argument(
        "--trace-file",
        default=None,
        metavar="FILE",
        help="trace journal path (default: <runs-dir>/<run-id>/trace.jsonl "
        "for journaled runs, else <runs-dir>/trace.jsonl; implies --trace)",
    )


def _add_common_options(
    sub: argparse.ArgumentParser,
    platform_default: str | None = "Hera",
    csv: bool = True,
) -> None:
    sub.add_argument(
        "--platform",
        default=platform_default,
        choices=list(PLATFORM_NAMES),
        help="platform from Table II (default Hera)"
        if platform_default
        else "platform from Table II (default: the spec's own platform grid)",
    )
    _add_sim_options(sub)
    if csv:
        sub.add_argument("--csv", default=None, metavar="DIR", help="also dump CSV files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the evaluation of 'When Amdahl Meets Young/Daly' "
        "(Cluster 2016).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("tables", help="print Tables II and III (inputs)")

    for study in STUDIES:
        sub = subparsers.add_parser(study.name, help=study.description)
        _add_common_options(sub)
        if study.supports_all_platforms:
            sub.add_argument(
                "--all-platforms",
                action="store_true",
                help="regenerate all four platform columns of Figure 2",
            )

    sub_all = subparsers.add_parser("all", help="regenerate every figure")
    _add_common_options(sub_all)
    sub_all.add_argument("--all-platforms", action="store_true")

    sub_report = subparsers.add_parser(
        "report", help="regenerate everything into one markdown report"
    )
    _add_common_options(sub_report, csv=False)
    sub_report.add_argument("--all-platforms", action="store_true")
    sub_report.add_argument(
        "--out", default="report.md", metavar="FILE", help="output markdown path"
    )

    sub_sweep = subparsers.add_parser(
        "sweep",
        help="run one user-defined study from a TOML spec file",
    )
    sub_sweep.add_argument(
        "--spec",
        required=True,
        metavar="FILE",
        help="TOML study spec (see examples/custom_study.toml)",
    )
    _add_common_options(sub_sweep, platform_default=None)

    sub_resume = subparsers.add_parser(
        "resume",
        help="continue an interrupted --run-id run from its manifest, "
        "reusing every completed point whose cache entry verifies",
    )
    sub_resume.add_argument("run_id", type=_run_id, metavar="RUN_ID")
    sub_resume.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help=f"directory holding run manifests (default {DEFAULT_RUNS_DIR})",
    )
    sub_resume.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="override the run's worker-process count (execution-only; "
        "the result bytes are unaffected)",
    )
    sub_resume.add_argument(
        "--progress", action="store_true", help="per-study progress to stderr"
    )
    sub_resume.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="dev/test harness: inject faults into the resumed round",
    )
    sub_resume.add_argument(
        "--trace", action="store_true",
        help="journal the resumed round's events for `repro-experiments trace`",
    )
    sub_resume.add_argument(
        "--trace-file", default=None, metavar="FILE",
        help="trace journal path of the resumed round (implies --trace)",
    )

    sub_cache = subparsers.add_parser(
        "cache",
        help="inspect, verify or prune a result cache (stats / ls / verify / prune)",
    )
    cache_sub = sub_cache.add_subparsers(dest="cache_command", required=True)
    for cache_cmd, cache_help in (
        ("stats", "aggregate entry count and size"),
        ("ls", "list entries with size and age"),
        ("verify", "integrity-check every entry (catches truncated npz files)"),
        ("prune", "age/size-based garbage collection"),
    ):
        c = cache_sub.add_parser(cache_cmd, help=cache_help)
        c.add_argument("--cache-dir", required=True, metavar="DIR")
        if cache_cmd == "stats":
            c.add_argument(
                "--format",
                choices=("text", "json"),
                default="text",
                help="output format: human-readable lines (text, default) or "
                "one repro-metrics/1 JSON document (the manifest/trace "
                "snapshot schema)",
            )
        if cache_cmd == "verify":
            c.add_argument(
                "--delete",
                action="store_true",
                help="delete the corrupt entries so they read as clean misses",
            )
        if cache_cmd == "prune":
            c.add_argument(
                "--max-age-days",
                type=_non_negative_float,
                default=None,
                help="drop entries older than this many days",
            )
            c.add_argument(
                "--max-size-mb",
                type=_non_negative_float,
                default=None,
                help="evict oldest entries until the cache fits this size",
            )
            c.add_argument(
                "--dry-run",
                action="store_true",
                help="report what would be removed without deleting",
            )
            c.add_argument(
                "--yes",
                action="store_true",
                help="delete without the interactive confirmation (required "
                "when stdin is not a terminal; caches may be shared across "
                "scenario runs and hosts)",
            )

    sub_trace = subparsers.add_parser(
        "trace",
        help="analyze a --trace run journal: per-phase wall time, scheduler "
        "occupancy, worker utilization, critical path "
        "(summary | timeline | export)",
    )
    trace_sub = sub_trace.add_subparsers(dest="trace_command", required=True)
    for trace_cmd, trace_help in (
        ("summary", "fold the journal into per-phase/scheduler/study totals"),
        ("timeline", "print the raw event stream with relative timestamps"),
        ("export", "re-emit the validated events (jsonl or one JSON array)"),
    ):
        t = trace_sub.add_parser(trace_cmd, help=trace_help)
        t.add_argument(
            "target",
            metavar="TRACE",
            help="a trace.jsonl path, a directory containing one, or a "
            "--runs-dir run id",
        )
        t.add_argument(
            "--runs-dir",
            default=None,
            metavar="DIR",
            help=f"directory holding run manifests (default {DEFAULT_RUNS_DIR})",
        )
        if trace_cmd == "summary":
            t.add_argument(
                "--format",
                choices=("text", "json"),
                default="text",
                help="rendered report (text, default) or the "
                "repro-trace-summary/1 JSON document",
            )
        if trace_cmd == "timeline":
            t.add_argument(
                "--limit",
                type=_non_negative_int,
                default=None,
                metavar="N",
                help="show only the first N events (default: all)",
            )
        if trace_cmd == "export":
            t.add_argument(
                "--format",
                choices=("jsonl", "json"),
                default="jsonl",
                help="JSON Lines passthrough (jsonl, default) or one JSON "
                "array document",
            )

    sub_scen = subparsers.add_parser(
        "scenario",
        help="resampled/perturbed study families: derive variants of a "
        "registered study, run them as one fused round, print "
        "replicate bands (generate | report)",
    )
    scen_sub = sub_scen.add_subparsers(dest="scenario_command", required=True)
    scen_gen = scen_sub.add_parser(
        "generate", help="print the derived member manifest of a scenario TOML"
    )
    scen_gen.add_argument("file", metavar="SCENARIO_TOML")
    scen_gen.add_argument(
        "--seed", type=_non_negative_int, default=None,
        help="override the scenario file's master seed",
    )
    scen_rep = scen_sub.add_parser(
        "report",
        help="run every derived member in one fused round, streaming each "
        "family's band tables the moment its last member resolves; "
        "re-run on a filled --cache-dir to print them again without "
        "simulating",
    )
    scen_rep.add_argument("file", metavar="SCENARIO_TOML")
    scen_rep.add_argument("--csv", default=None, metavar="DIR",
                          help="also dump the band tables as CSV")
    # No platform flag: the scenario file declares the platform grid.
    _add_sim_options(
        scen_rep,
        seed_default=None,
        seed_help="override the scenario file's master seed",
    )
    scen_rep.add_argument(
        "--adaptive", action="store_true",
        help="stage replicates in waves and stop per grid row once its band "
        "width stabilizes, instead of simulating a fixed count; the "
        "scenario file's [adaptive] table sets the policy",
    )

    sub_index = subparsers.add_parser(
        "index", help="list every experiment command; --check verifies EXPERIMENTS.md"
    )
    sub_index.add_argument(
        "--check",
        action="store_true",
        help="fail unless EXPERIMENTS.md references every command (and "
        "nothing that does not exist)",
    )
    sub_index.add_argument(
        "--file",
        default="EXPERIMENTS.md",
        metavar="PATH",
        help="experiment index document to verify (default: ./EXPERIMENTS.md)",
    )
    return parser


def print_command_index(stream=None) -> None:
    """Print every experiment subcommand with its registry description."""
    stream = stream or sys.stdout
    print("Experiment commands (equivalently `repro-experiments <command>`):", file=stream)
    for study in STUDIES:
        print(
            f"  python -m repro {study.name:<16} # {study.description}", file=stream
        )


def check_experiments_md(path: str | Path, stream=None) -> int:
    """Verify the experiment index document against the study registry.

    Returns 0 when every registered study *and* every documented meta
    command (:data:`_DOCUMENTED_META`) is referenced as
    ``python -m repro <command>`` and every referenced command exists,
    1 otherwise.  Because the CLI help itself derives from the registry
    (:data:`REGISTRY`), passing this check means document, CLI and
    registry all agree.
    """
    stream = stream or sys.stdout
    path = Path(path)
    if not path.exists():
        print(f"[index] {path} does not exist", file=stream)
        return 1
    referenced = set(re.findall(r"python -m repro ([\w-]+)", path.read_text()))
    required = set(REGISTRY) | set(_DOCUMENTED_META)
    missing = sorted(required - referenced)
    unknown = sorted(referenced - set(REGISTRY) - _META_COMMANDS)
    for name in missing:
        print(f"[index] {path} does not reference `python -m repro {name}`", file=stream)
    for name in unknown:
        print(f"[index] {path} references unknown command {name!r}", file=stream)
    if missing or unknown:
        return 1
    print(f"[index] {path} covers all {len(required)} commands", file=stream)
    return 0


def _write_report(
    args: argparse.Namespace,
    pipeline: SimulationPipeline,
    argv: Sequence[str] = (),
) -> None:
    import io as _io

    from ..io.report import write_report

    settings = _settings_from_args(args)
    staged = _stage_specs([get_spec(n) for n in REGISTRY], args, pipeline)
    _run_round(args, argv, pipeline, staged)
    # Re-group per study (fig2 --all-platforms stages one study per
    # platform but the report keeps one section per figure).
    sections: list[tuple[str, list[FigureResult]]] = []
    by_name: dict[str, list[FigureResult]] = {}
    for stage in staged:
        name = stage.ctx.spec.name
        if name not in by_name:
            by_name[name] = []
            sections.append((name, by_name[name]))
        by_name[name].extend(stage.finish())
    buffer = _io.StringIO()
    print_input_tables(stream=buffer)
    sim = (
        f"{settings.fidelity.n_runs} runs x {settings.fidelity.n_patterns} "
        f"patterns, seed {settings.seed}, method {settings.method}"
        if settings.simulate
        else "disabled"
    )
    path = write_report(args.out, sections, sim, input_tables=buffer.getvalue())
    print(f"[report] {path}")


def _format_age(seconds: float) -> str:
    if seconds < 3600:
        return f"{seconds / 60:.0f}m"
    if seconds < 86400:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def _cmd_cache(args: argparse.Namespace) -> int:
    from ..obs.metrics import MetricsRegistry
    from ..sim.plan import ResultCache
    from .analytic import AnalyticMemo

    if not Path(args.cache_dir).is_dir():
        # Building the cache would create the directory, and a mistyped
        # path would then read as an empty, healthy cache.
        print(
            f"repro-experiments cache {args.cache_command}: error: "
            f"no cache directory at {args.cache_dir}",
            file=sys.stderr,
        )
        return 2
    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        memo = AnalyticMemo(Path(args.cache_dir) / "analytic_memo.json")
        if getattr(args, "format", "text") == "json":
            # The same repro-metrics/1 document shape the run manifest
            # and trace snapshot use, so one loader reads all three.
            registry = MetricsRegistry()
            registry.gauge("cache_entries").set(stats["entries"])
            registry.gauge("cache_bytes").set(stats["total_bytes"])
            if stats["entries"]:
                registry.gauge("cache_oldest_mtime").set(stats["oldest_mtime"])
                registry.gauge("cache_newest_mtime").set(stats["newest_mtime"])
            registry.gauge("analytic_entries").set(len(memo))
            registry.counter("analytic", kind="served").inc(memo.served)
            registry.counter("analytic", kind="lookups").inc(memo.lookups)
            payload = registry.snapshot()
            payload["directory"] = str(stats["directory"])
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            print()
            return 0
        mib = stats["total_bytes"] / (1024 * 1024)
        print(
            f"[cache] {stats['entries']} entries, {mib:.2f} MiB "
            f"({stats['directory']})"
        )
        if stats["entries"]:
            now = time.time()
            print(
                f"[cache] oldest {_format_age(now - stats['oldest_mtime'])}, "
                f"newest {_format_age(now - stats['newest_mtime'])}"
            )
        print(
            f"[analytic] {len(memo)} memo entries, "
            f"{memo.served}/{memo.lookups} served "
            f"(hit rate {memo.hit_rate:.2%})"
        )
        return 0
    if args.cache_command == "ls":
        now = time.time()
        rows = [
            (e.key[:16], e.size, _format_age(now - e.mtime)) for e in cache.entries()
        ]
        print(render_table(("key (prefix)", "bytes", "age"), rows))
        return 0
    if args.cache_command == "verify":
        ok, corrupt = cache.verify()
        for entry, reason in corrupt:
            print(f"[verify] corrupt {entry.key[:16]}: {reason}")
        if corrupt and args.delete:
            for entry, _ in corrupt:
                cache.invalidate(entry.key)
            print(
                f"[verify] {len(ok)} entries ok, {len(corrupt)} corrupt removed "
                f"({cache.directory})"
            )
            return 0
        print(
            f"[verify] {len(ok)} entries ok, {len(corrupt)} corrupt "
            f"({cache.directory})"
        )
        return 1 if corrupt else 0
    # prune
    if args.max_age_days is None and args.max_size_mb is None:
        print("[prune] nothing to do: pass --max-age-days and/or --max-size-mb")
        return 1
    # Deletion needs explicit consent (--yes, or an interactive
    # confirmation), because a cache directory may be shared across
    # scenario runs, hosts and warm CI re-runs.  Only the preview and
    # prompt paths pay a preview scan; --yes prunes in one pass.
    if args.dry_run or not args.yes:
        removed, kept = cache.prune(
            max_age_days=args.max_age_days,
            max_size_mb=args.max_size_mb,
            dry_run=True,
        )
        mib = sum(e.size for e in removed) / (1024 * 1024)
        if args.dry_run:
            print(
                f"[prune] would remove {len(removed)} entries ({mib:.2f} MiB), "
                f"kept {len(kept)}"
            )
            return 0
        if sys.stdin.isatty():
            reply = input(
                f"[prune] remove {len(removed)} entries ({mib:.2f} MiB) "
                f"from {cache.directory}? [y/N] "
            )
            if reply.strip().lower() not in ("y", "yes"):
                print("[prune] aborted (nothing deleted)")
                return 1
        else:
            print(
                "[prune] refusing to delete without --yes (stdin is not a "
                "terminal); use --dry-run to preview"
            )
            return 1
    removed, kept = cache.prune(
        max_age_days=args.max_age_days,
        max_size_mb=args.max_size_mb,
    )
    mib = sum(e.size for e in removed) / (1024 * 1024)
    print(f"[prune] removed {len(removed)} entries ({mib:.2f} MiB), kept {len(kept)}")
    return 0


def _trace_target_path(target: str, runs_dir: str | None) -> Path:
    """Resolve a ``trace`` operand: file path, run directory, or run id."""
    path = Path(target)
    if path.is_file():
        return path
    if path.is_dir():
        candidate = path / TRACE_NAME
        if candidate.is_file():
            return candidate
    base = Path(runs_dir) if runs_dir is not None else Path(DEFAULT_RUNS_DIR)
    candidate = base / target / TRACE_NAME
    if candidate.is_file():
        return candidate
    raise SystemExit(
        f"no trace found for {target!r}: not a trace file, not a directory "
        f"containing {TRACE_NAME}, and {candidate} does not exist (was the "
        f"run started with --trace?)"
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    from ..obs.trace import load_trace

    path = _trace_target_path(args.target, args.runs_dir)
    try:
        events = load_trace(path)
    except ReproError as exc:
        raise SystemExit(str(exc)) from None
    try:
        return _print_trace(args, events)
    except BrokenPipeError:
        # `trace export | head` is the intended usage; redirect stdout
        # at the fd so the interpreter's exit-time flush stays quiet.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _print_trace(args: argparse.Namespace, events: list[dict]) -> int:
    from ..obs.report import render_summary_text, render_timeline, summarize

    if args.trace_command == "summary":
        summary = summarize(events)
        if args.format == "json":
            json.dump(summary, sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            for line in render_summary_text(summary):
                print(line)
        return 0
    if args.trace_command == "timeline":
        for line in render_timeline(events, limit=args.limit):
            print(line)
        return 0
    # export: events passed schema validation in load_trace, so the
    # output is a clean-room re-serialisation, not a byte copy.
    if args.format == "json":
        json.dump(events, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for event in events:
            print(json.dumps(event, sort_keys=True, separators=(",", ":")))
    return 0


def _scenario_manifest_rows(members) -> list[tuple]:
    rows = []
    for member in members:
        perturbs = ", ".join(p.label for p in member.variant.perturbations)
        rows.append(
            (
                member.name,
                member.platform,
                member.replicate,
                member.seed,
                perturbs if perturbs else "-",
            )
        )
    return rows


def _cmd_scenario(args: argparse.Namespace, argv: Sequence[str] = ()) -> int:
    from ..io.bands import BandedEmitter
    from .scenarios import AdaptiveRun, load_scenario_toml

    try:
        sset = load_scenario_toml(args.file, seed=args.seed)
        members = sset.derive()
    except InvalidParameterError as exc:
        raise SystemExit(str(exc)) from None

    if args.scenario_command == "generate":
        print(
            render_table(
                ("member", "platform", "replicate", "seed", "perturbations"),
                _scenario_manifest_rows(members),
                title=f"Scenario set {sset.name!r} on study {sset.spec.name!r} "
                f"(master seed {sset.master_seed})",
            )
        )
        for line in sset.provenance()[1:]:
            print(f"  {line}")
        return 0

    # report: one shared pipeline, one event-driven round.  The
    # scenario file's [adaptive] table is the policy's one source;
    # --adaptive only switches it on for a file that leaves it off.
    policy = None
    if args.adaptive or sset.adaptive_enabled:
        from .scenarios import AdaptivePolicy

        policy = sset.adaptive if sset.adaptive is not None else AdaptivePolicy()
    settings = _settings_from_args(args)
    try:
        # A jitter draw can leave the model's domain (e.g. an additive
        # draw pushing lambda_ind negative): fail with the message
        # before the pipeline opens its trace file or analytic memo.
        sset.validate(members)
    except InvalidParameterError as exc:
        raise SystemExit(f"{args.file}: {exc}") from None
    started = time.perf_counter()
    with _pipeline_from_args(args, argv) as pipeline:
        run = None
        try:
            if policy is not None:
                run = AdaptiveRun(
                    sset, policy, pipeline, settings, progress=args.progress
                )
                families = run.stage_initial()
                staged = run.staged_studies
            else:
                families = sset.stage(pipeline, settings, members=members)
                staged = [
                    stage for family in families for stage in family.staged
                ]
        except (InvalidParameterError, OptimizationError) as exc:
            # A member can also leave the domain where the optimum is
            # finite (every period overflows).
            raise SystemExit(f"{args.file}: {exc}") from None
        if args.dry_run:
            # Adaptive dry runs preview wave 0 only: later waves are
            # decisions, not plans, until the data exists.
            _print_dry_run(pipeline)
            return 0

        def preview() -> None:
            # The planned-work preview costs a plan key per point and a
            # disk probe per unique key, so compute it only when the
            # dedup-ratio line is actually wanted.
            if not args.progress:
                return
            n_members = len(members) if run is None else run.n_members
            totals: Counter = Counter()
            for entry in pipeline.pending_report().values():
                totals.update(entry)
            free = totals["cache_hits"] + totals["deduped"]
            ratio = free / totals["points"] if totals["points"] else 0.0
            print(
                f"[scenario] {n_members} members, {totals['points']} points: "
                f"{totals['cache_hits']} cache-served, {totals['deduped']} "
                f"deduped, {totals['to_compute']} to compute "
                f"(dedup ratio {ratio:.2%}); analytic "
                f"{totals['analytic_evaluated']} evaluated, "
                f"{totals['analytic_served']} memo-served",
                file=sys.stderr,
            )

        emitter = BandedEmitter(csv_dir=args.csv, trace=pipeline.trace)
        for family in families:
            emitter.add(family)
        _run_round(
            args, argv, pipeline, staged, emitter=emitter, run=run,
            on_start=preview,
        )
        if pipeline.cache is not None:
            hits, misses = pipeline.cache_stats
            print(
                f"[cache] {hits} hits, {misses} misses "
                f"({pipeline.cache.directory})",
                file=sys.stderr,
            )
    print(f"[done in {time.perf_counter() - started:.1f}s]", file=sys.stderr)
    return 0


def _strip_options(argv: Sequence[str], flags: set[str]) -> list[str]:
    """``argv`` without each ``FLAG VALUE`` / ``FLAG=VALUE`` of ``flags``."""
    kept: list[str] = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg in flags:
            skip = True
        elif arg.partition("=")[0] not in flags:
            kept.append(arg)
    return kept


def _cmd_resume(args: argparse.Namespace) -> int:
    """Replay an interrupted run's stored argv with ``--resume`` appended.

    Execution-only overrides (``--jobs``, ``--fault-plan``, …) replace
    the stored ones and are appended after the stored arguments, so
    they never touch the result-relevant configuration — which is
    exactly the set the manifest's config hash covers, so the resumed
    round still validates against the original run.  Each flag stays
    once in the replayed argv, however often the run is resumed.
    """
    from ..sim.manifest import RunManifest, manifest_path

    runs_dir = args.runs_dir if args.runs_dir is not None else DEFAULT_RUNS_DIR
    try:
        manifest = RunManifest.load(manifest_path(runs_dir, args.run_id))
    except ReproError as exc:
        raise SystemExit(str(exc)) from None
    overrides = {
        "--runs-dir": args.runs_dir,
        "--jobs": args.jobs,
        "--fault-plan": args.fault_plan,
        "--trace-file": args.trace_file,
    }
    # Injected faults are one-shot: replaying the crash that interrupted
    # the run would just crash it again, forever.
    stripped = {"--fault-plan"} | {f for f, v in overrides.items() if v is not None}
    replay = _strip_options(manifest.argv, stripped)
    if "--resume" not in replay:
        replay.append("--resume")
    for flag, value in overrides.items():
        if value is not None:
            replay += [flag, str(value)]
    for flag, on in (("--progress", args.progress), ("--trace", args.trace)):
        if on and flag not in replay:
            replay.append(flag)
    print(f"[resume] replaying: {' '.join(replay)}", file=sys.stderr)
    return main(replay)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, argv)
    except ReproError as exc:
        # Only an injected crash is handled here; the fault harness is
        # imported on this path so that the CLI starts without it.
        from ..sim.faults import CRASH_EXIT_CODE, SimulatedCrash

        if not isinstance(exc, SimulatedCrash):
            raise
        # The fault harness's kill -9 analogue: die loudly with a
        # dedicated exit code so crash-resume tests and CI can tell an
        # injected crash from a real failure.
        print(f"[fault] {exc}", file=sys.stderr)
        return CRASH_EXIT_CODE


def _dispatch(args: argparse.Namespace, argv: list[str]) -> int:
    if args.command == "tables":
        print_input_tables()
        return 0
    if args.command == "index":
        print_command_index()
        if args.check:
            return check_experiments_md(args.file)
        return 0
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "scenario":
        return _cmd_scenario(args, argv)

    if args.command == "sweep":
        from .spec import load_toml_spec

        try:
            specs = [load_toml_spec(args.spec)]
        except InvalidParameterError as exc:
            raise SystemExit(str(exc)) from None
    elif args.command in ("all", "report"):
        specs = [get_spec(n) for n in REGISTRY]
    else:
        specs = [get_spec(args.command)]

    started = time.perf_counter()
    with _pipeline_from_args(args, argv) as pipeline:
        if args.dry_run:
            _stage_specs(specs, args, pipeline)
            _print_dry_run(pipeline)
            return 0
        if args.command == "report":
            _write_report(args, pipeline, argv)
        else:
            from ..io.stream import StreamingEmitter

            staged = _stage_specs(specs, args, pipeline)
            emitter = StreamingEmitter(csv_dir=args.csv, trace=pipeline.trace)
            for stage in staged:
                emitter.add(stage)
            _run_round(args, argv, pipeline, staged, emitter=emitter)
        if pipeline.cache is not None:
            hits, misses = pipeline.cache_stats
            print(f"[cache] {hits} hits, {misses} misses ({pipeline.cache.directory})")
    print(f"[done in {time.perf_counter() - started:.1f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
