"""Whole-command benchmark of the ``repro`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) from the root of a source checkout:
its timed command is repeated, each time in a fresh interpreter, until it has
run ``--seconds`` seconds in all and at least three times, and every output is
checked.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
repetitions, with every time scaled to the reference machine's speed.  With ``--trace 1`` the command is also run once under
``tracer.py`` and the metrics are the per-layer ones of that run; a record
of it is kept under ``.perfbench-work/records/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import layers
from measure import child_env, machine_speed, setup_seconds
from workloads import WORKLOADS, digest, fresh_dir

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fewest timed repetitions a run takes, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: Fresh set-up interpreters timed after each repetition.
SETUP_PER_REPEAT = 2
#: ``machine_speed()`` on the reference machine, a 2-vCPU x86-64 VM at rest.
#: Every reported time is in that machine's seconds: it is scaled by this
#: over the speed read on both sides of it.  The VM's speed drifts by more
#: than 2x over minutes, and unscaled medians of the same code then differ
#: by more than the bounds.
REFERENCE_SPEED_S = 0.016

#: What each end-to-end metric means; names, units and bounds are in
#: BENCHMARK.json.  Times are in reference-machine seconds (see
#: REFERENCE_SPEED_S).  error_rate is always 0 on a healthy program and a
#: bounded metric must never be 0, so it is only printed here and carried
#: as failed/attempted.
MEANINGS = {
    "wall_s": "interpreter start to exit of the timed command",
    "setup_s": "fresh interpreter: import the runner and build its parser",
    "first_output_s": "interpreter start to the first table byte on stdout",
    "points_per_s": "declared points resolved / wall_s",
    "peak_rss_mb": "largest resident set of the command or of any one child "
                   "it waited for (wait4), not the sum over its process tree",
    "error_rate": "commands that failed or failed a check / commands run",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def timed_repeats(workload, workdir: Path, seconds: float, python: str, env: dict
                  ) -> tuple[list, list[float]]:
    """Repeat the timed command until it has run ``seconds`` in all.

    The set-up interpreters for ``setup_s`` run between repetitions, and
    the machine's speed is read between every two timed steps.  Returns
    the samples, each one's scale to reference seconds, and the scaled
    set-up times.
    """
    samples, scales, setup = [], [], []
    before = machine_speed()
    while len(samples) < MIN_REPEATS or sum(s.result.wall_s for s in samples) < seconds:
        rep = fresh_dir(workdir / f"rep{len(samples)}")
        sample = workload.repeat(rep)
        after = machine_speed()
        if not sample.ok:
            workload.record_failure(f"repetition {len(samples)}", sample.errors)
        elif workload.expected is None:
            workload.expected = digest(sample.tables)
        samples.append(sample)
        scales.append(2 * REFERENCE_SPEED_S / (before + after))
        shutil.rmtree(rep)
        times = setup_seconds(python, workdir, env, SETUP_PER_REPEAT)
        before = machine_speed()
        setup += [t * 2 * REFERENCE_SPEED_S / (after + before) for t in times]
    return samples, scales, setup


def end_to_end(workload, samples: list, scales: list[float], setup: list[float]
               ) -> dict[str, float]:
    # Timings come from the repetitions that passed their checks; when none
    # did, the run still reports (as incorrect) what it measured.
    runs = [(s.result, k) for s, k in zip(samples, scales)]
    good = [run for run, s in zip(runs, samples) if s.ok] or runs
    walls = [r.wall_s * k for r, k in good]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "first_output_s": statistics.median(
            (r.wall_s if r.first_output_s is None else r.first_output_s) * k
            for r, k in good),
        "points_per_s": statistics.median(workload.points / w for w in walls),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r, _ in good),
        "error_rate": workload.failed / workload.attempted,
    }


def _read_trace(spans_path: Path):
    lines = spans_path.read_text().splitlines()
    trace, tail = json.loads(lines[0]), json.loads(lines[1])
    main = layers.main_totals(trace["names"], trace["spans"], *trace["call_cost"])
    workers = layers.SpanTotals()
    counts = dict(trace["counts"])
    worker_path = Path(f"{spans_path}.workers.jsonl")
    if worker_path.exists():
        for line in worker_path.read_text().splitlines():
            name, start, end, self_s, extra = json.loads(line)
            workers.add(name, end - start, self_s)
            for key, value in extra.items():
                counts[key] = counts.get(key, 0) + value
    return trace, tail, main, workers, counts


def traced_run(workload, workdir: Path, untraced_wall: float):
    """Run the command once under the tracer; per-layer metrics and record."""
    rep = fresh_dir(workdir / "traced")
    spans = workdir / "spans.json"
    sample = workload.repeat(rep, tracer=[str(HERE / "tracer.py"), str(spans)])
    if not sample.ok:
        workload.record_failure("traced run", sample.errors)
        raise RuntimeError(f"traced run failed: {sample.errors}")
    trace, tail, main, workers, counts = _read_trace(spans)
    inside, outside = trace["call_cost"]
    wrapped = main.calls[layers.WRAPPER_SPAN]
    result = sample.result
    tracer_s = main.layer_self().get(layers.TRACE_LAYER, 0.0) + tail["write_s"]
    points = counts.get("points.computed", 0) + counts.get("points.served", 0)
    if points != workload.points:
        workload.record_failure("traced run", [f"{points} points resolved, "
                                               f"expected {workload.points}"])
    metrics = layers.per_layer_metrics(main, workers, counts, result.wall_s,
                                       untraced_wall, tracer_s, points)
    layer, layer_s = layers.largest_layer(main)
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "wall_s": result.wall_s,
        "untraced_wall_s": untraced_wall,
        "largest_layer": layer,
        # The tracer's own cost per span, moved into layer "trace".
        "wrapper_us_per_call": {"inside": 1e6 * inside, "outside": 1e6 * outside},
        "wrapped_calls": wrapped,
        "interpreter_start_s": trace["t0"] - result.started,
        "interpreter_exit_s": result.started + result.wall_s - trace["t_end"]
        - tail["write_s"],
        "layer_self_s": dict(sorted(main.layer_self().items())),
        "worker_layer_self_s": dict(sorted(workers.layer_self().items())),
        "spans": {
            name: {"calls": main.calls[name], "total_s": main.total[name],
                   "self_s": main.self[name]}
            for name in sorted(main.calls)
        },
        "counts": dict(sorted(counts.items())),
        "metrics": metrics,
    }
    log(f"[perfbench] largest self time: {layer} {layer_s:.3f} s of "
        f"{result.wall_s:.3f} s traced wall; unattributed "
        f"{metrics['other.unattributed_s']:.3f} s; wrappers "
        f"{1e6 * (inside + outside):.2f} us/call x {wrapped} calls = "
        f"{(inside + outside) * wrapped:.3f} s moved to layer trace")
    return metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"[perfbench] no program source at {ROOT / 'src' / 'repro'}")
        return 2
    work = ROOT / ".perfbench-work"
    workdir = fresh_dir(work / f"{args.workload}-{args.seed}-{os.getpid()}")
    python = sys.executable
    env = child_env(ROOT, fresh_dir(workdir / "tmp"))
    workload = WORKLOADS[args.workload](args.seed, python, env)
    try:
        # Byte-compile once, so no repetition pays for it.
        subprocess.run([python, "-m", "compileall", "-q", str(ROOT / "src")],
                       check=True, env=env, stdout=subprocess.DEVNULL)
        workload.prepare(workdir)
        samples, scales, setup = timed_repeats(workload, workdir, args.seconds, python, env)
        e2e = end_to_end(workload, samples, scales, setup)
        if args.trace:
            measured = statistics.median(s.result.wall_s for s in samples)
            metrics, record = traced_run(workload, workdir, measured)
            records = work / "records"
            records.mkdir(exist_ok=True)
            path = records / f"{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
            log(f"[perfbench] per-layer record -> {path}")
            values, kind = metrics, "per_layer"
        else:
            values, kind = e2e, "end_to_end"
        out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in layers.benchmark_metrics(kind)}
    except RuntimeError as exc:
        for error in workload.errors:
            log(f"[perfbench] FAILED {error}")
        log(f"[perfbench] {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = " ".join(f"{s.result.wall_s:.3f}" for s in samples)
    speeds = " ".join(f"{REFERENCE_SPEED_S / k:.4f}" for k in scales)
    log(f"[perfbench] {workload.name} seed {args.seed}: {len(samples)} timed runs, "
        f"measured wall_s {walls}; machine speed {speeds} (reference "
        f"{REFERENCE_SPEED_S}); {workload.points} points per run; table digest "
        f"{digest(samples[0].tables)[:16]}")
    units = {m["name"]: m["unit"] for m in layers.benchmark_metrics("end_to_end")}
    for name, meaning in MEANINGS.items():
        print(f"{name:<15} {e2e[name]:>12.6g} {units.get(name, 'ratio'):<9} {meaning}")
    for error in workload.errors:
        log(f"[perfbench] FAILED {error}")
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
