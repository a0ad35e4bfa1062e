"""The checked-in performance trajectory: ``benchmarks/trajectory.jsonl``.

One JSON line per release x workload x end-to-end metric of
``BENCHMARK.json``, holding the median of the parent commit's runs and
of the change's runs, so the repository shows how each change moved the
whole-command numbers.

    python benchmarks/trajectory.py append --version V --parent COMMIT \\
        --workload W --parent-runs PARENT.jsonl --change-runs CHANGE.jsonl

Each runs file holds one ``perfbench/run.py --seed 1 --trace 0`` result
per line (the last line of its stdout), one line per pair.  Take the
pairs from two checkouts, a ``git archive`` of the parent and the
change, swapping which side runs first on every pair.  A run that is
not ``correct`` or has failures is refused.

    python benchmarks/trajectory.py check

validates the file (``tests/test_conformance.py`` runs the same check).

    python benchmarks/trajectory.py floor --workload W RESULT

is the regression floor: RESULT is a file whose last line is one
``perfbench/run.py --trace 0`` result (its saved stdout will do).  It
exits 1 when a reference-scaled metric (``GATED``) is worse than the
workload's newest recorded ``change_median`` by more than the metric's
``BENCHMARK.json`` bound.  ``peak_rss_mb`` is printed but not gated: it
is not scaled to the reference machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "benchmarks" / "trajectory.jsonl"
FIELDS = (
    "version", "parent", "workload", "metric", "unit", "better",
    "parent_median", "change_median", "pairs",
)
#: The end-to-end metrics perfbench scales to the reference machine;
#: ``floor`` gates these and only prints the rest.
GATED = ("wall_s", "setup_s", "first_output_s", "points_per_s")


def end_to_end_metrics() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_runs(path: Path) -> list[dict]:
    runs = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    for run in runs:
        if not run.get("correct") or run.get("failed"):
            raise SystemExit(f"{path}: refusing a run that is not correct: {run}")
    if not runs:
        raise SystemExit(f"{path}: no runs")
    return runs


def records(version: str, parent: str, workload: str,
            parent_runs: list[dict], change_runs: list[dict]) -> list[dict]:
    out = []
    for name, spec in end_to_end_metrics().items():
        medians = [
            statistics.median(run["metrics"][name]["value"] for run in runs)
            for runs in (parent_runs, change_runs)
        ]
        out.append({
            "version": version,
            "parent": parent,
            "workload": workload,
            "metric": name,
            "unit": spec["unit"],
            "better": spec["better"],
            "parent_median": round(medians[0], 4),
            "change_median": round(medians[1], 4),
            "pairs": min(len(parent_runs), len(change_runs)),
        })
    return out


def check(path: Path = TRAJECTORY) -> list[str]:
    """Problems with the trajectory file; empty when it is well formed."""
    metrics = end_to_end_metrics()
    problems = []
    for n, line in enumerate(path.read_text().splitlines(), 1):
        record = json.loads(line)
        if tuple(record) != FIELDS:
            problems.append(f"line {n}: fields {tuple(record)} != {FIELDS}")
        elif record["metric"] not in metrics:
            problems.append(f"line {n}: unknown metric {record['metric']!r}")
        elif not all(record[k] > 0 for k in ("parent_median", "change_median", "pairs")):
            problems.append(f"line {n}: medians and pairs must be positive")
    return problems


def newest(workload: str, path: Path = TRAJECTORY) -> dict[str, dict]:
    """The workload's most recently appended record per metric."""
    out = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["workload"] == workload:
            out[record["metric"]] = record
    return out


def floor(workload: str, result: dict, path: Path = TRAJECTORY) -> tuple[list[str], bool]:
    """Report lines for one perfbench result, and whether it regressed.

    A metric regresses when it is worse than the newest recorded
    ``change_median`` by more than its bound, as a fraction of that
    median.
    """
    if not result.get("correct") or result.get("failed"):
        raise SystemExit(f"refusing a result that is not correct: {result}")
    recorded = newest(workload, path)
    if not recorded:
        raise SystemExit(f"{path}: no records for workload {workload!r}")
    lines, regressed = [], False
    for name, spec in end_to_end_metrics().items():
        if name not in recorded:
            continue
        record = recorded[name]
        value, median = result["metrics"][name]["value"], record["change_median"]
        worse = (value - median if spec["better"] == "lower" else median - value) / median
        verdict = "not gated"
        if name in GATED:
            failed = worse > spec["bound"]
            regressed |= failed
            verdict = "REGRESSED" if failed else "ok"
        lines.append(
            f"{workload} {name}: {value:.4g} vs {median:.4g} ({record['version']}), "
            f"{100 * worse:+.1f}% worse (bound {100 * spec['bound']:.0f}%): {verdict}"
        )
    return lines, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    append = sub.add_parser("append", help="append one workload's records")
    append.add_argument("--version", required=True)
    append.add_argument("--parent", required=True, help="parent commit")
    append.add_argument("--workload", required=True)
    append.add_argument("--parent-runs", type=Path, required=True)
    append.add_argument("--change-runs", type=Path, required=True)
    sub.add_parser("check", help="validate the trajectory file")
    gate = sub.add_parser("floor", help="fail on a regression past the newest record")
    gate.add_argument("--workload", required=True)
    gate.add_argument("result", type=Path, help="file ending in one perfbench result line")
    args = parser.parse_args(argv)
    if args.command == "floor":
        text = args.result.read_text().strip()
        if not text:
            raise SystemExit(f"{args.result}: no perfbench result")
        lines, regressed = floor(args.workload, json.loads(text.splitlines()[-1]))
        print("\n".join(lines))
        return 1 if regressed else 0
    if args.command == "check":
        problems = check()
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1 if problems else 0
    new = records(args.version, args.parent, args.workload,
                  load_runs(args.parent_runs), load_runs(args.change_runs))
    with TRAJECTORY.open("a") as handle:
        for record in new:
            handle.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
