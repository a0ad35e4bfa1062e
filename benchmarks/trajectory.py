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
    args = parser.parse_args(argv)
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
