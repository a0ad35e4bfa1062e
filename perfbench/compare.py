"""Diff per-layer records of two traced benchmark runs.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are record files written by ``run.py --trace 1`` (under
``.perfbench-work/records/``) or directories of them; records are paired by
workload.  For each workload the table lists every layer's self time, then
every per-layer metric (times, counts and unit costs) with its change, and
the layer prediction ``layers.PREDICTIONS`` states for it, so a change can
show in which layer its saving sits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import layers


def load_records(path: Path) -> dict[str, dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = {}
    for file in files:
        record = json.loads(file.read_text())
        records[record["workload"]] = record
    return records


def _change(before: float, after: float) -> str:
    if before == after:
        return "="
    if not before:
        return "new"
    return f"{(after - before) / abs(before):+.1%}"


def compare(before: dict, after: dict) -> list[str]:
    lines = [
        f"== {before['workload']} (seed {before['seed']} -> {after['seed']}): traced wall "
        f"{before['wall_s']:.3f} -> {after['wall_s']:.3f} s; largest layer "
        f"{before['largest_layer']} -> {after['largest_layer']}",
        f"  {'layer self time':<28} {'before':>12} {'after':>12} {'change':>8}",
    ]
    b_self, a_self = before["layer_self_s"], after["layer_self_s"]
    for layer in sorted(set(b_self) | set(a_self)):
        b, a = b_self.get(layer, 0.0), a_self.get(layer, 0.0)
        lines.append(f"  {layer:<28} {b:>12.4f} {a:>12.4f} {_change(b, a):>8}")
    lines.append(f"  {'metric':<28} {'before':>12} {'after':>12} {'change':>8}  unit")
    current = None
    for metric in layers.benchmark_metrics("per_layer"):
        name = metric["name"]
        layer = name.split(".")[0]
        if layer != current and layer in layers.PREDICTIONS:
            lines.append(f"  [{layer}] should move: {layers.PREDICTIONS[layer]}")
        current = layer
        b = before["metrics"].get(name, 0.0)
        a = after["metrics"].get(name, 0.0)
        lines.append(f"  {name:<28} {b:>12.6g} {a:>12.6g} "
                     f"{_change(b, a):>8}  {metric['unit']}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (load_records(Path(p)) for p in argv)
    common = [w for w in before if w in after]
    if not common:
        print("no workload appears in both record sets", file=sys.stderr)
        return 1
    for workload in common:
        print("\n".join(compare(before[workload], after[workload])))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
