"""The benchmark's own tests.

    python3 perfbench/selftest.py

Covers the seeded input generator (deterministic, and the family's member
and point counts fixed for every seed), the output filter, and that
``BENCHMARK.json`` names exactly the metrics and workloads the code reports.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import layers
import run
import workloads
from measure import child_env

ROOT = Path(__file__).resolve().parent.parent


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for seed in (0, 1, 7, 2**40):
            self.assertEqual(workloads.family_inputs(seed).toml(),
                             workloads.family_inputs(seed).toml())
            self.assertEqual(workloads.figures_argv(seed), workloads.figures_argv(seed))

    def test_seed_moves_the_draws(self):
        tomls = {workloads.family_inputs(seed).toml() for seed in range(5)}
        self.assertEqual(len(tomls), 5)
        seeds = {workloads.figures_seed(seed) for seed in range(5)}
        self.assertEqual(len(seeds), 5)

    def test_crash_point_is_half_the_family(self):
        self.assertEqual(workloads.FAMILY_POINTS, 972)
        self.assertEqual(workloads.CRASH_AFTER, 486)

    def test_point_count_is_fixed(self):
        """The program itself plans 18 members and 972 points per seed."""
        work = ROOT / ".perfbench-work"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            env = child_env(ROOT, Path(tmp))
            for seed in (0, 1, 987654321):
                path = Path(tmp) / workloads.FAMILY_TOML
                path.write_text(workloads.family_inputs(seed).toml())
                out = subprocess.run(
                    [sys.executable, "-m", "repro", "scenario", "report",
                     workloads.FAMILY_TOML, "--dry-run"],
                    cwd=tmp, env=env, capture_output=True, text=True, check=True,
                ).stdout
                members = [line for line in out.splitlines()
                           if line.startswith("[dry-run] bench_family:")]
                self.assertEqual(len(members), workloads.FAMILY_MEMBERS)
                total = re.search(r"\[dry-run\] total: (\d+) points", out)
                self.assertEqual(int(total.group(1)), workloads.FAMILY_POINTS)


class OutputFilterTest(unittest.TestCase):
    def test_strips_timing_and_cache_lines(self):
        out = b"Table\n[cache] 1 hits, 0 misses (c)\nrow\n[done in 1.2s]\n"
        self.assertEqual(workloads.table_bytes(out), b"Table\nrow\n")


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_workloads_match_the_code(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_every_layer_has_a_prediction(self):
        self.assertEqual(set(layers.LAYER_NAMES), set(layers.PREDICTIONS))

    def test_traced_run_reports_every_per_layer_metric(self):
        empty = layers.SpanTotals()
        values = layers.per_layer_metrics(empty, empty, {}, 1.0, 1.0, 0.0, 0)
        self.assertEqual(sorted(values), sorted(m["name"] for m in self.spec["per_layer"]))

    def test_untraced_run_reports_every_end_to_end_metric(self):
        names = {m["name"] for m in self.spec["end_to_end"]}
        self.assertLessEqual(names, set(run.MEANINGS))


class WrapperCostTest(unittest.TestCase):
    def test_cost_moves_from_layers_to_trace(self):
        # A parent span [0, 10] with two children [1, 3] and [5, 6].
        spans = [[0, 0.0, 10.0, -1], [1, 1.0, 3.0, 0], [1, 5.0, 6.0, 0]]
        totals = layers.main_totals(["a:f", "b:g"], spans, inside=0.1, outside=0.2)
        self.assertAlmostEqual(totals.self["a:f"], 10 - 3 - 0.1 - 2 * 0.2)
        self.assertAlmostEqual(totals.self["b:g"], 3 - 2 * 0.1)
        self.assertAlmostEqual(totals.self[layers.WRAPPER_SPAN], 3 * 0.3)
        self.assertEqual(totals.calls[layers.WRAPPER_SPAN], 3)


if __name__ == "__main__":
    unittest.main()
