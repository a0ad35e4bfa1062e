"""Docs-code conformance: DESIGN.md / EXPERIMENTS.md stay truthful.

Documentation that references modules, commands and files is easy to
let rot; these tests pin the promises:

* every module named in DESIGN.md's system inventory imports;
* every CLI command referenced in EXPERIMENTS.md exists in the runner;
* every figure has a benchmark module;
* the README quickstart snippet stays executable.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestDesignInventory:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.core.speedup",
            "repro.core.costs",
            "repro.core.errors",
            "repro.core.pattern",
            "repro.core.first_order",
            "repro.core.young_daly",
            "repro.core.validity",
            "repro.optimize.scalar",
            "repro.optimize.period",
            "repro.optimize.allocation",
            "repro.optimize.relaxation",
            "repro.baselines.failstop_only",
            "repro.baselines.error_free",
            "repro.platforms.catalog",
            "repro.platforms.scenarios",
            "repro.sim.rng",
            "repro.sim.engine",
            "repro.sim.protocol",
            "repro.sim.batch",
            "repro.sim.results",
            "repro.sim.streams",
            "repro.sim.renewal",
            "repro.sim.nodes",
            "repro.sim.trace",
            "repro.analysis.asymptotics",
            "repro.analysis.sensitivity",
            "repro.analysis.waste",
            "repro.io.tables",
            "repro.io.csvout",
            "repro.io.report",
            "repro.extensions.twolevel",
            "repro.extensions.sim_twolevel",
        ],
    )
    def test_inventory_module_exists(self, module):
        assert importlib.import_module(module) is not None


class TestExperimentIndex:
    def test_every_figure_has_a_bench(self):
        benches = {p.name for p in (REPO / "benchmarks").glob("test_bench_*.py")}
        for fig in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7"):
            assert f"test_bench_{fig}.py" in benches, f"missing bench for {fig}"

    def test_every_extension_has_a_bench(self):
        benches = {p.name for p in (REPO / "benchmarks").glob("test_bench_*.py")}
        for ext in ("twolevel", "weibull", "weakscaling", "nodes"):
            assert f"test_bench_{ext}.py" in benches, f"missing bench for {ext}"

    def test_cli_commands_in_experiments_md_exist(self):
        # Delegates to the CLI drift guard so the test and
        # `repro-experiments index --check` can never disagree.
        import io

        from repro.experiments.runner import check_experiments_md

        stream = io.StringIO()
        assert check_experiments_md(REPO / "EXPERIMENTS.md", stream=stream) == 0, (
            stream.getvalue()
        )

    def test_experiments_md_covers_every_figure(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for heading in ("Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6", "Figure 7"):
            assert heading in text


class TestReadmePromises:
    def test_quickstart_snippet_numbers(self):
        # The README quotes ~219/~6239 (closed form) and ~207/~6555
        # (numerical) for Hera scenario 1; keep them honest.
        from repro import build_model, optimal_pattern, optimize_allocation

        model = build_model("Hera", scenario_id=1, alpha=0.1)
        sol = optimal_pattern(model)
        assert round(sol.processors) == 219
        assert round(sol.period) == 6239
        num = optimize_allocation(model)
        assert round(num.processors) == 207
        assert round(num.period) == 6555

    def test_documented_files_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "CHANGELOG.md"):
            assert (REPO / name).exists(), f"{name} missing"
        assert (REPO / "docs" / "MATH.md").exists()

    def test_examples_listed_in_readme_exist(self):
        text = (REPO / "README.md").read_text()
        for match in re.findall(r"`(\w+\.py)`", text):
            if match in ("setup.py",):
                continue
            assert (REPO / "examples" / match).exists(), f"README lists missing {match}"


class TestPerformanceTrajectory:
    def test_trajectory_is_well_formed(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "trajectory", REPO / "benchmarks" / "trajectory.py"
        )
        trajectory = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(trajectory)
        assert trajectory.TRAJECTORY.read_text().strip(), "trajectory is empty"
        assert trajectory.check() == []
