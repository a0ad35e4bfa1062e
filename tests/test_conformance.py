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
import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _inventory_modules() -> list[str]:
    """The backticked ``repro.*`` module names of DESIGN.md's inventory."""
    text = (REPO / "DESIGN.md").read_text()
    section = text.split("## System inventory", 1)[1].split("\n## ", 1)[0]
    return sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", section)))


class TestDesignInventory:
    def test_inventory_is_parsed(self):
        assert {"repro.sim.vectorized", "repro.sim.plan", "repro.sim.scheduler",
                "repro.io.stream", "repro.io.bands"} <= set(_inventory_modules())

    @pytest.mark.parametrize("module", _inventory_modules())
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


def _load_trajectory():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "trajectory", REPO / "benchmarks" / "trajectory.py"
    )
    trajectory = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trajectory)
    return trajectory


class TestPerformanceTrajectory:
    def test_trajectory_is_well_formed(self):
        trajectory = _load_trajectory()
        assert trajectory.TRAJECTORY.read_text().strip(), "trajectory is empty"
        assert trajectory.check() == []


class TestRegressionFloor:
    """``trajectory.py floor`` against synthetic records."""

    #: change_median per metric of the newest synthetic release.
    RECORDED = {"wall_s": 1.0, "setup_s": 0.2, "first_output_s": 0.5,
                "points_per_s": 500.0, "peak_rss_mb": 40.0}

    @pytest.fixture
    def trajectory(self):
        return _load_trajectory()

    def _records(self, trajectory, tmp_path) -> Path:
        lines = []
        for version, scale in (("0.9.0", 3.0), ("1.0.0", 1.0)):  # newest last
            for name, spec in trajectory.end_to_end_metrics().items():
                median = self.RECORDED[name] * scale
                lines.append(json.dumps({
                    "version": version, "parent": "abc1234", "workload": "w",
                    "metric": name, "unit": spec["unit"], "better": spec["better"],
                    "parent_median": median, "change_median": median, "pairs": 3,
                }))
        path = tmp_path / "trajectory.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert trajectory.check(path) == []
        return path

    def _result(self, **factors) -> dict:
        return {"correct": True, "attempted": 4, "failed": 0, "metrics": {
            name: {"value": value * factors.get(name, 1.0)}
            for name, value in self.RECORDED.items()
        }}

    def test_at_the_newest_record_passes(self, trajectory, tmp_path):
        lines, regressed = trajectory.floor("w", self._result(), self._records(trajectory, tmp_path))
        assert not regressed
        assert len(lines) == 5 and all("(1.0.0)" in line for line in lines)

    @pytest.mark.parametrize(("metric", "factor", "regressed"), [
        ("wall_s", 1.2, False), ("wall_s", 1.3, True), ("wall_s", 0.5, False),
        ("setup_s", 1.3, True), ("first_output_s", 1.3, True),
        ("points_per_s", 0.8, False), ("points_per_s", 0.7, True),
        ("points_per_s", 2.0, False),
    ])
    def test_gates_the_scaled_metrics_at_their_bound(
        self, trajectory, tmp_path, metric, factor, regressed
    ):
        records = self._records(trajectory, tmp_path)
        lines, got = trajectory.floor("w", self._result(**{metric: factor}), records)
        assert got is regressed
        line = next(line for line in lines if f" {metric}:" in line)
        assert line.endswith("REGRESSED" if regressed else "ok")

    def test_peak_rss_is_printed_not_gated(self, trajectory, tmp_path):
        records = self._records(trajectory, tmp_path)
        lines, regressed = trajectory.floor("w", self._result(peak_rss_mb=2.0), records)
        assert not regressed
        assert any("peak_rss_mb" in line and line.endswith("not gated") for line in lines)

    def test_refuses_incorrect_results_and_unknown_workloads(self, trajectory, tmp_path):
        records = self._records(trajectory, tmp_path)
        with pytest.raises(SystemExit, match="not correct"):
            trajectory.floor("w", {**self._result(), "correct": False}, records)
        with pytest.raises(SystemExit, match="no records"):
            trajectory.floor("other", self._result(), records)

    def test_cli_reads_the_last_line_of_saved_stdout(self, trajectory, tmp_path, capsys):
        recorded = trajectory.newest("family-resume")
        result = {"correct": True, "attempted": 4, "failed": 0, "metrics": {
            name: {"value": record["change_median"]} for name, record in recorded.items()
        }}
        saved = tmp_path / "perfbench.out"
        saved.write_text("wall_s  1.0 s  table line\n" + json.dumps(result) + "\n")
        assert trajectory.main(["floor", "--workload", "family-resume", str(saved)]) == 0
        assert capsys.readouterr().out.count(": ok") == 4
