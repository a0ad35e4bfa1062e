"""The analytic batch engine's memo, keys and sweep integration."""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from repro.core import (
    GustafsonSpeedup,
    PatternModel,
    optimal_pattern,
    stack_models,
)
from repro.exceptions import ValidityError
from repro.experiments import analytic, ext_segments, fig4_alpha
from repro.experiments.analytic import (
    ANALYTIC_VERSION,
    AnalyticMemo,
    AnalyticPoint,
    evaluate_analytic,
    model_key,
)
from repro.experiments.common import SimSettings
from repro.experiments.pipeline import SimulationPipeline
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import main
from repro.experiments.spec import run_study
from repro.extensions.twolevel import (
    SegmentedSolution,
    expected_segmented_time,
    segmented_overhead,
    segmented_period,
)
from repro.optimize import scalar
from repro.optimize.allocation import optimize_allocation
from repro.optimize.scalar import minimize_scalar
from repro.platforms import build_model


class TestModelKey:
    def test_equal_models_share_a_key(self):
        a = build_model("Hera", 1)
        b = build_model("Hera", 1)
        assert model_key(a) == model_key(b)
        assert isinstance(model_key(a), str)

    def test_every_result_relevant_parameter_changes_the_key(self):
        base = model_key(build_model("Hera", 1))
        assert model_key(build_model("Hera", 2)) != base
        assert model_key(build_model("Hera", 1, alpha=1e-5)) != base
        assert model_key(build_model("Hera", 1, lambda_ind=1e-6)) != base
        assert model_key(build_model("Hera", 1, downtime=600.0)) != base

    def test_exotic_profiles_are_uncacheable(self):
        hera = build_model("Hera", 1)
        exotic = PatternModel(
            errors=hera.errors, costs=hera.costs, speedup=GustafsonSpeedup(0.1)
        )
        assert model_key(exotic) is None

    def test_array_valued_parameters_are_uncacheable(self):
        stacked = stack_models([build_model("Hera", 1), build_model("Hera", 2)])
        assert model_key(stacked) is None


class TestAnalyticMemo:
    def point(self, seed: float = 1.0) -> AnalyticPoint:
        return AnalyticPoint(
            P_fo=seed, T_fo=2 * seed, H_pred_fo=None,
            P_num=3 * seed, T_num=4 * seed, H_pred_num=5 * seed,
        )

    def test_roundtrip_is_exact(self, tmp_path):
        path = tmp_path / "memo.json"
        memo = AnalyticMemo(path)
        point = self.point(0.1)  # 0.1 is not exactly representable
        memo.put("k", point)
        memo.count(served=2, evaluated=1)
        memo.flush()
        reloaded = AnalyticMemo(path)
        assert reloaded.get("k") == point
        assert (reloaded.served, reloaded.evaluated) == (2, 1)
        assert len(reloaded) == 1
        assert reloaded.hit_rate == pytest.approx(2 / 3)

    def test_version_guard_discards_stale_tables(self, tmp_path):
        path = tmp_path / "memo.json"
        path.write_text(json.dumps({
            "version": ANALYTIC_VERSION + 1,
            "served": 9, "evaluated": 9,
            "entries": {"k": self.point().as_list()},
        }))
        memo = AnalyticMemo(path)
        assert len(memo) == 0
        assert memo.lookups == 0

    def test_corrupt_file_is_tolerated(self, tmp_path):
        path = tmp_path / "memo.json"
        path.write_text("{not json")
        memo = AnalyticMemo(path)
        assert len(memo) == 0
        memo.put("k", self.point())
        memo.flush()
        assert AnalyticMemo(path).get("k") == self.point()

    def test_pathless_memo_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        memo = AnalyticMemo()
        memo.put("k", self.point())
        memo.flush()
        assert list(tmp_path.iterdir()) == []

    def test_clean_flush_is_a_noop(self, tmp_path):
        path = tmp_path / "memo.json"
        memo = AnalyticMemo(path)
        memo.flush()
        assert not path.exists()


class TestEvaluateAnalytic:
    def test_intra_call_dedup(self):
        model = build_model("Hera", 1)
        memo = AnalyticMemo()
        points, evaluated, served = evaluate_analytic([model, model, model], memo)
        assert (evaluated, served) == (1, 2)
        assert points[0] == points[1] == points[2]
        assert (memo.evaluated, memo.served) == (1, 2)

    def test_memo_serves_across_calls(self):
        model = build_model("Hera", 1)
        memo = AnalyticMemo()
        first, _, _ = evaluate_analytic([model], memo)
        again, evaluated, served = evaluate_analytic([model], memo)
        assert (evaluated, served) == (0, 1)
        assert again[0] == first[0]

    def test_uncacheable_models_always_evaluate(self):
        hera = build_model("Hera", 1)
        exotic = PatternModel(
            errors=hera.errors, costs=hera.costs, speedup=GustafsonSpeedup(0.1)
        )
        memo = AnalyticMemo()
        _, evaluated, served = evaluate_analytic([exotic, exotic], memo)
        assert (evaluated, served) == (2, 0)
        assert len(memo) == 0

    def test_counters_reach_pending_report(self):
        models = [build_model("Hera", sc) for sc in (1, 2)]
        with SimulationPipeline(jobs=1) as pipe:
            pipe.current_group = "studyA"
            pipe.evaluate_analytic(models)
            pipe.evaluate_analytic(models)
            report = pipe.pending_report()
        assert report["studyA"]["analytic_evaluated"] == 2
        assert report["studyA"]["analytic_served"] == 2


def _scalar_point(model) -> AnalyticPoint:
    """One cell at a time (closed form, one-model optimum): the parity oracle."""
    try:
        fo = optimal_pattern(model)
    except ValidityError:
        fo = None
    num = optimize_allocation(model)
    return AnalyticPoint(
        P_fo=fo.processors if fo is not None else None,
        T_fo=fo.period if fo is not None else None,
        H_pred_fo=fo.overhead if fo is not None else None,
        P_num=num.processors,
        T_num=num.period,
        H_pred_num=num.overhead,
    )


def _no_sim_tables(name: str, capsys) -> str:
    """The study's ``--no-sim`` tables over every platform of its spec."""
    every = ["--all-platforms"] if REGISTRY[name].supports_all_platforms else []
    assert main([name, "--no-sim", *every]) == 0
    out = capsys.readouterr().out
    return "\n".join(l for l in out.splitlines() if not l.startswith("[done in"))


def _scalar_optimize_segments(
    model: PatternModel, P: float, k_max: int = 64
) -> SegmentedSolution:
    """The per-k Brent scan: ext-segments' ``optimize_segments`` oracle."""
    best: SegmentedSolution | None = None
    rising = 0
    for k in range(1, k_max + 1):
        seed = float(segmented_period(P, k, model.errors, model.costs))

        def objective(T: float, k=k) -> float:
            value = segmented_overhead(T, P, k, model)
            return float(value) if np.isfinite(value) else np.inf

        result = minimize_scalar(objective, bounds=(seed * 1e-3, seed * 1e3))
        candidate = SegmentedSolution(
            period=result.x,
            segments=float(k),
            overhead=result.fun,
            expected_time=float(
                expected_segmented_time(result.x, P, k, model.errors, model.costs)
            ),
        )
        if best is None or candidate.overhead < best.overhead:
            best = candidate
            rising = 0
        else:
            rising += 1
            if rising >= 3:
                break
    assert best is not None
    return best


class TestSweepEngineParity:
    def test_sweep_tables_identical_with_engine_off(self, monkeypatch, capsys):
        """Every study's --no-sim tables, batch engine vs scalar oracle.

        ext-segments solves its own grid in its declare hook: there the
        oracle is a per-platform ``optimize_allocation`` plus the per-k
        Brent ``optimize_segments``.
        """
        batch = {name: _no_sim_tables(name, capsys) for name in REGISTRY}
        def oracle(models):
            return [_scalar_point(m) for m in models]

        monkeypatch.setattr(analytic, "_evaluate_models", oracle)
        monkeypatch.setattr(
            ext_segments,
            "optimize_allocation_batch",
            lambda models: [optimize_allocation(m) for m in models],
        )
        monkeypatch.setattr(
            ext_segments, "optimize_segments", _scalar_optimize_segments
        )
        for name in REGISTRY:
            assert _no_sim_tables(name, capsys) == batch[name], name
        assert len(REGISTRY) == 10

    def test_fig4_grid_size_does_not_change_a_cell(self):
        """A 120-alpha grid solves 360 models in one batch; every cell
        must equal the same cell solved in a 3-alpha grid, bit for bit."""
        settings = SimSettings(simulate=False)
        alphas = tuple(float(a) for a in np.geomspace(1e-4, 0.5, 120))
        wide = run_study(fig4_alpha.SPEC, grid=alphas, settings=settings)
        rows = {(r.figure_id, row[0]): row for r in wide for row in r.rows}
        for start in range(40):
            narrow = run_study(fig4_alpha.SPEC, grid=alphas[start::40], settings=settings)
            for result in narrow:
                for row in result.rows:
                    assert rows[result.figure_id, row[0]] == row

    def test_ext_segments_never_calls_the_scalar_minimiser(self, monkeypatch, capsys):
        calls = []
        original = scalar.minimize_scalar

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # Patch every binding (``from .scalar import minimize_scalar``).
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "minimize_scalar", None) is original
            ):
                monkeypatch.setattr(module, "minimize_scalar", spy)
        _no_sim_tables("ext-segments", capsys)
        assert calls == []
        # The spy is live: ext-nodes' integer floor/ceil still use Brent.
        _no_sim_tables("ext-nodes", capsys)
        assert calls


class TestCacheStatsCLI:
    def test_reports_analytic_memo(self, tmp_path, capsys):
        memo = AnalyticMemo(tmp_path / "analytic_memo.json")
        memo.put("k", AnalyticPoint(None, None, None, 1.0, 2.0, 3.0))
        memo.count(served=3, evaluated=1)
        memo.flush()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[analytic] 1 memo entries, 3/4 served (hit rate 75.00%)" in out
