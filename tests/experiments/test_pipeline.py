"""Determinism of the fused simulation pipeline.

The contract: for a fixed seed, the pipeline produces figure tables
**bit-identical** to the sequential per-point path — whatever the job
count, and whether the disk cache is cold, warm, or absent.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.experiments import (
    ext_nodes,
    ext_weibull,
    fig2_scenarios,
    fig3_processors,
    fig4_alpha,
    fig5_error_rate,
    fig6_alpha_zero,
    fig7_downtime,
)
from repro.experiments.common import SimSettings
from repro.experiments.pipeline import Deferred, SimulationPipeline, materialize
from repro.experiments.spec import run_study
from repro.exceptions import SimulationError
from repro.platforms.scenarios import build_model
from repro.sim.montecarlo import Fidelity, simulate_overhead

#: Tiny but non-trivial budget: every point still samples real failures.
SETTINGS = SimSettings(fidelity=Fidelity(n_runs=8, n_patterns=12), seed=42)


def _tiny_fig_runs(pipeline=None):
    """One cheap invocation of every simulation-heavy figure module."""
    run = partial(run_study, settings=SETTINGS, pipeline=pipeline)
    return [
        run(fig2_scenarios.SPEC, scenarios=(1, 3)),
        run(fig3_processors.SPEC, scenarios=(1,), grid=np.array([256.0, 512.0])),
        run(fig4_alpha.SPEC, scenarios=(1,), grid=(0.1, 0.01)),
        run(fig5_error_rate.SPEC, scenarios=(1,), grid=np.array([1e-10, 1e-9])),
        run(fig6_alpha_zero.SPEC, scenarios=(1,), grid=np.array([1e-10, 1e-9])),
        run(fig7_downtime.SPEC, scenarios=(1,), grid=np.array([0.0, 3600.0])),
        run(ext_weibull.SPEC, scenarios=(1,), options={"shapes": (1.0,)}),
        run(ext_nodes.SPEC, scenarios=(1,)),
    ]


def _sequential_mean(model, T, P):
    """The single-point path at ``SETTINGS``: one ``simulate_overhead`` call."""
    n_runs, n_patterns = SETTINGS.budget()
    return simulate_overhead(
        model, T, P, n_runs=n_runs, n_patterns=n_patterns,
        seed=SETTINGS.seed, method=SETTINGS.method,
    ).mean


@pytest.fixture(scope="module")
def serial_tables():
    """Reference: every figure on a private serial pipeline."""
    return _tiny_fig_runs()


class TestTableDeterminism:
    def test_shared_pipeline_jobs2_is_bit_identical(self, serial_tables):
        with SimulationPipeline(jobs=2) as pipe:
            assert _tiny_fig_runs(pipe) == serial_tables

    def test_cold_then_warm_cache_is_bit_identical(self, serial_tables, tmp_path):
        with SimulationPipeline(jobs=2, cache_dir=tmp_path) as pipe:
            cold = _tiny_fig_runs(pipe)
            assert pipe.cache.misses > 0 and pipe.cache.hits == 0
        with SimulationPipeline(jobs=2, cache_dir=tmp_path) as pipe:
            warm = _tiny_fig_runs(pipe)
            assert pipe.cache.misses == 0 and pipe.cache.hits > 0
        assert cold == serial_tables
        assert warm == serial_tables

    def test_repeated_run_on_one_pipeline_hits_the_memo(self):
        with SimulationPipeline(jobs=1) as pipe:
            first = run_study(
                fig2_scenarios.SPEC, scenarios=(1,), settings=SETTINGS, pipeline=pipe
            )
            computed = pipe.metrics.value("scheduler_jobs")
            second = run_study(
                fig2_scenarios.SPEC, scenarios=(1,), settings=SETTINGS, pipeline=pipe
            )
            assert second == first
            assert pipe.metrics.value("scheduler_jobs") == computed  # no recomputation


class TestPointDeterminism:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_pipeline_matches_simulate_overhead(self, jobs):
        points = [
            (build_model("Hera", sc), T, P)
            for sc in (1, 3)
            for T, P in ((6000.0, 256.0), (4000.0, 512.0))
        ]
        sequential = [_sequential_mean(m, T, P) for m, T, P in points]
        with SimulationPipeline(jobs=jobs) as pipe:
            deferred = [pipe.simulate_mean(m, T, P, SETTINGS) for m, T, P in points]
            pipe.resolve()
        assert [d.value for d in deferred] == sequential

    def test_duplicate_points_share_one_computation(self):
        model = build_model("Hera", 1)
        with SimulationPipeline(jobs=1) as pipe:
            a = pipe.simulate_mean(model, 6000.0, 256.0, SETTINGS)
            b = pipe.simulate_mean(model, 6000.0, 256.0, SETTINGS)
            assert pipe.pending_points == 2
            pipe.resolve()
            assert a.value == b.value
            assert pipe.metrics.value("scheduler_jobs") == 1

    def test_each_key_is_hashed_once(self, monkeypatch):
        # A resume reads pending_keys() and then resolves: both share
        # one request_key call per point.
        import repro.experiments.pipeline as pipeline_mod
        import repro.sim.plan as plan_mod

        calls = []
        real = plan_mod.request_key

        def counting(request):
            calls.append(request)
            return real(request)

        monkeypatch.setattr(pipeline_mod, "request_key", counting)
        monkeypatch.setattr(plan_mod, "request_key", counting)
        points = [(6000.0, 256.0), (4000.0, 512.0), (3000.0, 1024.0)]
        with SimulationPipeline(jobs=1) as pipe:
            deferred = [
                pipe.simulate_mean(build_model("Hera", 1), T, P, SETTINGS)
                for T, P in points
            ]
            keys = pipe.pending_keys()
            pipe.pending_report()
            pipe.resolve()
        assert len(calls) == len(set(keys)) == len(points)
        assert [d.value for d in deferred] == [
            _sequential_mean(build_model("Hera", 1), T, P) for T, P in points
        ]


class TestDefaultPipeline:
    def test_default_pipeline_is_serial(self):
        """What ``run_study`` creates when no pipeline is passed in."""
        from repro.sim.executors import SerialExecutor
        from repro.sim.scheduler import RetryPolicy

        with SimulationPipeline() as pipe:
            assert isinstance(pipe.executor, SerialExecutor)
            assert pipe.cache is None
            assert pipe.retry == RetryPolicy()


class TestDeferredSemantics:
    def test_simulate_disabled_resolves_immediately(self):
        model = build_model("Hera", 1)
        pipe = SimulationPipeline()
        d = pipe.simulate_mean(model, 6000.0, 256.0, SimSettings(simulate=False))
        assert d.ready and d.value is None

    def test_reading_pending_deferred_raises(self):
        model = build_model("Hera", 1)
        pipe = SimulationPipeline()
        d = pipe.simulate_mean(model, 6000.0, 256.0, SETTINGS)
        with pytest.raises(SimulationError):
            _ = d.value

    def test_materialize_walks_nested_rows(self):
        d = Deferred.resolved(1.5)
        rows = [(1, d, None), {"x": [d, (d,)]}]
        assert materialize(rows) == [(1, 1.5, None), {"x": [1.5, (1.5,)]}]

    def test_no_sim_figure_has_no_pending_work(self):
        with SimulationPipeline(jobs=1) as pipe:
            results = run_study(
                fig2_scenarios.SPEC,
                scenarios=(1,),
                settings=SimSettings(simulate=False),
                pipeline=pipe,
            )
            assert pipe.metrics.labeled("points") == []
        assert results[0].column("H_optimal_sim") == [None]


class TestOnRoundStagingLoop:
    """resolve(on_round=...) keeps scheduling while staging continues."""

    def test_on_round_stages_into_the_same_resolve_call(self):
        model = build_model("Hera", 1)
        with SimulationPipeline(jobs=1) as pipe:
            first = pipe.simulate_mean(model, 6000.0, 256.0, SETTINGS)
            staged = []

            def on_round():
                if not first.ready:
                    return False
                if not staged:
                    staged.append(
                        pipe.simulate_mean(model, 4000.0, 512.0, SETTINGS)
                    )
                    return True
                return False  # second round done: stop the loop

            pipe.resolve(on_round=on_round)
        assert first.ready and staged[0].ready
        assert staged[0].value == _sequential_mean(model, 4000.0, 512.0)

    def test_on_round_safety_net_runs_without_pending_points(self):
        """Cache-/analytic-served rounds fire no events; on_round still
        gets its say, and a falsy return ends the loop."""
        calls = []
        with SimulationPipeline(jobs=1) as pipe:
            pipe.resolve(on_round=lambda: calls.append(1) and False)
        assert calls == [1]

    def test_without_on_round_single_round_behaviour_is_unchanged(self):
        model = build_model("Hera", 1)
        with SimulationPipeline(jobs=1) as pipe:
            d = pipe.simulate_mean(model, 6000.0, 256.0, SETTINGS)
            pipe.resolve()
            late = pipe.simulate_mean(model, 4000.0, 512.0, SETTINGS)
        assert d.ready and not late.ready
