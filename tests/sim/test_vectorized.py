"""Aggregated whole-budget backend: equivalence, chunking, dispatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AmdahlSpeedup, ErrorModel, PatternModel, ResilienceCosts
from repro.exceptions import SimulationError
import repro.sim.batch as batch_mod
from repro.sim.batch import (
    PatternRates,
    merge_batch_stats,
    plan_chunks,
    simulate_batch,
)
from repro.sim.montecarlo import simulate_overhead
from repro.sim.plan import SimRequest, request_jobs, run_job
from repro.sim.rng import make_rng
from repro.sim.vectorized import simulate_chunk, simulate_vectorized


def _model(lambda_ind: float, f: float, C=60.0, V=10.0, D=30.0) -> PatternModel:
    return PatternModel(
        errors=ErrorModel(lambda_ind=lambda_ind, fail_stop_fraction=f),
        costs=ResilienceCosts.simple(checkpoint=C, verification=V, downtime=D),
        speedup=AmdahlSpeedup(0.1),
    )


class TestAgainstProposition1:
    @pytest.mark.parametrize("f", [1.0, 0.0, 0.4])
    def test_mean_pattern_time(self, f):
        model = _model(2e-5, f)
        T, P = 1500.0, 20
        stats = simulate_vectorized(model, T, P, n_runs=400, n_patterns=100, seed=42)
        analytic = model.expected_time(T, P)
        per_run = stats.run_times / stats.n_patterns
        sem = per_run.std(ddof=1) / np.sqrt(stats.n_runs)
        assert abs(stats.mean_pattern_time - analytic) < 4 * sem

    def test_error_free_is_deterministic(self):
        model = _model(0.0, 0.5)
        stats = simulate_vectorized(model, 1000.0, 10, n_runs=5, n_patterns=3, seed=1)
        np.testing.assert_allclose(stats.run_times, 3 * 1070.0)
        assert stats.n_fail_stop == 0
        assert stats.n_recoveries == 0

    @pytest.mark.parametrize("lambda_ind", [1e-9, 1e-11, 1e-12])
    def test_silent_only_tiny_rates(self, lambda_ind):
        # Regression: with f=0 the conditional outcome probability of a
        # silent-detected failure is exactly 1; float rounding must not
        # push the multinomial pvals out of domain.
        model = _model(lambda_ind, 0.0)
        stats = simulate_vectorized(model, 1000.0, 1.0, n_runs=500, n_patterns=500, seed=1)
        assert stats.n_fail_stop == 0
        assert stats.n_silent_detected == stats.n_recoveries

    def test_high_rate_regime(self):
        model = _model(1e-3, 0.5, C=5.0, V=1.0, D=2.0)
        T, P = 100.0, 10
        stats = simulate_vectorized(model, T, P, n_runs=600, n_patterns=30, seed=9)
        analytic = model.expected_time(T, P)
        per_run = stats.run_times / stats.n_patterns
        sem = per_run.std(ddof=1) / np.sqrt(stats.n_runs)
        assert abs(stats.mean_pattern_time - analytic) < 4 * sem


class TestAgainstReferenceBackends:
    """Same model + seed: the vectorized mean must sit inside the
    event-level loop's confidence interval (the acceptance bar),
    and agree with the batch sampler within pooled sampling error."""

    def test_mean_inside_des_ci_fig5_workload(self, hera_sc1):
        # Figure-5-style point: Hera scenario 1 at the numerical optimum.
        T, P = 6554.9, 207.0
        des = simulate_overhead(
            hera_sc1, T, P, n_runs=40, n_patterns=60, seed=5, method="des"
        )
        vec = simulate_overhead(
            hera_sc1, T, P, n_runs=500, n_patterns=500, seed=5, method="vectorized"
        )
        assert des.contains(vec.mean)

    def test_agrees_with_batch(self):
        model = _model(3e-5, 0.5)
        T, P = 1200.0, 25
        batch = simulate_batch(model, T, P, 400, 50, make_rng(6))
        vec = simulate_vectorized(model, T, P, 400, 50, seed=7)
        pooled = np.sqrt(
            batch.run_times.var(ddof=1) / batch.n_runs
            + vec.run_times.var(ddof=1) / vec.n_runs
        )
        assert abs(batch.run_times.mean() - vec.run_times.mean()) < 4 * pooled

    def test_event_rates_agree_with_batch(self):
        model = _model(5e-5, 0.6)
        T, P, n_pat = 800.0, 20, 50
        batch = simulate_batch(model, T, P, 300, n_pat, make_rng(10))
        vec = simulate_vectorized(model, T, P, 300, n_pat, seed=11)
        assert vec.n_fail_stop / vec.n_attempts == pytest.approx(
            batch.n_fail_stop / batch.n_attempts, rel=0.25
        )
        assert vec.n_silent_detected / vec.n_attempts == pytest.approx(
            batch.n_silent_detected / batch.n_attempts, rel=0.25
        )


class TestChunkingAndDispatch:
    def test_reproducible(self):
        model = _model(1e-5, 0.5)
        a = simulate_vectorized(model, 1000.0, 20, 20, 20, seed=12)
        b = simulate_vectorized(model, 1000.0, 20, 20, 20, seed=12)
        np.testing.assert_array_equal(a.run_times, b.run_times)

    def test_chunked_mean_unbiased(self, monkeypatch):
        model = _model(2e-5, 0.5)
        T, P = 1500.0, 20
        monkeypatch.setattr(batch_mod, "MAX_CHUNK_ELEMENTS", 37 * 40)
        stats = simulate_vectorized(model, T, P, n_runs=300, n_patterns=40, seed=8)
        assert stats.n_runs == 300
        analytic = model.expected_time(T, P)
        per_run = stats.run_times / stats.n_patterns
        sem = per_run.std(ddof=1) / np.sqrt(stats.n_runs)
        assert abs(stats.mean_pattern_time - analytic) < 4 * sem

    def test_plan_chunks(self):
        assert plan_chunks(10, 4) == [4, 4, 2]
        assert plan_chunks(8, 4) == [4, 4]
        assert plan_chunks(3, 100) == [3]
        with pytest.raises(SimulationError):
            plan_chunks(0, 4)
        with pytest.raises(SimulationError):
            plan_chunks(4, 0)

    def test_merge_rejects_mismatched_patterns(self):
        model = _model(1e-5, 0.5)
        a = simulate_vectorized(model, 1000.0, 20, 5, 10, seed=1)
        b = simulate_vectorized(model, 1000.0, 20, 5, 20, seed=1)
        with pytest.raises(SimulationError):
            merge_batch_stats([a, b])
        with pytest.raises(SimulationError):
            merge_batch_stats([])

    def test_batch_chunked_matches_distribution(self, monkeypatch):
        model = _model(2e-5, 0.5)
        T, P = 1500.0, 20
        monkeypatch.setattr(batch_mod, "MAX_CHUNK_ELEMENTS", 64 * 50)
        jobs = request_jobs(SimRequest(model, T, P, 200, 50, seed=4, method="batch"))
        assert len(jobs) == 4  # 64 + 64 + 64 + 8 runs
        stats = merge_batch_stats([run_job(job) for job in jobs])
        assert stats.n_runs == 200
        analytic = model.expected_time(T, P)
        per_run = stats.run_times / stats.n_patterns
        sem = per_run.std(ddof=1) / np.sqrt(stats.n_runs)
        assert abs(stats.mean_pattern_time - analytic) < 4 * sem


class TestBookkeeping:
    def test_attempts_at_least_patterns(self):
        model = _model(1e-4, 0.5)
        stats = simulate_vectorized(model, 500.0, 20, n_runs=50, n_patterns=40, seed=3)
        assert stats.n_attempts >= 50 * 40
        assert stats.n_recoveries == stats.n_attempts - 50 * 40

    def test_silent_only_has_no_downtime(self):
        model = _model(1e-4, 0.0)
        stats = simulate_vectorized(model, 500.0, 20, n_runs=50, n_patterns=40, seed=4)
        assert stats.n_downtimes == 0
        assert stats.n_fail_stop == 0
        assert stats.n_silent_detected > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"T": 0.0, "P": 10, "n_runs": 1, "n_patterns": 1},
            {"T": 10.0, "P": 0, "n_runs": 1, "n_patterns": 1},
            {"T": 10.0, "P": 10, "n_runs": 0, "n_patterns": 1},
            {"T": 10.0, "P": 10, "n_runs": 1, "n_patterns": 0},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(SimulationError):
            simulate_vectorized(_model(1e-6, 0.5), seed=1, **kwargs)

    def test_simulate_chunk_validates(self):
        rates = PatternRates.from_model(_model(1e-6, 0.5), 100.0, 10.0)
        with pytest.raises(SimulationError):
            simulate_chunk(rates, 0, 5, 1)
