"""Vectorised Monte-Carlo sampler: distribution checks vs theory and DES."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AmdahlSpeedup, ErrorModel, PatternModel, ResilienceCosts
from repro.core.errors import expected_time_lost
from repro.exceptions import SimulationError
from repro.sim.batch import simulate_batch, truncated_exponential
from repro.sim.protocol import simulate_run
from repro.sim.rng import make_rng, spawn_rngs


def _model(lambda_ind: float, f: float, C=60.0, V=10.0, D=30.0) -> PatternModel:
    return PatternModel(
        errors=ErrorModel(lambda_ind=lambda_ind, fail_stop_fraction=f),
        costs=ResilienceCosts.simple(checkpoint=C, verification=V, downtime=D),
        speedup=AmdahlSpeedup(0.1),
    )


class TestTruncatedExponential:
    def test_within_window(self):
        samples = truncated_exponential(make_rng(1), lam=0.01, window=100.0, size=10_000)
        assert np.all(samples >= 0.0)
        assert np.all(samples <= 100.0)

    def test_mean_matches_expected_time_lost(self):
        lam, W = 0.02, 80.0
        samples = truncated_exponential(make_rng(2), lam, W, 200_000)
        assert samples.mean() == pytest.approx(expected_time_lost(lam, W), rel=5e-3)

    def test_tiny_rate_is_near_uniform(self):
        samples = truncated_exponential(make_rng(3), 1e-12, 10.0, 100_000)
        assert samples.mean() == pytest.approx(5.0, rel=2e-2)

    def test_empty_size(self):
        assert truncated_exponential(make_rng(1), 0.1, 10.0, 0).size == 0

    def test_rejects_zero_rate(self):
        with pytest.raises(SimulationError):
            truncated_exponential(make_rng(1), 0.0, 10.0, 5)


class TestAgainstProposition1:
    @pytest.mark.parametrize("f", [1.0, 0.0, 0.4])
    def test_mean_pattern_time(self, f):
        model = _model(2e-5, f)
        T, P = 1500.0, 20
        stats = simulate_batch(model, T, P, n_runs=400, n_patterns=100, rng=make_rng(42))
        analytic = model.expected_time(T, P)
        per_run = stats.run_times / stats.n_patterns
        sem = per_run.std(ddof=1) / np.sqrt(stats.n_runs)
        assert abs(stats.mean_pattern_time - analytic) < 4 * sem

    def test_error_free_is_deterministic(self):
        model = _model(0.0, 0.5)
        stats = simulate_batch(model, 1000.0, 10, n_runs=5, n_patterns=3, rng=make_rng(1))
        np.testing.assert_allclose(stats.run_times, 3 * 1070.0)
        assert stats.n_fail_stop == 0
        assert stats.n_recoveries == 0

    def test_high_rate_regime(self):
        # Stress: ~2.3 failures expected per attempt on average.
        model = _model(1e-3, 0.5, C=5.0, V=1.0, D=2.0)
        T, P = 100.0, 10
        stats = simulate_batch(model, T, P, n_runs=600, n_patterns=30, rng=make_rng(9))
        analytic = model.expected_time(T, P)
        per_run = stats.run_times / stats.n_patterns
        sem = per_run.std(ddof=1) / np.sqrt(stats.n_runs)
        assert abs(stats.mean_pattern_time - analytic) < 4 * sem


class TestAgainstReferenceSimulator:
    """The two simulators draw from the same distribution."""

    def test_means_agree(self):
        model = _model(3e-5, 0.5)
        T, P, n_pat = 1200.0, 25, 30
        batch = simulate_batch(model, T, P, n_runs=400, n_patterns=n_pat, rng=make_rng(5))
        des_times = np.array(
            [
                simulate_run(model, T, P, n_pat, rng).total_time
                for rng in spawn_rngs(80, seed=6)
            ]
        )
        batch_mean = batch.run_times.mean()
        des_mean = des_times.mean()
        pooled_sem = np.sqrt(
            batch.run_times.var(ddof=1) / batch.n_runs + des_times.var(ddof=1) / des_times.size
        )
        assert abs(batch_mean - des_mean) < 4 * pooled_sem

    def test_variances_same_order(self):
        model = _model(3e-5, 0.5)
        T, P, n_pat = 1200.0, 25, 30
        batch = simulate_batch(model, T, P, n_runs=300, n_patterns=n_pat, rng=make_rng(7))
        des_times = np.array(
            [
                simulate_run(model, T, P, n_pat, rng).total_time
                for rng in spawn_rngs(80, seed=8)
            ]
        )
        ratio = batch.run_times.var(ddof=1) / des_times.var(ddof=1)
        assert 0.4 < ratio < 2.5

    def test_event_rates_agree(self):
        model = _model(5e-5, 0.6)
        T, P, n_pat = 800.0, 20, 50
        batch = simulate_batch(model, T, P, n_runs=200, n_patterns=n_pat, rng=make_rng(10))
        des = [
            simulate_run(model, T, P, n_pat, rng) for rng in spawn_rngs(50, seed=11)
        ]
        batch_fs_per_pattern = batch.n_fail_stop / (batch.n_runs * n_pat)
        des_fs_per_pattern = sum(s.n_fail_stop for s in des) / (len(des) * n_pat)
        assert batch_fs_per_pattern == pytest.approx(des_fs_per_pattern, rel=0.25)
        batch_silent = batch.n_silent_detected / (batch.n_runs * n_pat)
        des_silent = sum(s.n_silent_detected for s in des) / (len(des) * n_pat)
        assert batch_silent == pytest.approx(des_silent, rel=0.25)


class TestBookkeeping:
    def test_attempts_at_least_patterns(self):
        model = _model(1e-4, 0.5)
        stats = simulate_batch(model, 500.0, 20, n_runs=50, n_patterns=40, rng=make_rng(3))
        assert stats.n_attempts >= 50 * 40
        assert stats.n_recoveries == stats.n_attempts - 50 * 40

    def test_silent_only_has_no_downtime(self):
        model = _model(1e-4, 0.0)
        stats = simulate_batch(model, 500.0, 20, n_runs=50, n_patterns=40, rng=make_rng(4))
        assert stats.n_downtimes == 0
        assert stats.n_fail_stop == 0
        assert stats.n_silent_detected > 0

    def test_reproducible(self):
        model = _model(1e-5, 0.5)
        a = simulate_batch(model, 1000.0, 20, 20, 20, make_rng(12))
        b = simulate_batch(model, 1000.0, 20, 20, 20, make_rng(12))
        np.testing.assert_array_equal(a.run_times, b.run_times)

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
            simulate_batch(_model(1e-6, 0.5), rng=make_rng(1), **kwargs)


class TestFailureBudget:
    """A chunk expecting more failed attempts than the samplers can hold
    is refused before any array is allocated, on every entry point."""

    # lambda*P*T ~ 10 expected errors per pattern: ~2.2e4 failed attempts
    # per pattern, ~2.4e8 over 200 x 50 cells.
    MODEL = _model(1e-4, 1.0, C=30.0, V=5.0, D=10.0)
    T, P = 5000.0, 20.0

    def test_expected_failures_formula(self):
        from repro.sim.batch import MAX_CHUNK_ELEMENTS, PatternRates, check_failure_budget

        rates = PatternRates.from_model(self.MODEL, self.T, self.P)
        assert 1e4 * (1 / rates.p_success - 1) > MAX_CHUNK_ELEMENTS
        with pytest.raises(SimulationError, match=r"expects 2.36e\+08 failed attempts"):
            check_failure_budget(rates, 10_000)
        check_failure_budget(rates, 10)  # ~2.4e5 expected: within budget

    def test_zero_success_probability_is_refused(self):
        from repro.sim.batch import PatternRates, check_failure_budget

        rates = PatternRates.from_model(_model(1.0, 0.5), 1e6, 1e6)
        assert rates.p_success == 0.0
        with pytest.raises(SimulationError, match="expects inf failed attempts"):
            check_failure_budget(rates, 1)

    def test_simulate_batch_refuses(self):
        with pytest.raises(SimulationError, match="failed attempts"):
            simulate_batch(self.MODEL, self.T, self.P, 200, 50, make_rng(1))

    def test_simulate_vectorized_refuses(self):
        from repro.sim.vectorized import simulate_vectorized

        with pytest.raises(SimulationError, match="failed attempts"):
            simulate_vectorized(self.MODEL, self.T, self.P, 200, 50, seed=1)

    @pytest.mark.parametrize("method", ["batch", "vectorized"])
    def test_request_jobs_refuses_at_planning(self, method):
        from repro.sim.plan import SimRequest, request_jobs

        request = SimRequest(self.MODEL, self.T, self.P, 200, 50, 1, method)
        with pytest.raises(SimulationError, match="failed attempts"):
            request_jobs(request)

    def test_paper_budget_near_the_optimum_is_accepted(self):
        from repro.sim.plan import SimRequest, request_jobs

        # 500 x 500 cells at p_success ~0.6: ~1.7e5 expected failures.
        request = SimRequest(self.MODEL, 50.0, self.P, 500, 500, 1, "vectorized")
        assert request_jobs(request)
