"""The event-level protocol loop: exponential paths and Proposition 1."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AmdahlSpeedup, ErrorModel, PatternModel, ResilienceCosts
from repro.exceptions import SimulationError
from repro.sim.protocol import simulate_run
from repro.sim.rng import make_rng


def _model(lambda_ind: float, f: float, C=60.0, V=10.0, D=30.0) -> PatternModel:
    return PatternModel(
        errors=ErrorModel(lambda_ind=lambda_ind, fail_stop_fraction=f),
        costs=ResilienceCosts.simple(checkpoint=C, verification=V, downtime=D),
        speedup=AmdahlSpeedup(0.1),
    )


class TestDeterministicPaths:
    def test_error_free_run_time(self):
        model = _model(0.0, 0.5)
        stats = simulate_run(model, T=1000.0, P=10, n_patterns=5, rng=make_rng(1))
        assert stats.total_time == pytest.approx(5 * 1070.0)
        assert stats.n_attempts == 5
        assert stats.n_fail_stop == 0
        assert stats.n_silent_detected == 0
        assert stats.n_recoveries == 0

    def test_error_free_breakdown(self):
        model = _model(0.0, 0.5)
        stats = simulate_run(model, T=1000.0, P=10, n_patterns=4, rng=make_rng(1))
        assert stats.breakdown.useful_work == pytest.approx(4000.0)
        assert stats.breakdown.verification == pytest.approx(40.0)
        assert stats.breakdown.checkpoint == pytest.approx(240.0)
        assert stats.breakdown.total == pytest.approx(stats.total_time)

    def test_certain_silent_error_loop_terminates(self):
        # Silent rate enormous: every attempt is hit, but the simulator
        # still terminates because attempts are independently retried...
        # with rate*T ~ 4, success probability e^-4 ~ 1.8% per attempt.
        model = _model(4e-4, 0.0)
        stats = simulate_run(model, T=1000.0, P=10, n_patterns=3, rng=make_rng(2))
        assert stats.n_patterns == 3
        assert stats.n_fail_stop == 0
        assert stats.n_silent_detected > 0
        # Silent recoveries pay no downtime.
        assert stats.n_downtimes == 0

    def test_breakdown_sums_to_total_with_errors(self):
        model = _model(1e-5, 0.5)
        stats = simulate_run(model, T=2000.0, P=50, n_patterns=50, rng=make_rng(3))
        assert stats.breakdown.total == pytest.approx(stats.total_time, rel=1e-12)

    def test_pattern_count_always_reached(self):
        model = _model(5e-5, 0.7)
        stats = simulate_run(model, T=500.0, P=20, n_patterns=25, rng=make_rng(4))
        assert stats.n_patterns == 25
        assert stats.n_attempts >= 25

    def test_masked_silent_errors_counted_separately(self):
        # With heavy fail-stop and silent rates, some silent strikes are
        # masked: struck >= detected.
        model = _model(2e-4, 0.5)
        stats = simulate_run(model, T=2000.0, P=10, n_patterns=30, rng=make_rng(5))
        assert stats.n_silent_struck >= stats.n_silent_detected


class TestStatisticalAgreement:
    def test_mean_matches_proposition1_failstop_only(self):
        model = _model(2e-5, 1.0)
        T, P = 1500.0, 20
        times = [
            simulate_run(model, T, P, n_patterns=40, rng=make_rng(100 + i)).total_time / 40
            for i in range(60)
        ]
        mean = np.mean(times)
        sem = np.std(times, ddof=1) / np.sqrt(len(times))
        analytic = model.expected_time(T, P)
        assert abs(mean - analytic) < 4 * sem

    def test_mean_matches_proposition1_silent_only(self):
        model = _model(2e-5, 0.0)
        T, P = 1500.0, 20
        times = [
            simulate_run(model, T, P, n_patterns=40, rng=make_rng(200 + i)).total_time / 40
            for i in range(60)
        ]
        mean = np.mean(times)
        sem = np.std(times, ddof=1) / np.sqrt(len(times))
        analytic = model.expected_time(T, P)
        assert abs(mean - analytic) < 4 * sem

    def test_mean_matches_proposition1_mixed(self):
        model = _model(2e-5, 0.4)
        T, P = 1500.0, 20
        times = [
            simulate_run(model, T, P, n_patterns=40, rng=make_rng(300 + i)).total_time / 40
            for i in range(60)
        ]
        mean = np.mean(times)
        sem = np.std(times, ddof=1) / np.sqrt(len(times))
        analytic = model.expected_time(T, P)
        assert abs(mean - analytic) < 4 * sem

    def test_fail_stop_count_matches_rate(self):
        # Fail-stop events per unit of exposed time ~ lambda_f.
        model = _model(1e-5, 1.0, D=0.0)
        T, P = 2000.0, 30
        stats = simulate_run(model, T, P, n_patterns=300, rng=make_rng(6))
        lam_f = model.errors.fail_stop_rate(P)
        exposed = stats.total_time - stats.breakdown.downtime
        expected = lam_f * exposed
        assert stats.n_fail_stop == pytest.approx(expected, rel=0.2)


class TestValidation:
    def test_rejects_bad_period(self):
        with pytest.raises(SimulationError):
            simulate_run(_model(1e-6, 0.5), T=0.0, P=10, n_patterns=1, rng=make_rng(1))

    def test_rejects_bad_processors(self):
        with pytest.raises(SimulationError):
            simulate_run(_model(1e-6, 0.5), T=10.0, P=0, n_patterns=1, rng=make_rng(1))

    def test_rejects_bad_pattern_count(self):
        with pytest.raises(SimulationError):
            simulate_run(_model(1e-6, 0.5), T=10.0, P=10, n_patterns=0, rng=make_rng(1))

    def test_reproducible_with_same_seed(self):
        model = _model(1e-5, 0.5)
        a = simulate_run(model, 1000.0, 20, 20, make_rng(11))
        b = simulate_run(model, 1000.0, 20, 20, make_rng(11))
        assert a.total_time == b.total_time
        assert a.n_fail_stop == b.n_fail_stop
