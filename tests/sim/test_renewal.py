"""The renewal-stream protocol loop (exponential equivalence + Weibull)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AmdahlSpeedup, ErrorModel, PatternModel, ResilienceCosts
from repro.exceptions import SimulationError
from repro.sim.protocol import simulate_run
from repro.sim.rng import make_rng, spawn_rngs
from repro.sim.streams import WeibullArrivals


def _model(lambda_ind=3e-5, f=0.5) -> PatternModel:
    return PatternModel(
        errors=ErrorModel(lambda_ind=lambda_ind, fail_stop_fraction=f),
        costs=ResilienceCosts.simple(checkpoint=60.0, verification=10.0, downtime=30.0),
        speedup=AmdahlSpeedup(0.1),
    )


class TestExponentialEquivalence:
    def test_mean_matches_proposition1(self):
        model = _model()
        T, P = 1500.0, 20
        times = np.array(
            [
                simulate_run(model, T, P, 40, rng).total_time / 40
                for rng in spawn_rngs(60, seed=21)
            ]
        )
        analytic = model.expected_time(T, P)
        sem = times.std(ddof=1) / np.sqrt(times.size)
        assert abs(times.mean() - analytic) < 4 * sem

    def test_error_free(self):
        model = _model(lambda_ind=0.0)
        stats = simulate_run(model, 1000.0, 10, 5, make_rng(1))
        assert stats.total_time == pytest.approx(5 * 1070.0)
        assert stats.n_fail_stop == 0

    def test_silent_only(self):
        model = _model(lambda_ind=1e-4, f=0.0)
        stats = simulate_run(model, 1000.0, 20, 30, make_rng(2))
        assert stats.n_fail_stop == 0
        assert stats.n_silent_detected > 0
        assert stats.n_downtimes == 0

    def test_breakdown_sums(self):
        model = _model()
        stats = simulate_run(model, 1500.0, 30, 40, make_rng(3))
        assert stats.breakdown.total == pytest.approx(stats.total_time, rel=1e-12)

    def test_reproducible(self):
        model = _model()
        a = simulate_run(model, 1000.0, 20, 20, make_rng(4))
        b = simulate_run(model, 1000.0, 20, 20, make_rng(4))
        assert a.total_time == b.total_time


class TestWeibull:
    def test_shape_one_matches_exponential_mean(self):
        model = _model()
        T, P = 1500.0, 20
        lam_f = model.errors.fail_stop_rate(P)
        w = WeibullArrivals.from_mean(1.0, 1.0 / lam_f)
        times = np.array(
            [
                simulate_run(model, T, P, 40, rng, fail_stop=w).total_time / 40
                for rng in spawn_rngs(60, seed=31)
            ]
        )
        analytic = model.expected_time(T, P)
        sem = times.std(ddof=1) / np.sqrt(times.size)
        assert abs(times.mean() - analytic) < 4 * sem

    def test_fail_stop_count_preserved_by_matching_mean(self):
        # Same MTBF -> comparable long-run failure counts regardless of
        # shape (renewal reward theorem), though clustering differs.
        model = _model(f=1.0)
        T, P = 1500.0, 20
        lam_f = model.errors.fail_stop_rate(P)

        def total_failures(shape, seed):
            w = WeibullArrivals.from_mean(shape, 1.0 / lam_f)
            return sum(
                simulate_run(model, T, P, 50, rng, fail_stop=w).n_fail_stop
                for rng in spawn_rngs(30, seed=seed)
            )

        n_exp = total_failures(1.0, 41)
        n_weib = total_failures(0.7, 42)
        assert n_weib == pytest.approx(n_exp, rel=0.35)

    def test_bursty_failures_change_the_picture_at_high_rate(self):
        # Shape 0.7 at equal MTBF clusters failures.  For a restart
        # protocol in a failure-dominated regime this *helps* the mean
        # (clustered failures strike early in a retry, losing little
        # work, while the long gaps complete many patterns) but makes
        # runs more dispersed.  Lock in both effects: the exponential
        # assumption is conservative for the mean here, and the
        # run-to-run variability grows.
        model = _model(f=1.0, lambda_ind=2e-4)
        T, P = 800.0, 20
        lam_f = model.errors.fail_stop_rate(P)
        w = WeibullArrivals.from_mean(0.7, 1.0 / lam_f)
        exp_times = np.array(
            [
                simulate_run(model, T, P, 60, rng).total_time
                for rng in spawn_rngs(80, seed=51)
            ]
        )
        weib_times = np.array(
            [
                simulate_run(model, T, P, 60, rng, fail_stop=w).total_time
                for rng in spawn_rngs(80, seed=52)
            ]
        )
        assert weib_times.mean() < 0.8 * exp_times.mean()
        cv_exp = exp_times.std() / exp_times.mean()
        cv_weib = weib_times.std() / weib_times.mean()
        assert cv_weib > cv_exp

    def test_rejects_bad_pattern_count(self):
        with pytest.raises(SimulationError):
            simulate_run(_model(), 100.0, 10, 0, make_rng(1))
