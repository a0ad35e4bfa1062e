"""Fail-stop-only projection and the price of ignoring silent errors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    failstop_projection,
    naive_pattern,
    price_of_ignoring_silent,
)
from repro.core import optimal_pattern, optimal_period


class TestProjection:
    def test_fail_stop_rate_preserved(self, hera_sc1):
        projected = failstop_projection(hera_sc1)
        P = 256.0
        assert projected.errors.fail_stop_rate(P) == pytest.approx(
            hera_sc1.errors.fail_stop_rate(P)
        )
        assert projected.errors.silent_rate(P) == 0.0

    def test_verification_dropped_by_default(self, hera_sc1):
        projected = failstop_projection(hera_sc1)
        assert projected.costs.verification_cost(256.0) == 0.0

    def test_verification_kept_on_request(self, hera_sc1):
        projected = failstop_projection(hera_sc1, keep_verification=True)
        assert projected.costs.verification_cost(256.0) == pytest.approx(
            hera_sc1.costs.verification_cost(256.0)
        )

    def test_expected_time_cheaper_without_silent_errors(self, hera_sc1):
        projected = failstop_projection(hera_sc1, keep_verification=True)
        T, P = 6000.0, 256.0
        assert projected.expected_time(T, P) < hera_sc1.expected_time(T, P)

    def test_young_like_period(self, hera_sc1):
        # With silent errors removed and V = 0: T* = sqrt(2 C_P / lam_f).
        P = 256.0
        lam_f = hera_sc1.errors.fail_stop_rate(P)
        C = hera_sc1.costs.checkpoint_cost(P)
        projected = failstop_projection(hera_sc1)
        assert optimal_period(P, projected.errors, projected.costs) == pytest.approx(
            np.sqrt(2.0 * C / lam_f)
        )


class TestNaiveDeployment:
    def test_naive_period_longer(self, hera_sc1):
        # Ignoring silent errors under-counts the rate, so the naive
        # period is longer than the informed one.
        naive = naive_pattern(hera_sc1)
        informed = optimal_pattern(hera_sc1)
        assert naive.period > informed.period

    def test_naive_enrolls_more_processors(self, hera_sc1):
        naive = naive_pattern(hera_sc1)
        informed = optimal_pattern(hera_sc1)
        assert naive.processors > informed.processors

    def test_penalty_at_least_one(self, hera_sc1):
        deployment = price_of_ignoring_silent(hera_sc1)
        assert deployment.penalty >= 1.0

    def test_penalty_significant_on_silent_heavy_platform(self):
        # Atlas has s = 0.9375: ignoring silent errors mis-sizes badly.
        from repro.platforms import build_model

        deployment = price_of_ignoring_silent(build_model("Atlas", 1))
        assert deployment.penalty > 1.005

    def test_true_overhead_exceeds_informed(self, hera_sc1):
        deployment = price_of_ignoring_silent(hera_sc1)
        assert deployment.true_overhead > deployment.optimal_overhead

    def test_consistency_of_reported_overheads(self, hera_sc1):
        deployment = price_of_ignoring_silent(hera_sc1)
        naive = deployment.naive_solution
        assert deployment.true_overhead == pytest.approx(
            float(hera_sc1.overhead(naive.period, naive.processors))
        )


class TestTheorem1Specialisation:
    def test_optimal_period_halves_effective_rate(self, hera_sc1):
        # For the projected model (f = 1), Theorem 1's rate is lambda_f/2.
        projected = failstop_projection(hera_sc1, keep_verification=True)
        P = 256.0
        lam_f = projected.errors.fail_stop_rate(P)
        combined = projected.costs.combined_cost(P)
        assert optimal_period(P, projected.errors, projected.costs) == pytest.approx(
            np.sqrt(combined / (lam_f / 2.0))
        )
