"""End-to-end integration tests reproducing the paper's headline claims.

Each test runs the full pipeline — platform catalog → scenario
projection → optimisation → simulation — and asserts the quantitative
*shape* results recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    build_model,
    optimal_pattern,
    optimize_allocation,
    simulate_overhead,
)
from repro.analysis.asymptotics import fit_loglog_slope


class TestHeadlineOrders:
    """'A striking result': P* ~ lambda^-1/4 (linear C) vs lambda^-1/3 (bounded)."""

    def test_quarter_order_for_linear_checkpoint_cost(self):
        lams = np.logspace(-12, -8, 7)
        P_num = [
            optimize_allocation(build_model("Hera", 1, lambda_ind=float(l))).processors
            for l in lams
        ]
        fit = fit_loglog_slope(lams, P_num)
        assert fit.matches(-0.25, tol=0.02)
        assert fit.r_squared > 0.999

    def test_third_order_for_bounded_checkpoint_cost(self):
        lams = np.logspace(-12, -8, 7)
        P_num = [
            optimize_allocation(build_model("Hera", 3, lambda_ind=float(l))).processors
            for l in lams
        ]
        fit = fit_loglog_slope(lams, P_num)
        assert fit.matches(-1.0 / 3.0, tol=0.02)

    def test_period_orders(self):
        lams = np.logspace(-12, -8, 7)
        T1 = [
            optimize_allocation(build_model("Hera", 1, lambda_ind=float(l))).period
            for l in lams
        ]
        T3 = [
            optimize_allocation(build_model("Hera", 3, lambda_ind=float(l))).period
            for l in lams
        ]
        assert fit_loglog_slope(lams, T1).matches(-0.5, tol=0.02)
        assert fit_loglog_slope(lams, T3).matches(-1.0 / 3.0, tol=0.02)


class TestFiniteOptimum:
    """The paper's core message: on failure-prone platforms P* is finite."""

    @pytest.mark.parametrize("platform", ["Hera", "Atlas", "Coastal", "CoastalSSD"])
    def test_finite_interior_optimum_everywhere(self, platform):
        for scenario in (1, 3):
            result = optimize_allocation(build_model(platform, scenario))
            assert result.interior
            assert 1.0 < result.processors < 1e7

    def test_overhead_beyond_optimum_degrades(self):
        model = build_model("Hera", 1)
        opt = optimize_allocation(model)
        from repro.optimize import optimize_period

        # 10x over-enrollment visibly hurts.
        over = optimize_period(model, opt.processors * 10.0)
        assert over.overhead > opt.overhead * 1.05


class TestFirstOrderAccuracy:
    """First-order formulas vs the exact optimum (Figure 2/3 claims)."""

    @pytest.mark.parametrize("platform", ["Hera", "Atlas", "Coastal", "CoastalSSD"])
    @pytest.mark.parametrize("scenario", [1, 2, 3, 4])
    def test_prediction_gap_small(self, platform, scenario):
        model = build_model(platform, scenario)
        fo = optimal_pattern(model)
        num = optimize_allocation(model)
        # Overhead of deploying the first-order pattern vs the true optimum:
        # < 1% everywhere except CoastalSSD/scenario 2 (the most expensive
        # costs of Table II push the truncation error to ~1.9%).
        H_fo = float(model.overhead(fo.period, fo.processors))
        bound = 0.02 if (platform, scenario) == ("CoastalSSD", 2) else 0.01
        assert (H_fo - num.overhead) / num.overhead < bound

    def test_scenario5_gap_larger_but_bounded(self):
        # Paper: scenario 5's first-order solution costs up to ~5% more.
        model = build_model("Hera", 5)
        fo = optimal_pattern(model)
        num = optimize_allocation(model)
        H_fo = float(model.overhead(fo.period, fo.processors))
        gap = (H_fo - num.overhead) / num.overhead
        assert 0.005 < gap < 0.2

    def test_first_order_solutions_are_in_validity_regime(self):
        for scenario in (1, 2, 3, 4):
            model = build_model("Hera", scenario)
            sol = optimal_pattern(model)
            T, P, errors = sol.period, sol.processors, model.errors
            # Section III-B: both expansions need a small exponent.
            assert errors.total_rate(P) * model.costs.combined_cost(P) < 0.1
            assert (errors.fail_stop_rate(P) / 2.0 + errors.silent_rate(P)) * T < 0.1


class TestSimulationClosesTheLoop:
    """Monte Carlo at the optimal pattern reproduces the predicted overhead."""

    @pytest.mark.parametrize("scenario", [1, 3])
    def test_simulated_overhead_matches_prediction(self, scenario):
        model = build_model("Hera", scenario)
        num = optimize_allocation(model)
        est = simulate_overhead(
            model, num.period, num.processors, n_runs=200, n_patterns=200, seed=13
        )
        assert abs(est.mean - num.overhead) / num.overhead < 0.01

    def test_overhead_near_011_at_alpha_01(self):
        # Figure 2: overheads ~ 0.11 across scenarios at alpha = 0.1.
        for scenario in (1, 2, 3, 4, 5, 6):
            model = build_model("Hera", scenario)
            num = optimize_allocation(model)
            assert 0.10 < num.overhead < 0.12


class TestAmdahlMeetsYoungDaly:
    """The synthesis the title promises: both laws bind simultaneously."""

    def test_overhead_floor_is_amdahl(self):
        model = build_model("Hera", 1)
        num = optimize_allocation(model)
        # Resilient overhead sits above the Amdahl floor alpha = 0.1...
        assert num.overhead > 0.1
        # ...but within 15% of it at these (reliable) rates.
        assert num.overhead < 0.115

    def test_young_daly_scaling_of_period(self):
        # For fixed P, quadrupling the rate halves the optimal period.
        from repro.optimize import optimize_period

        base = build_model("Hera", 3)
        hot = build_model("Hera", 3, lambda_ind=4 * 1.69e-8)
        P = 256.0
        assert optimize_period(hot, P).period == pytest.approx(
            optimize_period(base, P).period / 2.0, rel=0.02
        )

    def test_reliable_platform_approaches_error_free(self):
        model = build_model("Hera", 1, lambda_ind=1e-14)
        num = optimize_allocation(model)
        # Amdahl's limit: with alpha = 0.1 the best overhead is 0.1.
        assert num.overhead == pytest.approx(0.1, abs=2e-3)
