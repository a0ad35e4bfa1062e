"""Theorems 1-3 and the degenerate cases of Section III-D.

Beyond literal formula checks, the tests verify the *optimality* claims:
T*_P minimises the expanded overhead, P* minimises H(T*_P, P), and the
closed forms converge to the numerical optimum as lambda_ind -> 0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AmdahlSpeedup,
    CheckpointCost,
    CostRegime,
    ErrorModel,
    GustafsonSpeedup,
    PatternModel,
    ResilienceCosts,
    VerificationCost,
    optimal_pattern,
    optimal_period,
    theorem2_solution,
    theorem3_solution,
)
from repro.exceptions import ValidityError


class TestTheorem1:
    def test_formula(self, simple_model):
        P = 100
        lam = (
            simple_model.errors.fail_stop_rate(P) / 2.0
            + simple_model.errors.silent_rate(P)
        )
        expected = np.sqrt(simple_model.costs.combined_cost(P) / lam)
        assert optimal_period(P, simple_model.errors, simple_model.costs) == pytest.approx(
            expected
        )

    def test_is_youngs_period_on_a_fail_stop_only_platform(self):
        # The title's Young/Daly half: with f = 1 and V = 0, Theorem 1 is
        # Young's T = sqrt(2 C_P mu_P), mu_P = 1 / lambda^f_P, for any C_P.
        errors = ErrorModel.fail_stop_only(1e-8)
        costs = ResilienceCosts(checkpoint=CheckpointCost(a=60.0, b=3000.0, c=0.1))
        P = np.array([16.0, 256.0, 4096.0, 65536.0])
        C_P = 60.0 + 3000.0 / P + 0.1 * P
        young = np.sqrt(2.0 * C_P / (1e-8 * P))
        assert optimal_period(P, errors, costs) == pytest.approx(young, rel=1e-12)

    def test_silent_only_variant(self):
        # f = 0: T* = sqrt((V + C)/lambda_s).
        errors = ErrorModel.silent_only(1e-7)
        costs = ResilienceCosts.simple(checkpoint=100.0, verification=20.0)
        P = 64
        lam_s = errors.silent_rate(P)
        assert optimal_period(P, errors, costs) == pytest.approx(np.sqrt(120.0 / lam_s))

    def test_minimises_expanded_overhead(self, simple_model):
        # T* is the exact argmin of (V+C)/T + (lam_f/2 + lam_s) T.
        P = 100
        T_star = optimal_period(P, simple_model.errors, simple_model.costs)
        lam = (
            simple_model.errors.fail_stop_rate(P) / 2.0
            + simple_model.errors.silent_rate(P)
        )
        cost = simple_model.costs.combined_cost(P)

        def expanded(T):
            return cost / T + lam * T

        assert expanded(T_star) < expanded(T_star * 1.01)
        assert expanded(T_star) < expanded(T_star * 0.99)

    def test_near_optimal_on_exact_objective(self, hera_sc1):
        # On the real platform the first-order period is within 0.1% of
        # the exact optimum's overhead.
        from repro.optimize import optimize_period

        P = 256.0
        T_fo = optimal_period(P, hera_sc1.errors, hera_sc1.costs)
        H_fo = hera_sc1.overhead(T_fo, P)
        H_opt = optimize_period(hera_sc1, P).overhead
        assert (H_fo - H_opt) / H_opt < 1e-3

    def test_within_paper_bound_on_hera(self, hera_sc1, hera_sc3, hera_sc5):
        # Figure 3(c): the first-order period costs < 0.2 percentage points
        # of overhead over the plotted processor range.
        from repro.optimize import optimize_period

        for model in (hera_sc1, hera_sc3, hera_sc5):
            for P in (200.0, 800.0, 1400.0):
                H_fo = model.overhead(optimal_period(P, model.errors, model.costs), P)
                assert 0.0 <= H_fo - optimize_period(model, P).overhead < 0.002

    def test_young_daly_flatness_folklore(self, hera_sc1):
        # Missing T* by 2x either way costs only a few percent of overhead.
        from repro.optimize import optimize_period

        P = 256.0
        T_fo = optimal_period(P, hera_sc1.errors, hera_sc1.costs)
        H_opt = optimize_period(hera_sc1, P).overhead
        for factor in (0.5, 2.0):
            assert 1.0 < hera_sc1.overhead(factor * T_fo, P) / H_opt < 1.05

    def test_shorter_than_young_with_silent_errors(self):
        # Silent errors push the period below the fail-stop-only Young rule
        # sqrt(2 C_P / lambda^f_P): a higher effective rate, plus V_P.
        errors = ErrorModel(lambda_ind=1e-7, fail_stop_fraction=0.5)
        costs = ResilienceCosts.simple(checkpoint=100.0, verification=20.0)
        P = 100
        young = np.sqrt(2.0 * 100.0 / errors.fail_stop_rate(P))
        assert optimal_period(P, errors, costs) < young

    def test_vectorised_over_p(self, hera_sc1):
        P = np.array([128.0, 512.0, 1024.0])
        T = optimal_period(P, hera_sc1.errors, hera_sc1.costs)
        assert T.shape == (3,)
        for i, p in enumerate(P):
            assert T[i] == pytest.approx(
                optimal_period(float(p), hera_sc1.errors, hera_sc1.costs)
            )

    def test_flat_in_p_for_pure_linear_costs(self):
        # With C_P = cP and no verification, T* = sqrt(c/L) exactly,
        # independent of P (the paper's scenario-1 asymptote).
        errors = ErrorModel(lambda_ind=1e-8, fail_stop_fraction=0.25)
        costs = ResilienceCosts(checkpoint=CheckpointCost.linear(0.5))
        T = optimal_period(np.array([64.0, 1024.0, 65536.0]), errors, costs)
        assert T[0] == pytest.approx(T[2])

    def test_period_decreases_with_p_for_constant_costs(self, hera_sc3):
        P = np.array([128.0, 512.0, 1024.0])
        T = optimal_period(P, hera_sc3.errors, hera_sc3.costs)
        assert T[0] > T[1] > T[2]

    def test_raises_on_error_free_platform(self):
        errors = ErrorModel(lambda_ind=0.0, fail_stop_fraction=0.5)
        costs = ResilienceCosts.simple(checkpoint=10.0)
        with pytest.raises(ValidityError):
            optimal_period(10, errors, costs)


class TestTheorem2:
    def test_formulas(self, linear_cost_model):
        sol = theorem2_solution(linear_cost_model)
        alpha = 0.1
        c = linear_cost_model.costs.c
        L = linear_cost_model.errors.effective_lambda
        assert sol.processors == pytest.approx(
            (1.0 / (c * L)) ** 0.25 * ((1 - alpha) / (2 * alpha)) ** 0.5
        )
        assert sol.period == pytest.approx((c / L) ** 0.5)
        assert sol.overhead == pytest.approx(
            alpha + 2.0 * (4 * alpha**2 * (1 - alpha) ** 2 * c * L) ** 0.25
        )
        assert sol.theorem == "theorem-2"
        assert sol.regime is CostRegime.LINEAR

    def test_period_consistent_with_theorem1(self, linear_cost_model):
        # Substituting P* into Theorem 1 must give the same T*.
        sol = theorem2_solution(linear_cost_model)
        T1 = optimal_period(
            sol.processors, linear_cost_model.errors, linear_cost_model.costs
        )
        # Scenario-1-style costs include the o(P) verification constant
        # (v / (c P*) ~ 11% here), so agreement is to first order only.
        assert T1 == pytest.approx(sol.period, rel=0.15)

    def test_p_star_minimises_overhead_curve(self, linear_cost_model):
        sol = theorem2_solution(linear_cost_model)
        alpha, c = 0.1, linear_cost_model.costs.c
        L = linear_cost_model.errors.effective_lambda

        def H(P):
            return alpha + 2 * alpha * P * np.sqrt(c * L) + (1 - alpha) / P

        assert H(sol.processors) <= H(sol.processors * 1.01)
        assert H(sol.processors) <= H(sol.processors * 0.99)

    def test_orders_in_lambda(self):
        # P* ~ lambda^-1/4 and T* ~ lambda^-1/2.
        def build(lam):
            return PatternModel(
                errors=ErrorModel(lambda_ind=lam, fail_stop_fraction=0.25),
                costs=ResilienceCosts(
                    checkpoint=CheckpointCost.linear(0.5),
                    verification=VerificationCost.constant(15.0),
                ),
                speedup=AmdahlSpeedup(0.1),
            )

        s1 = theorem2_solution(build(1e-8))
        s2 = theorem2_solution(build(1e-12))  # rate / 10^4
        assert s2.processors / s1.processors == pytest.approx(10.0, rel=1e-9)
        assert s2.period / s1.period == pytest.approx(100.0, rel=1e-9)

    def test_speedup_property(self, linear_cost_model):
        sol = theorem2_solution(linear_cost_model)
        assert sol.speedup == pytest.approx(1.0 / sol.overhead)

    def test_rejects_wrong_regime(self, constant_cost_model):
        with pytest.raises(ValidityError):
            theorem2_solution(constant_cost_model)

    def test_rejects_alpha_zero(self, linear_cost_model):
        with pytest.raises(ValidityError):
            theorem2_solution(linear_cost_model.with_alpha(0.0))

    def test_rejects_alpha_one(self, linear_cost_model):
        with pytest.raises(ValidityError):
            theorem2_solution(linear_cost_model.with_alpha(1.0))

    def test_rejects_non_amdahl(self, linear_cost_model):
        model = PatternModel(
            linear_cost_model.errors, linear_cost_model.costs, GustafsonSpeedup(0.1)
        )
        with pytest.raises(ValidityError):
            theorem2_solution(model)


class TestTheorem3:
    def test_formulas(self, constant_cost_model):
        sol = theorem3_solution(constant_cost_model)
        alpha = 0.1
        d = constant_cost_model.costs.d
        L = constant_cost_model.errors.effective_lambda
        third = 1.0 / 3.0
        assert sol.processors == pytest.approx(
            (1.0 / (d * L)) ** third * ((1 - alpha) / alpha) ** (2 * third)
        )
        assert sol.period == pytest.approx(
            (d**2 / L) ** third * (alpha / (1 - alpha)) ** third
        )
        assert sol.overhead == pytest.approx(
            alpha + 3.0 * (alpha**2 * (1 - alpha) * d * L) ** third
        )
        assert sol.theorem == "theorem-3"

    def test_period_consistent_with_theorem1(self, constant_cost_model):
        sol = theorem3_solution(constant_cost_model)
        T1 = optimal_period(
            sol.processors, constant_cost_model.errors, constant_cost_model.costs
        )
        assert T1 == pytest.approx(sol.period, rel=1e-9)

    def test_orders_in_lambda(self):
        # Both P* and T* ~ lambda^-1/3.
        def build(lam):
            return PatternModel(
                errors=ErrorModel(lambda_ind=lam, fail_stop_fraction=0.25),
                costs=ResilienceCosts.simple(checkpoint=300.0, verification=15.0),
                speedup=AmdahlSpeedup(0.1),
            )

        s1 = theorem3_solution(build(1e-9))
        s2 = theorem3_solution(build(1e-12))  # rate / 10^3
        assert s2.processors / s1.processors == pytest.approx(10.0, rel=1e-9)
        assert s2.period / s1.period == pytest.approx(10.0, rel=1e-9)

    def test_more_parallelism_than_theorem2(self, hera_sc1, hera_sc3):
        # At the same lambda, bounded costs admit more processors
        # asymptotically (1/3 > 1/4) — check at a very small rate.
        m1 = hera_sc1.with_lambda(1e-12)
        m3 = hera_sc3.with_lambda(1e-12)
        assert theorem3_solution(m3).processors > theorem2_solution(m1).processors

    def test_rejects_wrong_regime(self, linear_cost_model):
        with pytest.raises(ValidityError):
            theorem3_solution(linear_cost_model)

    def test_rejects_alpha_zero(self, constant_cost_model):
        with pytest.raises(ValidityError):
            theorem3_solution(constant_cost_model.with_alpha(0.0))


class TestDispatch:
    def test_linear_goes_to_theorem2(self, linear_cost_model):
        assert optimal_pattern(linear_cost_model).theorem == "theorem-2"

    def test_constant_goes_to_theorem3(self, constant_cost_model):
        assert optimal_pattern(constant_cost_model).theorem == "theorem-3"

    def test_decaying_raises(self, decaying_cost_model):
        with pytest.raises(ValidityError):
            optimal_pattern(decaying_cost_model)

    def test_matches_numerical_optimum_asymptotically(self, constant_cost_model):
        # As lambda -> 0 the first-order optimum converges to the exact one.
        from repro.optimize import optimize_allocation

        model = constant_cost_model.with_lambda(1e-13)
        fo = optimal_pattern(model)
        num = optimize_allocation(model)
        assert fo.processors == pytest.approx(num.processors, rel=0.02)
        assert fo.period == pytest.approx(num.period, rel=0.02)
        assert fo.overhead == pytest.approx(num.overhead, rel=1e-4)


def _overhead_at_first_order_period(model: PatternModel, P):
    """Exact H(T*_P, P) at Theorem 1's period."""
    return model.overhead(optimal_period(P, model.errors, model.costs), P)


class TestDegenerateCases:
    """Section III-D's closed forms, checked on the exact objective.

    The closed forms are first-order, so they are compared where errors are
    rare (lambda_ind = 1e-12): there the exact overhead at T*_P must match
    them, and decrease in P as the paper's "use every processor" reads.
    """

    LAMBDA = 1e-12

    def test_case3_overhead_formula(self, decaying_cost_model):
        model = decaying_cost_model.with_lambda(self.LAMBDA)
        P = 1000.0
        h = model.costs.h
        L = model.errors.effective_lambda
        expected = model.speedup.overhead(P) * (1 + 2 * np.sqrt(h * L))
        assert _overhead_at_first_order_period(model, P) == pytest.approx(expected, rel=1e-4)

    def test_case3_monotone_decreasing(self, decaying_cost_model):
        model = decaying_cost_model.with_lambda(self.LAMBDA)
        H = _overhead_at_first_order_period(model, np.logspace(1, 5, 30))
        assert np.all(np.diff(H) < 0)

    def test_case4_linear_costs(self, linear_cost_model):
        model = linear_cost_model.with_alpha(0.0).with_lambda(self.LAMBDA)
        P = 1000.0
        c = model.costs.c
        L = model.errors.effective_lambda
        expected = 1 / P + 2 * np.sqrt(c * L)
        assert _overhead_at_first_order_period(model, P) == pytest.approx(expected, rel=1e-4)

    def test_case4_constant_costs(self, constant_cost_model):
        model = constant_cost_model.with_alpha(0.0).with_lambda(self.LAMBDA)
        P = 1000.0
        d = model.costs.d
        L = model.errors.effective_lambda
        expected = 1 / P + 2 * np.sqrt(d * L / P)
        assert _overhead_at_first_order_period(model, P) == pytest.approx(expected, rel=1e-4)

    def test_case4_decaying_costs(self, decaying_cost_model):
        model = decaying_cost_model.with_alpha(0.0).with_lambda(self.LAMBDA)
        P = 1000.0
        h = model.costs.h
        L = model.errors.effective_lambda
        expected = (1 + 2 * np.sqrt(h * L)) / P
        assert _overhead_at_first_order_period(model, P) == pytest.approx(expected, rel=1e-4)

    def test_case4_monotone_decreasing(self, constant_cost_model):
        model = constant_cost_model.with_alpha(0.0).with_lambda(self.LAMBDA)
        H = _overhead_at_first_order_period(model, np.logspace(1, 6, 40))
        assert np.all(np.diff(H) < 0)
