"""Proposition 1: exact expected pattern time, verified from first principles.

The key test re-derives the recurrences from the paper's proof and
checks that the closed forms satisfy them *exactly* (up to float
round-off), then exercises limits, monotonicity, vectorisation and the
first-order expansion.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AmdahlSpeedup,
    ErrorModel,
    PatternModel,
    ResilienceCosts,
    expected_pattern_time,
    pattern_overhead,
    pattern_speedup,
)
from repro.core.errors import expected_time_lost
from repro.core.pattern import expected_recovery_time
from repro.exceptions import InvalidParameterError

from prop1_oracle import (
    expected_checkpoint_time,
    expected_pattern_time_first_order,
    expected_work_time,
)


def _params(model: PatternModel, P: float):
    lam_f = model.errors.fail_stop_rate(P)
    lam_s = model.errors.silent_rate(P)
    C = model.costs.checkpoint_cost(P)
    R = model.costs.recovery_cost(P)
    V = model.costs.verification_cost(P)
    D = model.costs.downtime
    return lam_f, lam_s, C, R, V, D


class TestLimits:
    def test_error_free_is_sum_of_segments(self):
        model = PatternModel(
            errors=ErrorModel(lambda_ind=0.0, fail_stop_fraction=0.5),
            costs=ResilienceCosts.simple(checkpoint=60.0, verification=10.0, downtime=30.0),
            speedup=AmdahlSpeedup(0.1),
        )
        assert model.expected_time(1000.0, 64) == pytest.approx(1070.0)

    def test_silent_only_closed_form(self):
        # E = C - R + e^{lam_s T}(R + T + V): geometric re-executions of
        # (T + V + R), one final checkpoint.
        model = PatternModel(
            errors=ErrorModel.silent_only(1e-5),
            costs=ResilienceCosts.simple(checkpoint=60.0, verification=10.0, downtime=30.0),
            speedup=AmdahlSpeedup(0.1),
        )
        T, P = 2000.0, 50
        lam_s = model.errors.silent_rate(P)
        expected = 60.0 - 60.0 + np.exp(lam_s * T) * (60.0 + T + 10.0)
        assert model.expected_time(T, P) == pytest.approx(expected, rel=1e-12)

    def test_fail_stop_only_closed_form(self):
        # Classic checkpoint/restart: E = (1/lam + D) e^{lam R}(e^{lam(T+V+C)} - 1).
        model = PatternModel(
            errors=ErrorModel.fail_stop_only(1e-5),
            costs=ResilienceCosts.simple(checkpoint=60.0, verification=10.0, downtime=30.0),
            speedup=AmdahlSpeedup(0.1),
        )
        T, P = 2000.0, 50
        lam = model.errors.fail_stop_rate(P)
        expected = (1.0 / lam + 30.0) * np.exp(lam * 60.0) * np.expm1(lam * 2070.0)
        assert model.expected_time(T, P) == pytest.approx(expected, rel=1e-12)

    def test_exact_exceeds_error_free_time(self, simple_model):
        T, P = 3000.0, 100
        base = T + simple_model.costs.combined_cost(P)
        assert simple_model.expected_time(T, P) > base

    def test_tiny_rate_converges_to_error_free(self, simple_costs):
        model = PatternModel(
            errors=ErrorModel(lambda_ind=1e-18, fail_stop_fraction=0.5),
            costs=simple_costs,
            speedup=AmdahlSpeedup(0.1),
        )
        assert model.expected_time(1000.0, 10) == pytest.approx(1070.0, rel=1e-9)

    def test_zero_period_costs_verification_and_checkpoint(self, simple_model):
        # T = 0 is legal for E (degenerate pattern with no work).
        E = simple_model.expected_time(0.0, 10)
        assert E >= simple_model.costs.combined_cost(10)


class TestProofRecurrences:
    """Verify the renewal equations from the proof of Proposition 1.

    Each expectation must satisfy its defining fixed-point equation:

      E(R) = qf(R) (Elost(R) + D + E(R)) + (1 - qf(R)) R
      E(C) = qf(C) (Elost(C) + D + E(R) + E(T+V) + E(C)) + (1 - qf(C)) C
      E(A) = qf(A) (Elost(A) + D + E(R) + E(A))
             + (1 - qf(A)) (A + qs(T) (E(R) + E(A))),  A = T + V
    """

    @pytest.fixture
    def model(self) -> PatternModel:
        return PatternModel(
            errors=ErrorModel(lambda_ind=2e-6, fail_stop_fraction=0.35),
            costs=ResilienceCosts.simple(checkpoint=80.0, verification=12.0, downtime=45.0),
            speedup=AmdahlSpeedup(0.1),
        )

    def test_recovery_recurrence(self, model):
        P = 120
        lam_f, _, _, R, _, D = _params(model, P)
        ER = expected_recovery_time(P, model.errors, model.costs)
        qf = -np.expm1(-lam_f * R)
        rhs = qf * (expected_time_lost(lam_f, R) + D + ER) + (1 - qf) * R
        assert ER == pytest.approx(rhs, rel=1e-12)

    def test_work_recurrence(self, model):
        T, P = 5000.0, 120
        lam_f, lam_s, _, _, V, D = _params(model, P)
        A = T + V
        ER = expected_recovery_time(P, model.errors, model.costs)
        EA = expected_work_time(T, P, model.errors, model.costs)
        qf = -np.expm1(-lam_f * A)
        qs = -np.expm1(-lam_s * T)
        rhs = qf * (expected_time_lost(lam_f, A) + D + ER + EA) + (1 - qf) * (
            A + qs * (ER + EA)
        )
        assert EA == pytest.approx(rhs, rel=1e-12)

    def test_checkpoint_recurrence(self, model):
        T, P = 5000.0, 120
        lam_f, _, C, _, _, D = _params(model, P)
        ER = expected_recovery_time(P, model.errors, model.costs)
        EA = expected_work_time(T, P, model.errors, model.costs)
        EC = expected_checkpoint_time(T, P, model.errors, model.costs)
        qf = -np.expm1(-lam_f * C)
        rhs = qf * (expected_time_lost(lam_f, C) + D + ER + EA + EC) + (1 - qf) * C
        assert EC == pytest.approx(rhs, rel=1e-12)

    def test_decomposition_matches_eq2(self, model):
        # E(PATTERN) = E(T + V) + E(C) must equal the closed Eq. (2).
        T, P = 5000.0, 120
        EA = expected_work_time(T, P, model.errors, model.costs)
        EC = expected_checkpoint_time(T, P, model.errors, model.costs)
        E = expected_pattern_time(T, P, model.errors, model.costs)
        assert E == pytest.approx(EA + EC, rel=1e-12)

    def test_eq2_literal_form(self, model):
        # Evaluate Eq. (2) verbatim and compare with the implementation.
        T, P = 3000.0, 200
        lam_f, lam_s, C, R, V, D = _params(model, P)
        eq2 = (1.0 / lam_f + D) * (
            np.exp(lam_f * C) * (1.0 - np.exp(lam_s * T))
            + np.exp(lam_f * R) * (np.exp(lam_f * (C + T + V) + lam_s * T) - 1.0)
        )
        assert expected_pattern_time(T, P, model.errors, model.costs) == pytest.approx(
            eq2, rel=1e-10
        )

    def test_silent_only_components(self):
        # With lam_f = 0 the components reduce to R, C, and the geometric
        # silent re-execution form.
        model = PatternModel(
            errors=ErrorModel.silent_only(1e-5),
            costs=ResilienceCosts.simple(checkpoint=60.0, verification=10.0, downtime=30.0),
            speedup=AmdahlSpeedup(0.1),
        )
        T, P = 2000.0, 50
        assert expected_recovery_time(P, model.errors, model.costs) == pytest.approx(60.0)
        assert expected_checkpoint_time(T, P, model.errors, model.costs) == pytest.approx(60.0)
        lam_s = model.errors.silent_rate(P)
        expected_work = np.exp(lam_s * T) * 2010.0 + np.expm1(lam_s * T) * 60.0
        assert expected_work_time(T, P, model.errors, model.costs) == pytest.approx(
            expected_work, rel=1e-12
        )


class TestMonotonicity:
    def test_increasing_in_period(self, simple_model):
        T = np.linspace(100.0, 50_000.0, 40)
        E = simple_model.expected_time(T, 100)
        assert np.all(np.diff(E) > 0)

    def test_increasing_in_rate(self, simple_costs):
        values = []
        for lam in (1e-8, 1e-7, 1e-6, 1e-5):
            model = PatternModel(
                errors=ErrorModel(lambda_ind=lam, fail_stop_fraction=0.5),
                costs=simple_costs,
                speedup=AmdahlSpeedup(0.1),
            )
            values.append(model.expected_time(3000.0, 100))
        assert values == sorted(values)

    def test_increasing_in_downtime(self, simple_errors):
        values = []
        for D in (0.0, 60.0, 600.0, 3600.0):
            costs = ResilienceCosts.simple(checkpoint=60.0, verification=10.0, downtime=D)
            model = PatternModel(simple_errors, costs, AmdahlSpeedup(0.1))
            values.append(model.expected_time(3000.0, 100))
        assert values == sorted(values)

    def test_overhead_unimodal_in_period(self, simple_model):
        # H(T, P) has a single interior minimum in T.
        T = np.logspace(1, 6, 200)
        H = simple_model.overhead(T, 100)
        i = int(np.argmin(H))
        assert 0 < i < T.size - 1
        assert np.all(np.diff(H[: i + 1]) < 0)
        assert np.all(np.diff(H[i:]) > 0)


class TestVectorisation:
    def test_broadcast_t_and_p(self, simple_model):
        T = np.array([1000.0, 2000.0, 3000.0])
        P = np.array([[10.0], [100.0]])
        E = simple_model.expected_time(T, P)
        assert E.shape == (2, 3)
        assert E[1, 2] == pytest.approx(simple_model.expected_time(3000.0, 100.0))

    def test_scalar_in_scalar_out(self, simple_model):
        assert isinstance(simple_model.expected_time(1000.0, 10), float)

    def test_array_matches_scalar_loop(self, simple_model):
        T = np.array([500.0, 5000.0, 50_000.0])
        E = simple_model.expected_time(T, 64)
        for i, t in enumerate(T):
            assert E[i] == pytest.approx(simple_model.expected_time(float(t), 64))

    def test_rejects_negative_period(self, simple_model):
        with pytest.raises(InvalidParameterError):
            simple_model.expected_time(-1.0, 10)

    def test_rejects_nan_period(self, simple_model):
        with pytest.raises(InvalidParameterError):
            simple_model.expected_time(float("nan"), 10)


class TestFirstOrderExpansion:
    def test_matches_exact_for_small_rates(self):
        # Relative truncation error of the 2nd-order expansion is
        # O((lambda T)^2) ~ 1e-6 here.
        model = PatternModel(
            errors=ErrorModel(lambda_ind=1e-10, fail_stop_fraction=0.3),
            costs=ResilienceCosts.simple(checkpoint=60.0, verification=10.0, downtime=300.0),
            speedup=AmdahlSpeedup(0.1),
        )
        T, P = 10_000.0, 100
        exact = model.expected_time(T, P)
        approx = expected_pattern_time_first_order(T, P, model.errors, model.costs)
        assert approx == pytest.approx(exact, rel=1e-6)

    def test_expansion_terms(self):
        # With lambda = 0 the expansion is exactly T + V + C.
        model = PatternModel(
            errors=ErrorModel(lambda_ind=0.0, fail_stop_fraction=0.5),
            costs=ResilienceCosts.simple(checkpoint=60.0, verification=10.0),
            speedup=AmdahlSpeedup(0.1),
        )
        assert expected_pattern_time_first_order(
            1000.0, 10, model.errors, model.costs
        ) == pytest.approx(1070.0)

    def test_underestimates_exact(self, simple_model):
        # The dropped higher-order terms are positive, so the truncated
        # series sits below the exact expectation.
        T, P = 5000.0, 200
        approx = expected_pattern_time_first_order(
            T, P, simple_model.errors, simple_model.costs
        )
        assert approx < simple_model.expected_time(T, P)


class TestOverheadAndSpeedup:
    def test_overhead_definition(self, simple_model):
        T, P = 3000.0, 100
        E = simple_model.expected_time(T, P)
        H = simple_model.overhead(T, P)
        assert H == pytest.approx(simple_model.speedup.overhead(P) * E / T)

    def test_overhead_floor_is_error_free(self, simple_model):
        T, P = 3000.0, 100
        assert simple_model.overhead(T, P) > simple_model.error_free_overhead(P)

    def test_speedup_is_reciprocal(self, simple_model):
        T, P = 3000.0, 100
        assert simple_model.expected_speedup(T, P) * simple_model.overhead(
            T, P
        ) == pytest.approx(1.0)

    def test_overhead_rejects_zero_period(self, simple_model):
        with pytest.raises(InvalidParameterError):
            simple_model.overhead(0.0, 10)

    def test_module_level_functions_agree_with_model(self, simple_model):
        T, P = 2500.0, 64
        assert pattern_overhead(
            T, P, simple_model.errors, simple_model.costs, simple_model.speedup
        ) == pytest.approx(simple_model.overhead(T, P))
        assert pattern_speedup(
            T, P, simple_model.errors, simple_model.costs, simple_model.speedup
        ) == pytest.approx(simple_model.expected_speedup(T, P))


class TestPatternModelHelpers:
    def test_pattern_work(self, simple_model):
        T, P = 1000.0, 100
        assert simple_model.pattern_work(T, P) == pytest.approx(
            T * simple_model.speedup.speedup(P)
        )

    def test_makespan_projection(self, simple_model):
        W = 1e7
        T, P = 3000.0, 100
        assert simple_model.expected_makespan(W, T, P) == pytest.approx(
            simple_model.overhead(T, P) * W
        )

    def test_pattern_count(self, simple_model):
        W = 1e7
        T, P = 3000.0, 100
        n = simple_model.pattern_count(W, T, P)
        assert n == pytest.approx(W / (T * simple_model.speedup.speedup(P)))

    def test_makespan_rejects_nonpositive_work(self, simple_model):
        with pytest.raises(InvalidParameterError):
            simple_model.expected_makespan(0.0, 100.0, 10)

    def test_alpha_property(self, simple_model):
        assert simple_model.alpha == 0.1

    def test_alpha_property_non_amdahl(self, simple_errors, simple_costs):
        from repro.core import GustafsonSpeedup

        model = PatternModel(simple_errors, simple_costs, GustafsonSpeedup(0.1))
        with pytest.raises(InvalidParameterError):
            _ = model.alpha

    def test_with_downtime(self, simple_model):
        m2 = simple_model.with_downtime(9999.0)
        assert m2.costs.downtime == 9999.0
        assert simple_model.costs.downtime == 120.0

    def test_with_lambda(self, simple_model):
        m2 = simple_model.with_lambda(1e-12)
        assert m2.errors.lambda_ind == 1e-12
        assert m2.errors.fail_stop_fraction == simple_model.errors.fail_stop_fraction

    def test_with_alpha(self, simple_model):
        m2 = simple_model.with_alpha(0.01)
        assert m2.alpha == 0.01
        assert simple_model.alpha == 0.1
