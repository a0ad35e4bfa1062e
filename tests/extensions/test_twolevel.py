"""Segmented patterns (k verifications per checkpoint) — exact model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AmdahlSpeedup,
    ErrorModel,
    PatternModel,
    ResilienceCosts,
    expected_pattern_time,
)
from repro.exceptions import InvalidParameterError, ValidityError
from repro.extensions.twolevel import (
    SegmentedSolution,
    expected_segmented_time,
    optimal_segment_count,
    optimal_segmented_pattern,
    optimize_segments,
    segmented_overhead,
    segmented_period,
)
from repro.optimize.scalar import minimize_scalar
from repro.platforms import PLATFORM_NAMES, build_model


def _model(lambda_ind=2e-5, f=0.3, C=80.0, V=8.0, D=40.0, alpha=0.1) -> PatternModel:
    return PatternModel(
        errors=ErrorModel(lambda_ind=lambda_ind, fail_stop_fraction=f),
        costs=ResilienceCosts.simple(checkpoint=C, verification=V, downtime=D),
        speedup=AmdahlSpeedup(alpha),
    )


def scalar_optimize_segments(
    model: PatternModel, P: float, k_max: int = 64
) -> SegmentedSolution:
    """Scalar oracle for :func:`optimize_segments`: one Brent solve per k.

    The historical implementation: scan ``k = 1..k_max``, minimise the
    overhead over ``T`` in ``[T*_k 1e-3, T*_k 1e3]`` with Brent, keep the
    first strict minimum and stop after three consecutive rises.
    """
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


class TestReductionToProposition1:
    """k = 1 must reproduce the paper's VC pattern exactly."""

    @pytest.mark.parametrize("f", [1.0, 0.0, 0.35])
    def test_k1_equals_eq2(self, f):
        model = _model(f=f)
        T, P = 2500.0, 40
        base = expected_pattern_time(T, P, model.errors, model.costs)
        seg = expected_segmented_time(T, P, 1, model.errors, model.costs)
        assert seg == pytest.approx(base, rel=1e-12)

    def test_k1_on_hera(self, hera_sc3):
        T, P = 9000.0, 256.0
        base = expected_pattern_time(T, P, hera_sc3.errors, hera_sc3.costs)
        seg = expected_segmented_time(T, P, 1, hera_sc3.errors, hera_sc3.costs)
        assert seg == pytest.approx(base, rel=1e-12)

    def test_error_free_any_k(self):
        model = _model(lambda_ind=0.0)
        T, P = 1000.0, 10
        for k in (1, 2, 5):
            expected = T + k * 8.0 + 80.0  # T + kV + C
            assert expected_segmented_time(
                T, P, k, model.errors, model.costs
            ) == pytest.approx(expected, rel=1e-12)


class TestStructure:
    def test_extra_segments_add_verification_cost_when_silent_free(self):
        # With only fail-stop errors, more verifications are pure loss.
        model = _model(f=1.0)
        T, P = 2500.0, 40
        E1 = expected_segmented_time(T, P, 1, model.errors, model.costs)
        E4 = expected_segmented_time(T, P, 4, model.errors, model.costs)
        assert E4 > E1

    def test_segments_help_under_silent_errors(self):
        # Silent-heavy mix with expensive checkpoints: early detection wins.
        model = _model(f=0.05, C=300.0, V=3.0, lambda_ind=5e-5)
        T, P = 4000.0, 40
        E1 = expected_segmented_time(T, P, 1, model.errors, model.costs)
        E4 = expected_segmented_time(T, P, 4, model.errors, model.costs)
        assert E4 < E1

    def test_unimodal_in_k(self):
        # V must be a noticeable fraction of C for the optimum to sit at
        # small k (the detection gain saturates as (k+1)/2k -> 1/2 while
        # the verification bill grows linearly).
        model = _model(f=0.1, C=300.0, V=30.0, lambda_ind=5e-6)
        T, P = 4000.0, 40
        E = [
            expected_segmented_time(T, P, k, model.errors, model.costs)
            for k in range(1, 41)
        ]
        i = int(np.argmin(E))
        assert 0 < i < len(E) - 1
        assert all(a >= b for a, b in zip(E[: i + 1], E[1 : i + 1]))
        assert all(a <= b for a, b in zip(E[i:], E[i + 1 :]))

    def test_overhead_definition(self):
        model = _model()
        T, P, k = 2500.0, 40, 3
        E = expected_segmented_time(T, P, k, model.errors, model.costs)
        assert segmented_overhead(T, P, k, model) == pytest.approx(
            model.speedup.overhead(P) * E / T
        )

    def test_vectorised_over_k(self):
        model = _model()
        ks = np.array([1.0, 2.0, 4.0])
        out = expected_segmented_time(2500.0, 40, ks, model.errors, model.costs)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(
            expected_segmented_time(2500.0, 40, 1, model.errors, model.costs)
        )

    def test_rejects_bad_k(self):
        model = _model()
        with pytest.raises(InvalidParameterError):
            expected_segmented_time(100.0, 10, 0, model.errors, model.costs)

    def test_rejects_zero_period(self):
        model = _model()
        with pytest.raises(InvalidParameterError):
            expected_segmented_time(0.0, 10, 2, model.errors, model.costs)


class TestFirstOrder:
    def test_period_reduces_to_theorem1_at_k1(self, hera_sc3):
        from repro.core import optimal_period

        P = 256.0
        assert segmented_period(P, 1, hera_sc3.errors, hera_sc3.costs) == pytest.approx(
            optimal_period(P, hera_sc3.errors, hera_sc3.costs)
        )

    def test_optimal_k_formula(self):
        model = _model(f=0.2, C=320.0, V=5.0)
        P = 40
        lam_f = model.errors.fail_stop_rate(P)
        lam_s = model.errors.silent_rate(P)
        expected = np.sqrt(320.0 * lam_s / (5.0 * (lam_f + lam_s)))
        assert optimal_segment_count(P, model.errors, model.costs) == pytest.approx(
            expected
        )

    def test_optimal_k_clamped_to_one(self):
        # Fail-stop only: k* formula gives 0 -> clamp to 1.
        model = _model(f=1.0)
        assert optimal_segment_count(40, model.errors, model.costs) == 1.0

    def test_k_star_matches_numerical_argmin(self, hera_sc3):
        P = 256.0
        k_fo = optimal_segment_count(P, hera_sc3.errors, hera_sc3.costs)
        best = optimize_segments(hera_sc3, P)
        assert abs(best.segments - k_fo) <= 1.5

    def test_free_verification_raises(self):
        model = PatternModel(
            errors=ErrorModel(1e-6, 0.5),
            costs=ResilienceCosts.simple(checkpoint=100.0, verification=0.0),
            speedup=AmdahlSpeedup(0.1),
        )
        with pytest.raises(ValidityError):
            optimal_segment_count(40, model.errors, model.costs)

    def test_first_order_solution_near_numerical(self, hera_sc3):
        P = 256.0
        fo = optimal_segmented_pattern(hera_sc3, P)
        num = optimize_segments(hera_sc3, P)
        assert fo.overhead == pytest.approx(num.overhead, rel=0.01)


class TestOptimizeSegments:
    def test_beats_or_matches_k1(self, hera_sc3):
        from repro.optimize import optimize_period

        P = 256.0
        best = optimize_segments(hera_sc3, P)
        k1 = optimize_period(hera_sc3, P)
        assert best.overhead <= k1.overhead * (1 + 1e-12)

    def test_improvement_on_silent_heavy_platform(self):
        # Atlas: 94% silent + sizeable checkpoint -> interleaving pays.
        from repro.optimize import optimize_period
        from repro.platforms import build_model

        model = build_model("Atlas", 3)
        P = 256.0
        best = optimize_segments(model, P)
        k1 = optimize_period(model, P)
        assert best.segments > 1
        assert best.overhead < k1.overhead

    def test_segment_length_property(self, hera_sc3):
        best = optimize_segments(hera_sc3, 256.0)
        assert best.segment_length == pytest.approx(best.period / best.segments)

    def test_rejects_bad_kmax(self, hera_sc3):
        # Not an integer >= 1 (bool included): the library's exception,
        # never a TypeError from range() or a comparison.
        for k_max in (0, -3, 2.5, float("inf"), float("nan"), "4", True, None):
            with pytest.raises(InvalidParameterError, match="k_max"):
                optimize_segments(hera_sc3, 256.0, k_max=k_max)

    def test_accepts_numpy_integer_kmax(self, hera_sc3):
        assert optimize_segments(hera_sc3, 256.0, k_max=np.int64(2)).segments <= 2


class TestBatchedSearchMatchesScalarOracle:
    """The batched log-zoom against the per-k Brent oracle (80 cases)."""

    @pytest.mark.parametrize("scenario", [1, 2, 3, 4])
    @pytest.mark.parametrize("platform", PLATFORM_NAMES)
    def test_same_choice_within_brent_tolerance(self, platform, scenario):
        model = build_model(platform, scenario)
        for P in (16.0, 64.0, 256.0, 1000.0, 4096.0):
            batched = optimize_segments(model, P)
            oracle = scalar_optimize_segments(model, P)
            assert batched.segments == oracle.segments, P
            assert batched.overhead == pytest.approx(oracle.overhead, rel=1e-12)
            assert batched.period == pytest.approx(oracle.period, rel=1e-6)
            assert batched.expected_time == pytest.approx(
                oracle.expected_time, rel=1e-6
            )

    def test_overflowing_columns_return_where_the_oracle_returns(self):
        # lambda^f_P V = 400: k = 1 is finite (~1e175) but every k >= 2
        # overflows over its whole bracket.  Neither search may raise.
        model = _model(lambda_ind=1e-3, f=0.5, C=10.0, V=8e5, D=0.0)
        P = 1.0
        assert np.isinf(segmented_overhead(np.logspace(0, 9, 10), P, 2, model)).all()
        oracle = scalar_optimize_segments(model, P)
        batched = optimize_segments(model, P)
        assert oracle.segments == batched.segments == 1.0
        assert np.isfinite(batched.overhead)
        assert batched.overhead == pytest.approx(oracle.overhead, rel=1e-12)
        assert batched.period == pytest.approx(oracle.period, rel=1e-6)

    def test_fully_overflowing_grid_returns_where_the_oracle_returns(self):
        # lambda^f_P C = 1000: every column is +inf everywhere.  Both
        # searches return k = 1 with an infinite overhead; the batch
        # reports the column's lower bound as its period.
        model = _model(lambda_ind=1e-3, f=0.5, C=2e6, V=8.0, D=0.0)
        P = 1.0
        oracle = scalar_optimize_segments(model, P)
        batched = optimize_segments(model, P)
        assert oracle.segments == batched.segments == 1.0
        assert np.isinf(oracle.overhead) and np.isinf(batched.overhead)
        seed = segmented_period(P, 1, model.errors, model.costs)
        assert batched.period == seed * 1e-3
