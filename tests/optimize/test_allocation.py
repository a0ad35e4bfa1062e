"""Joint (T, P) optimisation — the paper's numerical 'optimal' solution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AmdahlSpeedup,
    ErrorModel,
    PatternModel,
    ResilienceCosts,
    pattern_overhead,
)
from repro.core.first_order import optimal_pattern
from repro.exceptions import OptimizationError
from repro.optimize.allocation import optimize_allocation, optimize_allocation_batch
from repro.platforms import build_model
from repro.optimize.period import optimize_period


class TestOptimizeAllocation:
    def test_interior_optimum_on_hera(self, hera_sc1):
        result = optimize_allocation(hera_sc1)
        assert result.interior
        # Figure 2 (Hera): numerical P* around 200, T* around 6500s.
        assert 150 < result.processors < 300
        assert 5000 < result.period < 8500
        assert 0.105 < result.overhead < 0.115

    def test_is_a_joint_minimum(self, hera_sc1):
        result = optimize_allocation(hera_sc1)
        H = result.overhead
        # Perturb P (re-optimising T) and T (fixed P): both must not improve.
        for factor in (0.9, 1.1):
            assert optimize_period(hera_sc1, result.processors * factor).overhead > H
            assert hera_sc1.overhead(result.period * factor, result.processors) > H

    def test_close_to_theorem2_on_hera(self, hera_sc1):
        fo = optimal_pattern(hera_sc1)
        num = optimize_allocation(hera_sc1)
        assert num.processors == pytest.approx(fo.processors, rel=0.15)
        assert num.overhead == pytest.approx(fo.overhead, rel=0.02)

    def test_close_to_theorem3_on_hera(self, hera_sc3):
        fo = optimal_pattern(hera_sc3)
        num = optimize_allocation(hera_sc3)
        assert num.processors == pytest.approx(fo.processors, rel=0.15)
        assert num.overhead == pytest.approx(fo.overhead, rel=0.02)

    def test_scenario6_numerical_only(self, hera_sc6):
        # Decaying-cost regime: no closed form, but a finite numerical
        # optimum exists (paper Fig. 2, Hera scenario 6 ~ 800).
        result = optimize_allocation(hera_sc6)
        assert result.interior
        assert 500 < result.processors < 1500

    def test_integer_rounding(self, hera_sc1):
        result = optimize_allocation(hera_sc1, integer=True)
        assert result.processors == int(result.processors)
        cont = optimize_allocation(hera_sc1)
        assert abs(result.processors - cont.processors) <= 1.0
        # Rounding costs essentially nothing on a flat optimum.
        assert result.overhead == pytest.approx(cont.overhead, rel=1e-4)

    def test_respects_bounds(self, hera_sc1):
        result = optimize_allocation(hera_sc1, p_min=400.0, p_max=1000.0)
        assert 400.0 <= result.processors <= 1000.0
        assert result.at_lower  # true optimum (~207) is below the range

    def test_perfectly_parallel_scenario1(self, hera_sc1):
        # alpha = 0 with linear costs: finite optimum ~ lambda^-1/2.
        model = hera_sc1.with_alpha(0.0)
        result = optimize_allocation(model)
        assert result.interior
        lam = model.errors.lambda_ind
        assert 0.1 * lam**-0.5 < result.processors < 10 * lam**-0.5

    def test_overhead_consistent(self, hera_sc3):
        result = optimize_allocation(hera_sc3)
        assert result.overhead == pytest.approx(
            hera_sc3.overhead(result.period, result.processors), rel=1e-12
        )

    def test_speedup_property(self, hera_sc1):
        result = optimize_allocation(hera_sc1)
        assert result.speedup == pytest.approx(1.0 / result.overhead)

    def test_error_free_raises(self, simple_costs):
        model = PatternModel(
            ErrorModel(lambda_ind=0.0, fail_stop_fraction=0.5),
            simple_costs,
            AmdahlSpeedup(0.1),
        )
        with pytest.raises(OptimizationError):
            optimize_allocation(model)

    def test_invalid_range_raises(self, hera_sc1):
        with pytest.raises(OptimizationError):
            optimize_allocation(hera_sc1, p_min=100.0, p_max=10.0)

    def test_overhead_overflowing_everywhere_raises(self, hera_sc1):
        # Hera's scenario-5 checkpoint (153,600 s / P) at lambda_ind ~ 0.73:
        # e^{lambda P C_P} overflows for every P in range, so no finite
        # optimum exists, alone or in a batch.
        doomed = build_model("Hera", 5, lambda_ind=0.73)
        with pytest.raises(OptimizationError, match="no finite optimum"):
            optimize_allocation(doomed)
        with pytest.raises(OptimizationError, match="lambda_ind=0.73"):
            optimize_allocation_batch([hera_sc1, doomed])

    def test_downtime_shifts_optimum_down(self, hera_sc1):
        # Figure 7: larger D argues for fewer processors.
        low = optimize_allocation(hera_sc1.with_downtime(0.0))
        high = optimize_allocation(hera_sc1.with_downtime(3 * 3600.0))
        assert high.processors < low.processors

    def test_gustafson_profile_supported(self, hera_sc3):
        # The numerical path accepts non-Amdahl profiles (future work).
        from repro.core import GustafsonSpeedup

        model = PatternModel(hera_sc3.errors, hera_sc3.costs, GustafsonSpeedup(0.1))
        result = optimize_allocation(model, p_max=1e7)
        assert result.overhead > 0.0
        assert np.isfinite(result.processors)


class TestTheoremOrders:
    """Theorems 2-3: asymptotic orders of the numerically optimal pattern.

    As lambda -> 0, P* = Theta(lambda^-1/4) and T* = Theta(lambda^-1/2)
    when C_P = cP (scenario 1), and P* = T* = Theta(lambda^-1/3) when
    C_P + V_P tends to a constant (scenarios 3 and 5).  Far below the
    paper's rates the fitted log-log slopes of the exact optimum must
    match.  (Figure 5's printed range, 1e-12..1e-8, is still
    pre-asymptotic for scenario 5: its T* slope there is -0.22.)
    """

    LAMBDAS = np.logspace(-20, -16, 9)

    @pytest.mark.parametrize(
        ("scenario", "p_order", "t_order"),
        [(1, -1 / 4, -1 / 2), (3, -1 / 3, -1 / 3), (5, -1 / 3, -1 / 3)],
    )
    def test_fitted_orders(self, scenario, p_order, t_order):
        models = [
            build_model("Hera", scenario, alpha=0.1, lambda_ind=lam) for lam in self.LAMBDAS
        ]
        results = optimize_allocation_batch(models)
        assert all(r.interior for r in results)
        log_lam = np.log(self.LAMBDAS)
        P_slope = np.polyfit(log_lam, np.log([r.processors for r in results]), 1)[0]
        T_slope = np.polyfit(log_lam, np.log([r.period for r in results]), 1)[0]
        assert P_slope == pytest.approx(p_order, abs=0.005)
        assert T_slope == pytest.approx(t_order, abs=0.005)


class TestBruteForceCrossCheck:
    """The nested zoom against an exhaustive search of the same objective.

    The reference is the public scalar evaluator on a log (T, P) grid
    that does not depend on the optimiser's answer: a 0.01-decade global
    grid locates the basin, then a 1e-4-decade grid around the global
    grid's argmin resolves it.
    """

    @staticmethod
    def _grid_minimum(model, log_T, log_P):
        with np.errstate(over="ignore", invalid="ignore"):
            H = np.asarray(
                pattern_overhead(
                    10.0 ** log_T[:, None], 10.0 ** log_P[None, :],
                    model.errors, model.costs, model.speedup,
                ),
                dtype=float,
            )
        H = np.where(np.isfinite(H), H, np.inf)
        i, j = np.unravel_index(np.argmin(H), H.shape)
        return H[i, j], log_T[i], log_P[j]

    @pytest.mark.parametrize("platform", ["Hera", "Coastal"])
    @pytest.mark.parametrize("scenario", [1, 3, 5])
    def test_no_grid_point_beats_the_optimum(self, platform, scenario):
        model = build_model(platform, scenario)
        result = optimize_allocation(model)
        _, t0, p0 = self._grid_minimum(
            model, np.linspace(1.0, 7.0, 601), np.linspace(0.0, 6.0, 601)
        )
        log_T = np.linspace(t0 - 0.02, t0 + 0.02, 401)
        log_P = np.linspace(p0 - 0.02, p0 + 0.02, 401)
        H_grid, t_best, p_best = self._grid_minimum(model, log_T, log_P)
        assert result.overhead <= H_grid * (1.0 + 1e-12)
        assert abs(np.log10(result.period) - t_best) <= log_T[1] - log_T[0]
        assert abs(np.log10(result.processors) - p_best) <= log_P[1] - log_P[0]
