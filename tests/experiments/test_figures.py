"""Smoke + shape tests for every figure generator (reduced fidelity).

These are the executable versions of the EXPERIMENTS.md shape checks:
each figure must not only run, but exhibit the qualitative behaviour the
paper reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    fig2_scenarios,
    fig3_processors,
    fig4_alpha,
    fig5_error_rate,
    fig6_alpha_zero,
    fig7_downtime,
)
from repro.experiments.common import SimSettings
from repro.experiments.spec import run_study
from repro.sim.montecarlo import Fidelity

#: Cheap but statistically meaningful Monte-Carlo budget for CI.
SETTINGS = SimSettings(fidelity=Fidelity(n_runs=20, n_patterns=40), seed=7)
NO_SIM = SimSettings(simulate=False)


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_study(fig2_scenarios.SPEC, settings=SETTINGS)[0]

    def test_one_row_per_scenario(self, result):
        assert result.column("scenario") == [1, 2, 3, 4, 5, 6]

    def test_scenario6_has_no_first_order(self, result):
        assert result.column("P*_first_order")[5] is None
        assert result.column("P*_optimal")[5] is not None

    def test_first_order_close_to_optimal_scenarios_1_to_4(self, result):
        H_fo = result.column_array("H_first_order_pred")[:4]
        H_opt = result.column_array("H_optimal_pred")[:4]
        assert np.all(np.abs(H_fo - H_opt) < 0.01 * 0.5)

    def test_overheads_near_011(self, result):
        # Paper: ~0.11 on all platforms at alpha = 0.1.
        H_sim = result.column_array("H_optimal_sim")
        assert np.all((H_sim > 0.10) & (H_sim < 0.13))

    def test_simulation_validates_prediction(self, result):
        H_pred = result.column_array("H_optimal_pred")
        H_sim = result.column_array("H_optimal_sim")
        assert np.all(np.abs(H_pred - H_sim) / H_pred < 0.05)

    def test_scenario5_first_order_deviates(self, result):
        # Paper: scenario 5's first-order solution is visibly off.
        H_fo_sim = result.column_array("H_first_order_sim")[4]
        H_opt_sim = result.column_array("H_optimal_sim")[4]
        assert H_fo_sim > H_opt_sim

    def test_other_platform(self):
        res = run_study(
            fig2_scenarios.SPEC, platform="Atlas", scenarios=(1, 3), settings=NO_SIM
        )[0]
        assert len(res.rows) == 2


class TestFig3:
    @pytest.fixture(scope="class")
    def results(self):
        return run_study(
            fig3_processors.SPEC, grid=np.array([256.0, 512.0, 1024.0]), settings=SETTINGS
        )

    def test_three_panels(self, results):
        assert len(results) == 3
        ids = [r.figure_id for r in results]
        assert any("period" in i for i in ids)
        assert any("gap" in i for i in ids)

    def test_period_decreases_for_constant_cost_scenarios(self, results):
        panel = results[0]
        T3 = panel.column_array("scenario_3")
        assert np.all(np.diff(T3) < 0)

    def test_gap_below_paper_bound(self, results):
        gaps = results[2]
        for sc in (1, 2, 3, 4, 5, 6):
            assert np.all(gaps.column_array(f"scenario_{sc}") < 0.2)

    def test_same_cp_scenarios_overlap(self, results):
        # Scenarios 3 and 4 share C_P = a: nearly identical periods.
        panel = results[0]
        T3 = panel.column_array("scenario_3")
        T4 = panel.column_array("scenario_4")
        np.testing.assert_allclose(T3, T4, rtol=0.1)

    def test_overhead_u_shape_wide_grid(self):
        # On a wide grid the simulated overhead dips then rises (sc 1).
        res = run_study(
            fig3_processors.SPEC,
            scenarios=(1,),
            grid=np.array([64.0, 256.0, 2048.0]),
            settings=SETTINGS,
        )
        H = res[1].column_array("scenario_1")
        assert H[1] < H[0]
        assert H[1] < H[2]


class TestFig4:
    @pytest.fixture(scope="class")
    def results(self):
        return run_study(fig4_alpha.SPEC, grid=(0.1, 0.001, 0.0), settings=SETTINGS)

    def test_p_star_grows_as_alpha_drops(self, results):
        P = results[0]
        for col in ("sc1_optimal", "sc3_optimal", "sc5_optimal"):
            values = P.column_array(col)
            assert values[0] < values[1] < values[2]

    def test_alpha_zero_has_no_first_order(self, results):
        P = results[0]
        assert P.column("sc1_first_order")[-1] is None

    def test_overhead_tracks_alpha_floor(self, results):
        H = results[2]
        h1 = H.column_array("sc1_optimal")
        assert h1[0] > 0.1  # alpha = 0.1 floor
        assert h1[1] < 0.01  # alpha = 0.001 regime
        assert h1[2] < h1[1]  # alpha = 0 smaller still

    def test_alpha_zero_overhead_positive(self, results):
        # Paper: strictly above 1e-5 at alpha = 0 (no free lunch).
        H = results[2]
        assert H.column_array("sc1_optimal")[-1] > 1e-5


class TestFig5:
    @pytest.fixture(scope="class")
    def results(self):
        return run_study(
            fig5_error_rate.SPEC, grid=np.logspace(-12, -8, 5), settings=NO_SIM
        )

    def test_slope_fits_match_theory(self, results):
        notes = "\n".join(results[0].notes)
        # Fitted orders quoted against theory in the notes.
        assert "theory -0.250" in notes
        assert "theory -0.333" in notes

    def test_p_star_decreases_with_lambda(self, results):
        P = results[0]
        for col in ("sc1_optimal", "sc3_optimal"):
            values = P.column_array(col)
            assert np.all(np.diff(values) < 0)

    def test_numerical_order_near_quarter_sc1(self, results):
        from repro.analysis.asymptotics import fit_loglog_slope

        P = results[0]
        lams = P.column_array("lambda_ind")
        fit = fit_loglog_slope(lams, P.column_array("sc1_optimal"))
        assert fit.matches(-0.25, tol=0.03)

    def test_numerical_order_near_third_sc3(self, results):
        from repro.analysis.asymptotics import fit_loglog_slope

        P = results[0]
        lams = P.column_array("lambda_ind")
        fit = fit_loglog_slope(lams, P.column_array("sc3_optimal"))
        assert fit.matches(-1.0 / 3.0, tol=0.03)

    def test_simulated_overhead_tends_to_floor(self):
        res = run_study(
            fig5_error_rate.SPEC,
            grid=np.array([1e-12, 1e-8]),
            scenarios=(1,),
            settings=SETTINGS,
        )
        H = res[2].column_array("sc1_optimal")
        assert H[0] < H[1]  # more reliable -> closer to 0.1
        assert H[0] == pytest.approx(0.1, abs=0.005)


class TestFig6:
    @pytest.fixture(scope="class")
    def results(self):
        return run_study(
            fig6_alpha_zero.SPEC, grid=np.logspace(-11, -8, 4), settings=NO_SIM
        )

    def test_orders(self, results):
        from repro.analysis.asymptotics import fit_loglog_slope

        P = results[0]
        lams = P.column_array("lambda_ind")
        fit1 = fit_loglog_slope(lams, P.column_array("scenario_1"))
        fit3 = fit_loglog_slope(lams, P.column_array("scenario_3"))
        assert fit1.matches(-0.5, tol=0.05)
        assert fit3.matches(-1.0, tol=0.05)

    def test_period_constant_for_bounded_costs(self, results):
        T = results[1]
        values = T.column_array("scenario_3")
        assert values.max() / values.min() < 1.05  # O(1) in lambda

    def test_period_grows_for_linear_costs(self, results):
        T = results[1]
        values = T.column_array("scenario_1")
        assert values[0] > values[-1] * 10  # ~ lambda^-1/2 over 3 decades


class TestFig7:
    @pytest.fixture(scope="class")
    def results(self):
        return run_study(
            fig7_downtime.SPEC, grid=np.array([0.0, 5400.0, 10800.0]), settings=SETTINGS
        )

    def test_first_order_flat_in_d(self, results):
        P = results[0]
        values = P.column_array("sc1_first_order")
        assert values.max() == values.min()

    def test_numerical_decreases_in_d(self, results):
        P = results[0]
        values = P.column_array("sc1_optimal")
        assert values[0] > values[-1]

    def test_overheads_stay_close(self, results):
        H = results[2]
        fo = H.column_array("sc1_first_order")
        opt = H.column_array("sc1_optimal")
        assert np.all(np.abs(fo - opt) / opt < 0.05)
