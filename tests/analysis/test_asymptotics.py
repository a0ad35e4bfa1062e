"""Log-log slope fitting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.asymptotics import fit_loglog_slope
from repro.exceptions import InvalidParameterError


class TestFit:
    def test_exact_power_law(self):
        x = np.logspace(-12, -8, 9)
        y = 3.7 * x**-0.25
        fit = fit_loglog_slope(x, y)
        assert fit.slope == pytest.approx(-0.25, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.n_points == 9

    def test_predict_roundtrip(self):
        x = np.logspace(0, 4, 5)
        y = 2.0 * x**1.5
        fit = fit_loglog_slope(x, y)
        np.testing.assert_allclose(fit.predict(x), y, rtol=1e-10)

    def test_matches_helper(self):
        x = np.logspace(-10, -6, 5)
        fit = fit_loglog_slope(x, x**-0.33)
        assert fit.matches(-1.0 / 3.0, tol=0.01)
        assert not fit.matches(-0.5, tol=0.01)

    def test_noisy_data_r_squared(self):
        rng = np.random.default_rng(0)
        x = np.logspace(0, 3, 30)
        y = x**-0.5 * np.exp(rng.normal(0, 0.05, x.size))
        fit = fit_loglog_slope(x, y)
        assert fit.slope == pytest.approx(-0.5, abs=0.05)
        assert 0.9 < fit.r_squared < 1.0

    def test_constant_data(self):
        x = np.logspace(0, 2, 5)
        fit = fit_loglog_slope(x, np.full(5, 7.0))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            fit_loglog_slope(np.array([1.0, 2.0]), np.array([1.0, -2.0]))

    def test_rejects_single_point(self):
        with pytest.raises(InvalidParameterError):
            fit_loglog_slope(np.array([1.0]), np.array([1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            fit_loglog_slope(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


class TestOrderEstimation:
    def test_theorem2_order_on_closed_form(self):
        # Feed the Theorem-2 P* formula and recover -1/4.
        from repro.core import optimal_pattern
        from repro.platforms import build_model

        lams = np.logspace(-12, -8, 5)
        P = [
            optimal_pattern(build_model("Hera", 1, lambda_ind=float(l))).processors
            for l in lams
        ]
        assert fit_loglog_slope(lams, P).slope == pytest.approx(-0.25, abs=1e-9)

    def test_theorem3_order_on_closed_form(self):
        from repro.core import optimal_pattern
        from repro.platforms import build_model

        lams = np.logspace(-12, -8, 5)
        P = [
            optimal_pattern(build_model("Hera", 3, lambda_ind=float(l))).processors
            for l in lams
        ]
        assert fit_loglog_slope(lams, P).slope == pytest.approx(-1.0 / 3.0, abs=1e-9)

