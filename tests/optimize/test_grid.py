"""Logarithmic zooming grid search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import OptimizationError
from repro.optimize.grid import BatchGridResult, log_grid, refine_log_minimum_batch


def refine(f, lo, hi, **kwargs):
    """One-column search: ``f`` maps an abscissa vector to its values."""
    return refine_log_minimum_batch(
        lambda xs, idx: np.asarray(f(xs[:, 0]), dtype=float)[:, None], lo, hi, **kwargs
    )


class TestLogGrid:
    def test_endpoints(self):
        g = log_grid(1.0, 1000.0, 4)
        assert g[0] == pytest.approx(1.0)
        assert g[-1] == pytest.approx(1000.0)

    def test_geometric_spacing(self):
        g = log_grid(1.0, 10_000.0, 5)
        ratios = g[1:] / g[:-1]
        np.testing.assert_allclose(ratios, 10.0)

    def test_rejects_bad_range(self):
        with pytest.raises(OptimizationError):
            log_grid(10.0, 1.0, 5)
        with pytest.raises(OptimizationError):
            log_grid(0.0, 1.0, 5)
        with pytest.raises(OptimizationError):
            log_grid(1.0, 10.0, 1)


class TestRefine:
    def test_finds_interior_minimum(self):
        target = 543.21

        def f(x):
            return (np.log(x / target)) ** 2

        result = refine(f, 1.0, 1e6)
        assert result.x[0] == pytest.approx(target, rel=1e-6)

    def test_wide_dynamic_range(self):
        # Minimum at 1e10 inside [1, 1e13] — the Figure 6 situation.
        target = 1e10

        def f(x):
            return np.abs(np.log10(x) - 10.0) + 1.0

        result = refine(f, 1.0, 1e13)
        assert result.x[0] == pytest.approx(target, rel=1e-4)

    def test_monotone_decreasing_pins_upper(self):
        result = refine(lambda x: 1.0 / x, 1.0, 1e4)
        assert result.x[0] == pytest.approx(1e4, rel=1e-9)

    def test_monotone_increasing_pins_lower(self):
        result = refine(lambda x: x, 1.0, 1e4)
        assert result.x[0] == 1.0

    def test_handles_nonfinite_regions(self):
        # Simulate overflow on the right half of the domain.
        def f(x):
            x = np.asarray(x, dtype=float)
            out = (np.log(x / 100.0)) ** 2
            return np.where(x > 1e4, np.inf, out)

        result = refine(f, 1.0, 1e8)
        assert result.x[0] == pytest.approx(100.0, rel=1e-5)

    def test_all_nonfinite_reports_lower_bound(self):
        result = refine(lambda x: np.full_like(np.asarray(x, float), np.nan), 2.0, 10.0)
        assert result.x[0] == 2.0
        assert result.fun[0] == np.inf

    def test_nfev_scales_with_budget(self):
        calls = {"n": 0}

        def f(x):
            calls["n"] += np.size(x)
            return (np.log(x / 50.0)) ** 2

        result = refine(f, 1.0, 1e4, points=9, rounds=5)
        assert result.nfev[0] == calls["n"]
        assert result.nfev[0] <= 9 * 5

    def test_result_type(self):
        result = refine(lambda x: (np.log(x / 7.0)) ** 2, 1.0, 100.0)
        assert isinstance(result, BatchGridResult)
        assert result.x.shape == result.fun.shape == (1,)
        assert result.fun[0] == pytest.approx(0.0, abs=1e-12)
