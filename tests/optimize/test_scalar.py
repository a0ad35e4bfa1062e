"""Scalar minimiser: Brent — vs scipy."""

from __future__ import annotations

import math

import pytest
from scipy import optimize as sp_optimize

from repro.exceptions import OptimizationError
from repro.optimize.scalar import brent, minimize_scalar


def quadratic(x: float) -> float:
    return (x - 3.7) ** 2 + 1.5


def quartic(x: float) -> float:
    return (x - 1.0) ** 4 + 0.1 * x


def cosh_like(x: float) -> float:
    # Smooth, asymmetric, single minimum — like our overhead objective.
    return 5.0 / x + 0.002 * x + 0.1 if x > 0 else math.inf


class TestBrent:
    def test_quadratic_high_precision(self):
        result = brent(quadratic, 0.0, 10.0)
        assert result.converged
        assert result.x == pytest.approx(3.7, abs=1e-9)
        assert result.fun == pytest.approx(1.5, abs=1e-12)

    def test_matches_scipy_on_quartic(self):
        ours = brent(quartic, -5.0, 5.0)
        scipy_result = sp_optimize.minimize_scalar(
            quartic, bounds=(-5, 5), method="bounded", options={"xatol": 1e-12}
        )
        assert ours.x == pytest.approx(scipy_result.x, abs=1e-6)

    def test_matches_scipy_on_overhead_shape(self):
        ours = brent(cosh_like, 1.0, 10_000.0)
        scipy_result = sp_optimize.minimize_scalar(
            cosh_like, bounds=(1, 10_000), method="bounded", options={"xatol": 1e-10}
        )
        assert ours.x == pytest.approx(scipy_result.x, rel=1e-6)

    @pytest.mark.parametrize(
        "f, lo, hi", [(quadratic, 0.0, 10.0), (cosh_like, 1.0, 10_000.0)]
    )
    def test_fewer_evaluations_than_golden_section(self, f, lo, hi):
        # Pure golden section needs log(2 tol / (hi - lo)) / log(0.618)
        # evaluations to shrink the bracket to the same tolerance.
        result = brent(f, lo, hi, xtol=1e-12, rtol=0.0)
        gold = (math.sqrt(5.0) - 1.0) / 2.0
        assert result.converged
        assert result.nfev < math.log(2e-12 / (hi - lo)) / math.log(gold)

    def test_iteration_cap_reports_not_converged(self):
        result = brent(quadratic, 0.0, 10.0, max_iter=3)
        assert not result.converged
        assert result.iterations == 3
        assert result.nfev == 4

    def test_minimum_at_edge(self):
        result = brent(lambda x: x, 0.0, 1.0)
        assert result.x == pytest.approx(0.0, abs=1e-6)

    def test_invalid_interval(self):
        with pytest.raises(OptimizationError):
            brent(quadratic, 2.0, 2.0)


class TestMinimizeScalar:
    def test_with_bounds(self):
        result = minimize_scalar(quadratic, bounds=(0.0, 10.0))
        assert result.x == pytest.approx(3.7, abs=1e-8)

    def test_invalid_bounds(self):
        with pytest.raises(OptimizationError):
            minimize_scalar(quadratic, bounds=(10.0, 0.0))
        with pytest.raises(OptimizationError):
            minimize_scalar(quadratic, bounds=(1.0, 1.0))

    def test_nfev_accounting(self):
        calls = []

        def f(x):
            calls.append(x)
            return quadratic(x)

        result = minimize_scalar(f, bounds=(0.0, 10.0))
        assert result.nfev == len(calls)
        assert result.fun == quadratic(result.x)

    def test_forwards_tolerances_to_brent(self):
        kwargs = dict(xtol=1e-6, rtol=0.0, max_iter=4)
        assert minimize_scalar(quadratic, (0.0, 10.0), **kwargs) == brent(
            quadratic, 0.0, 10.0, **kwargs
        )
