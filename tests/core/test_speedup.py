"""Speedup profiles: Amdahl's law (Eq. 1) and the extension profiles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.costs import CheckpointCost, VerificationCost
from repro.core.errors import ErrorModel
from repro.core.speedup import (
    AmdahlSpeedup,
    GustafsonSpeedup,
    PerfectSpeedup,
    PowerLawSpeedup,
    positive_processors,
)
from repro.exceptions import InvalidParameterError


class TestAmdahl:
    def test_single_processor_is_unit_speedup(self):
        assert AmdahlSpeedup(0.3).speedup(1) == pytest.approx(1.0)

    def test_matches_eq1(self):
        # S(P) = 1 / (alpha + (1-alpha)/P) at a hand-computed point.
        s = AmdahlSpeedup(0.1)
        assert s.speedup(9) == pytest.approx(1.0 / (0.1 + 0.9 / 9))  # = 5

    def test_overhead_is_reciprocal(self):
        s = AmdahlSpeedup(0.2)
        for P in (1, 7, 100, 1e6):
            assert s.overhead(P) * s.speedup(P) == pytest.approx(1.0)

    def test_bounded_by_inverse_alpha(self):
        s = AmdahlSpeedup(0.1)
        assert s.speedup(1e12) < 10.0
        assert s.max_speedup() == pytest.approx(10.0)

    def test_strictly_increasing(self):
        s = AmdahlSpeedup(0.05)
        P = np.logspace(0, 8, 50)
        values = s.speedup(P)
        assert np.all(np.diff(values) > 0)

    def test_asymptotic_overhead_is_alpha(self):
        assert AmdahlSpeedup(0.07).asymptotic_overhead == 0.07

    def test_alpha_zero_is_linear(self):
        s = AmdahlSpeedup(0.0)
        assert s.speedup(64) == pytest.approx(64.0)
        assert s.is_perfectly_parallel
        assert s.max_speedup() == np.inf

    def test_alpha_one_is_sequential(self):
        s = AmdahlSpeedup(1.0)
        assert s.speedup(1024) == pytest.approx(1.0)

    def test_vectorised(self):
        s = AmdahlSpeedup(0.1)
        P = np.array([1.0, 10.0, 100.0])
        out = s.overhead(P)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(1.0)

    def test_overhead_derivative_matches_numeric(self):
        s = AmdahlSpeedup(0.15)
        P = 37.0
        eps = 1e-4
        numeric = (s.overhead(P + eps) - s.overhead(P - eps)) / (2 * eps)
        assert s.overhead_derivative(P) == pytest.approx(numeric, rel=1e-6)

    def test_efficiency_decreases(self):
        s = AmdahlSpeedup(0.1)
        assert s.efficiency(1) > s.efficiency(10) > s.efficiency(100)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, np.nan])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(InvalidParameterError):
            AmdahlSpeedup(alpha)

    def test_rejects_nonpositive_processors(self):
        with pytest.raises(InvalidParameterError):
            AmdahlSpeedup(0.1).speedup(0)

    def test_callable_protocol(self):
        s = AmdahlSpeedup(0.1)
        assert s(4) == s.speedup(4)


class TestPerfect:
    def test_is_amdahl_zero(self):
        s = PerfectSpeedup()
        assert isinstance(s, AmdahlSpeedup)
        assert s.alpha == 0.0

    def test_linear(self):
        assert PerfectSpeedup().speedup(123) == pytest.approx(123.0)


class TestGustafson:
    def test_scaled_speedup_formula(self):
        g = GustafsonSpeedup(0.2)
        assert g.speedup(10) == pytest.approx(0.2 + 0.8 * 10)

    def test_single_processor(self):
        assert GustafsonSpeedup(0.4).speedup(1) == pytest.approx(1.0)

    def test_overhead_vanishes_at_scale(self):
        g = GustafsonSpeedup(0.2)
        assert g.overhead(1e9) < 1e-8
        assert g.asymptotic_overhead == 0.0

    def test_fully_sequential_asymptote(self):
        assert GustafsonSpeedup(1.0).asymptotic_overhead == 1.0

    def test_derivative_matches_numeric(self):
        g = GustafsonSpeedup(0.3)
        P = 11.0
        eps = 1e-5
        numeric = (g.overhead(P + eps) - g.overhead(P - eps)) / (2 * eps)
        assert g.overhead_derivative(P) == pytest.approx(numeric, rel=1e-5)

    def test_grows_much_faster_than_amdahl(self):
        assert GustafsonSpeedup(0.1).speedup(1e4) > AmdahlSpeedup(0.1).speedup(1e4) * 50

    def test_rejects_bad_alpha(self):
        with pytest.raises(InvalidParameterError):
            GustafsonSpeedup(-0.5)


class TestPowerLaw:
    def test_gamma_one_is_perfect(self):
        assert PowerLawSpeedup(1.0).speedup(256) == pytest.approx(256.0)

    def test_sublinear(self):
        p = PowerLawSpeedup(0.5)
        assert p.speedup(100) == pytest.approx(10.0)

    def test_overhead(self):
        p = PowerLawSpeedup(0.5)
        assert p.overhead(100) == pytest.approx(0.1)

    def test_derivative_matches_numeric(self):
        p = PowerLawSpeedup(0.7)
        P = 53.0
        eps = 1e-4
        numeric = (p.overhead(P + eps) - p.overhead(P - eps)) / (2 * eps)
        assert p.overhead_derivative(P) == pytest.approx(numeric, rel=1e-6)

    @pytest.mark.parametrize("gamma", [0.0, -0.2, 1.2])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(InvalidParameterError):
            PowerLawSpeedup(gamma)

    def test_asymptotic_overhead_zero(self):
        assert PowerLawSpeedup(0.9).asymptotic_overhead == 0.0


class TestPositiveProcessors:
    """The one ``P > 0`` check behind costs, error rates and speedups."""

    CALL_SITES = (
        ("checkpoint cost", lambda P: CheckpointCost(a=1.0, b=2.0, c=3.0)(P)),
        ("verification cost", lambda P: VerificationCost(v=1.0, u=2.0)(P)),
        ("fail-stop rate", lambda P: ErrorModel(1e-6, 0.5).fail_stop_rate(P)),
        ("silent rate", lambda P: ErrorModel(1e-6, 0.5).silent_rate(P)),
        ("total rate", lambda P: ErrorModel(1e-6, 0.5).total_rate(P)),
        ("amdahl", lambda P: AmdahlSpeedup(0.1).overhead(P)),
        ("gustafson", lambda P: GustafsonSpeedup(0.1).speedup(P)),
        ("power law", lambda P: PowerLawSpeedup(0.5).overhead(P)),
    )

    @pytest.mark.parametrize("P", [4, 4.0, np.float64(4.0), np.int64(4), np.array(4.0)])
    def test_scalars_return_plain_float(self, P):
        assert type(positive_processors(P)) is float
        assert positive_processors(P) == 4.0

    def test_arrays_return_float_arrays(self):
        out = positive_processors([1, 2, 3])
        assert isinstance(out, np.ndarray) and out.dtype == float
        assert out.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("P", [0, 0.0, -1, -2.5, np.array([1.0, 0.0]), [3.0, -1.0]])
    def test_rejects_zero_and_negative(self, P):
        with pytest.raises(InvalidParameterError, match="processor count must be positive"):
            positive_processors(P)

    def test_nan_passes(self):
        assert np.isnan(positive_processors(float("nan")))
        assert np.isnan(positive_processors(np.array([np.nan, 1.0]))[0])

    @pytest.mark.parametrize("name, call", CALL_SITES)
    def test_every_call_site_shares_the_contract(self, name, call):
        assert type(call(8)) is float
        assert type(call(np.float64(8.0))) is float
        assert isinstance(call(np.array([8.0, 16.0])), np.ndarray)
        assert np.isnan(call(float("nan")))
        for bad in (0, -1.0, np.array([8.0, 0.0])):
            with pytest.raises(
                InvalidParameterError, match=r"processor count must be positive, got"
            ):
                call(bad)
