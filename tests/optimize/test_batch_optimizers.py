"""Batched optimisers vs their one-model calls — bit-level parity.

The batch engine's contract is strict: a model's result must not depend
on the other models in the call (same abscissas, same best-so-far
updates, same break rounds), because the figure goldens are pinned
byte-for-byte and the analytic memo keeps whichever value it computed
first.  These tests stack randomized and catalog models into one call,
solve each alone, and compare every result field with exact float
equality, plus the ``{:.6g}`` rendering the table emitters apply.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    AmdahlSpeedup,
    CheckpointCost,
    ErrorModel,
    GustafsonSpeedup,
    PatternModel,
    PowerLawSpeedup,
    ResilienceCosts,
    VerificationCost,
    stack_models,
)
from repro.optimize.allocation import optimize_allocation, optimize_allocation_batch
from repro.optimize.grid import refine_log_minimum_batch
from repro.optimize.period import _optimize_columns, optimize_period_batch
from repro.platforms import PLATFORM_NAMES, build_model

FLOATFMT = "{:.6g}"  # the emitters' float rendering (FigureResult.table)


def random_model(rng: np.random.Generator) -> PatternModel:
    """One valid model drawn across the paper's parameter regimes."""
    form = rng.choice(["constant", "linear", "scaling"])
    if form == "constant":
        checkpoint = CheckpointCost.constant(float(rng.uniform(60.0, 600.0)))
    elif form == "linear":
        checkpoint = CheckpointCost.linear(float(rng.uniform(0.1, 2.0)))
    else:
        checkpoint = CheckpointCost.scaling(float(rng.uniform(1e4, 1e6)))
    return PatternModel(
        errors=ErrorModel(
            lambda_ind=float(10.0 ** rng.uniform(-9.0, -5.0)),
            fail_stop_fraction=float(rng.choice([0.25, 0.5, 1.0])),
        ),
        costs=ResilienceCosts(
            checkpoint=checkpoint,
            verification=VerificationCost.constant(float(rng.uniform(5.0, 100.0))),
            downtime=float(rng.uniform(0.0, 7200.0)),
        ),
        speedup=AmdahlSpeedup(float(rng.choice([0.0, 1e-6, 1e-4, 1e-2]))),
    )


def assert_results_identical(batch, alone):
    """Every AllocationResult field bit-identical (NaN-aware)."""
    assert len(batch) == len(alone)
    for got, want in zip(batch, alone):
        for field in ("processors", "period", "overhead", "nfev", "at_lower", "at_upper"):
            g, w = getattr(got, field), getattr(want, field)
            if isinstance(w, float) and math.isnan(w):
                assert math.isnan(g), f"{field}: {g!r} != NaN"
            else:
                assert g == w, f"{field}: {g!r} != {w!r}"
        # The emitters render floats through {:.6g}; identical bits
        # imply identical bytes, but assert it anyway as the contract
        # the goldens actually depend on.
        for g, w in zip(
            (got.processors, got.period, got.overhead),
            (want.processors, want.period, want.overhead),
        ):
            assert FLOATFMT.format(g) == FLOATFMT.format(w)


class TestAllocationBatchParity:
    """A stacked call against one-model calls of the same engine."""

    def test_randomized_models_bit_identical(self):
        rng = np.random.default_rng(20160920)  # the paper's conference date
        models = [random_model(rng) for _ in range(24)]
        alone = [optimize_allocation(m) for m in models]
        batch = optimize_allocation_batch(models)
        assert_results_identical(batch, alone)

    def test_platform_scenarios_bit_identical(self):
        models = [build_model("Hera", sc) for sc in (1, 2, 3, 4, 5, 6)]
        alone = [optimize_allocation(m) for m in models]
        batch = optimize_allocation_batch(models)
        assert_results_identical(batch, alone)

    def test_batch_width_does_not_change_the_optimum(self):
        # 192 catalog models stack into inner zooms of up to 6,336
        # columns, past the width (about 2,800) where a broadcast
        # exponent column made numpy's power take another loop.
        models = [
            build_model(platform, sc, alpha=alpha, downtime=downtime)
            for platform in PLATFORM_NAMES
            for sc in (1, 2, 3, 4, 5, 6)
            for alpha in (0.0, 1e-6, 1e-3, 0.1)
            for downtime in (0.0, 60.0)
        ]
        assert len(models) == 192
        alone = [optimize_allocation(m) for m in models]
        assert_results_identical(optimize_allocation_batch(models), alone)

    def test_edge_pinned_brackets(self, hera_sc1, hera_sc3):
        # Hera's interior optimum sits near P ~ 200: a range entirely
        # above it is monotone increasing (lower-pinned), one entirely
        # below it monotone decreasing (upper-pinned).
        alone = [
            optimize_allocation(hera_sc1, p_min=1e4),
            optimize_allocation(hera_sc3, p_min=1e4),
        ]
        batch = optimize_allocation_batch([hera_sc1, hera_sc3], p_min=1e4)
        assert_results_identical(batch, alone)
        assert all(r.at_lower and not r.at_upper for r in batch)

        alone = [
            optimize_allocation(hera_sc1, p_max=50.0),
            optimize_allocation(hera_sc3, p_max=50.0),
        ]
        batch = optimize_allocation_batch([hera_sc1, hera_sc3], p_max=50.0)
        assert_results_identical(batch, alone)
        assert all(r.at_upper and not r.at_lower for r in batch)

    def test_mixed_speedup_profiles_fall_back(self, hera_sc1):
        # Heterogeneous profile types cannot stack; the batch entry
        # point must still answer, via one-model calls.
        gustafson = PatternModel(
            errors=hera_sc1.errors, costs=hera_sc1.costs,
            speedup=GustafsonSpeedup(0.1),
        )
        models = [hera_sc1, gustafson]
        alone = [optimize_allocation(m) for m in models]
        batch = optimize_allocation_batch(models)
        assert_results_identical(batch, alone)

    def test_single_model_and_empty(self, hera_sc3):
        assert_results_identical(
            optimize_allocation_batch([hera_sc3]),
            [optimize_allocation(hera_sc3)],
        )
        assert optimize_allocation_batch([]) == []

    def test_integer_mode(self):
        rng = np.random.default_rng(7)
        models = [random_model(rng) for _ in range(6)]
        alone = [optimize_allocation(m, integer=True) for m in models]
        batch = optimize_allocation_batch(models, integer=True)
        assert_results_identical(batch, alone)
        assert all(r.processors == int(r.processors) for r in batch)


class TestGroupedPeriodBatch:
    def test_matches_per_model_batches(self):
        rng = np.random.default_rng(42)
        models = [random_model(rng) for _ in range(5)]
        sizes = np.array([17, 9, 33, 1, 17])
        Ps = [
            np.logspace(1.0, 4.0 + j, size)
            for j, (size, _) in enumerate(zip(sizes, models))
        ]
        want_T, want_H = [], []
        for model, P in zip(models, Ps):
            T, H = optimize_period_batch(model, P)
            want_T.append(T)
            want_H.append(H)
        P = np.concatenate(Ps)
        columns = stack_models(models, repeat=sizes).prepare(P)
        got_T, got_H = _optimize_columns(columns, models, P, sizes)
        np.testing.assert_array_equal(got_T, np.concatenate(want_T))
        np.testing.assert_array_equal(got_H, np.concatenate(want_H))


class TestRefineLogMinimumBatch:
    def test_independent_columns_converge(self):
        targets = np.array([3.0, 50.0, 700.0])

        def objective(xs, idx):
            return (np.log(xs) - np.log(targets[idx])) ** 2

        result = refine_log_minimum_batch(objective, 1.0, np.full(3, 1e4))
        np.testing.assert_allclose(result.x, targets, rtol=1e-8)
        assert result.x.shape == (3,)
        assert np.all(result.nfev > 0)

    def test_columns_match_one_column_solves(self):
        targets = np.array([3.0, 50.0, 700.0])
        highs = np.array([1e2, 1e4, 1e6])

        def objective(xs, idx):
            return (np.log(xs) - np.log(targets[idx])) ** 2

        batch = refine_log_minimum_batch(objective, 1.0, highs)
        for j, (target, high) in enumerate(zip(targets, highs)):
            single = refine_log_minimum_batch(
                lambda xs, idx, t=target: (np.log(xs) - np.log(t)) ** 2,
                1.0, np.array([high]),
            )
            assert single.x[0] == batch.x[j]
            assert single.fun[0] == batch.fun[j]
            assert single.nfev[0] == batch.nfev[j]
            assert single.rounds[0] == batch.rounds[j]

    def test_monotone_objectives_pin_bounds(self):
        def objective(xs, idx):
            # column 0 decreasing (upper-pinned), column 1 increasing.
            return np.where(idx == 0, -np.log(xs), np.log(xs))

        result = refine_log_minimum_batch(objective, 1.0, np.array([1e4, 1e4]))
        assert result.x[0] == pytest.approx(1e4, rel=1e-9)
        assert result.x[1] == 1.0

    def test_all_infinite_column_reports_lower_bound(self):
        def objective(xs, idx):
            out = np.full_like(xs, np.inf)
            out[:, idx == 1] = (np.log(xs) - np.log(50.0))[:, idx == 1] ** 2
            return out

        result = refine_log_minimum_batch(objective, 1.0, np.array([1e4, 1e4]))
        # The doomed column stays at its lower bound with an infinite
        # value and must not perturb its healthy neighbour.
        assert result.x[0] == 1.0
        assert math.isinf(result.fun[0])
        np.testing.assert_allclose(result.x[1], 50.0, rtol=1e-8)


class TestStackedProfileException:
    """Where a stacked column is, and is not, bit-identical to its model.

    A stacked model carries its profile parameter as an array, so numpy
    evaluates ``P ** -gamma`` with an array exponent.  numpy's float64
    ``power`` takes a different loop for a scalar (stride-0) exponent
    than for an array one, and the two differ in the last ulp for some
    exponents (-1.0, i.e. gamma = 1, in ``overhead``; 0.5 in
    ``speedup``).  Amdahl and Gustafson profiles use no ``power`` and
    stay bit-identical; power-law results agree to 1 ulp per profile
    evaluation and to 1e-12 in the optimal overhead.
    """

    P = np.geomspace(1.0, 1e8, 2001)

    @staticmethod
    def _models(speedup):
        return [
            PatternModel(base.errors, base.costs, speedup)
            for base in (build_model(platform, sc)
                         for platform in ("Hera", "Coastal") for sc in (1, 3, 5))
        ]

    @pytest.mark.parametrize("profile", [AmdahlSpeedup, GustafsonSpeedup])
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 1.0])
    def test_amdahl_and_gustafson_columns_are_exact(self, profile, alpha):
        stacked = profile(np.full(self.P.size, alpha))
        assert np.array_equal(stacked.overhead(self.P), profile(alpha).overhead(self.P))
        models = self._models(profile(alpha))
        T = np.geomspace(10.0, 1e6, self.P.size)[:, None] * np.ones(len(models))
        H = stack_models(models).overhead(T, self.P[:, None] * np.ones(len(models)))
        for j, model in enumerate(models):
            assert np.array_equal(H[:, j], model.overhead(T[:, j], self.P))

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_power_law_profile_within_one_ulp(self, gamma):
        stacked = PowerLawSpeedup(np.full(self.P.size, gamma))
        scalar = PowerLawSpeedup(gamma)
        np.testing.assert_array_max_ulp(stacked.overhead(self.P), scalar.overhead(self.P), maxulp=1)
        np.testing.assert_array_max_ulp(stacked.speedup(self.P), scalar.speedup(self.P), maxulp=1)

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_power_law_optimum_within_1e_12(self, gamma):
        models = self._models(PowerLawSpeedup(gamma))
        for got, want in zip(optimize_allocation_batch(models),
                             [optimize_allocation(m) for m in models]):
            assert got.overhead == pytest.approx(want.overhead, rel=1e-12, abs=0.0)
