"""Prepared-column kernel vs Proposition 1's public overhead evaluator.

``PatternModel.prepare(P).overhead(T)`` is the evaluator every period
zoom runs; ``pattern_overhead`` is the oracle.  They must agree bit for
bit once the oracle's non-finite values are read as ``+inf``, which is
how the optimisers consume both.
"""

from __future__ import annotations

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
    pattern_overhead,
    stack_models,
)
from repro.exceptions import InvalidParameterError
from repro.platforms import PLATFORM_NAMES, build_model

#: Processor columns, from one processor to far past every optimum.
P_COLUMNS = np.concatenate(([1.0, 2.0, 3.0], np.logspace(0.5, 9.0, 24)))
#: Periods from a millisecond to where every exponential overflows.
T_ROWS = np.logspace(-3.0, 15.0, 19)


def _oracle(model: PatternModel, T, P) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        H = np.asarray(
            pattern_overhead(T, P, model.errors, model.costs, model.speedup), dtype=float
        )
    return np.where(np.isfinite(H), H, np.inf)


def _assert_parity(model: PatternModel, P: np.ndarray) -> None:
    columns = model.prepare(P)
    grid = T_ROWS[:, None] * np.ones(P.size)  # (rows, columns), as the zoom
    assert np.array_equal(columns.overhead(grid), _oracle(model, grid, P[None, :]))
    row = np.geomspace(10.0, 1e6, P.size)  # (columns,), as the final H_opt
    assert np.array_equal(columns.overhead(row), _oracle(model, row, P))


def _platform(lambda_ind, f, alpha=0.1, recovery=None, speedup=None) -> PatternModel:
    return PatternModel(
        errors=ErrorModel(lambda_ind=lambda_ind, fail_stop_fraction=f),
        costs=ResilienceCosts(
            checkpoint=CheckpointCost(a=60.0, b=1e4, c=0.05),
            verification=VerificationCost(v=10.0, u=500.0),
            downtime=120.0,
            recovery=recovery,
        ),
        speedup=speedup if speedup is not None else AmdahlSpeedup(alpha),
    )


class TestPreparedColumnsParity:
    @pytest.mark.parametrize("platform", PLATFORM_NAMES)
    @pytest.mark.parametrize("scenario", [1, 2, 3, 4, 5, 6])
    def test_catalog_platforms_and_scenarios(self, platform, scenario):
        _assert_parity(build_model(platform, scenario), P_COLUMNS)

    @pytest.mark.parametrize(
        "speedups",
        [
            [AmdahlSpeedup(a) for a in (0.0, 0.1, 0.5, 1.0)],
            [GustafsonSpeedup(a) for a in (0.0, 0.1, 0.5, 1.0)],
            [PowerLawSpeedup(g) for g in (0.25, 0.5, 0.9, 1.0)],
        ],
        ids=["amdahl", "gustafson", "powerlaw"],
    )
    def test_stacked_speedup_profiles(self, speedups):
        models = [
            _platform(lam, f, speedup=s)
            for s, (lam, f) in zip(speedups, [(1e-6, 0.5), (1e-9, 1.0), (3e-8, 0.2), (1e-4, 0.9)])
        ]
        self._assert_stacked(models)

    def test_stacked_recovery_override(self):
        models = [
            _platform(1e-7, f, recovery=CheckpointCost(a=a, b=b, c=c))
            for f, (a, b, c) in zip(
                (0.25, 0.5, 1.0), [(30.0, 0.0, 0.0), (0.0, 2e5, 0.0), (5.0, 0.0, 0.3)]
            )
        ]
        self._assert_stacked(models)

    def test_silent_only_columns_mixed_with_fail_stop(self):
        # f = 0 and lambda_ind = 0 give lambda^f = 0 (the exact silent-only
        # limit); they share one stacked solve with f > 0 and f = 1 columns.
        models = [
            _platform(1e-6, 0.0),
            _platform(1e-6, 0.5),
            _platform(0.0, 0.5),
            _platform(1e-8, 1.0),
            _platform(1e-3, 0.0),
        ]
        self._assert_stacked(models)

    def test_single_silent_only_model(self):
        _assert_parity(_platform(1e-6, 0.0), P_COLUMNS)

    def test_all_fail_stop(self):
        _assert_parity(_platform(1e-6, 1.0), P_COLUMNS)

    def test_overflowing_periods_read_as_inf(self):
        model = build_model("Hera", 1)
        P = np.array([1.0, 1e4, 1e8])
        H = model.prepare(P).overhead(np.full(3, 1e15))
        assert np.all(H == np.inf)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_period_raises(self, bad):
        model = build_model("Hera", 1)
        columns = model.prepare(np.array([64.0, 512.0]))
        with pytest.raises(InvalidParameterError):
            columns.overhead(np.array([[100.0, bad], [200.0, 300.0]]))
        with pytest.raises(InvalidParameterError):
            pattern_overhead(bad, 512.0, model.errors, model.costs, model.speedup)
        with pytest.raises(InvalidParameterError):
            model.overhead(np.array([100.0, bad]), 512.0)

    @staticmethod
    def _assert_stacked(models):
        stacked = stack_models(models, repeat=P_COLUMNS.size)
        P = np.tile(P_COLUMNS, len(models))
        _assert_parity(stacked, P)
