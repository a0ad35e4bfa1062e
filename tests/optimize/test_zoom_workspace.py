"""The in-place period zoom against the allocating zoom it replaced.

Every period solve runs ``optimize.period._zoom_batch_grouped``, which
evaluates each round in one :class:`repro.core.pattern.ColumnWorkspace`.
The oracle below is the zoom as it was before the workspace: it
allocates every round, takes ``np.argmin``, freezes converged groups
with ``np.where`` from the first round on, and evaluates Proposition 1
through the public ``pattern_overhead`` (non-finite read as ``+inf``).
The batch allocation oracle re-stacks the active models and re-seeds
``optimal_period`` every outer round, as the allocation optimiser did.
Every result must match bit for bit (``.view(np.uint64)``).
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
from repro.core.first_order import optimal_period
from repro.core.pattern import PreparedColumns
from repro.optimize import period
from repro.optimize.allocation import optimize_allocation_batch
from repro.optimize.grid import refine_log_minimum_batch
from repro.optimize.period import _optimize_columns, optimize_period_batch
from repro.platforms import PLATFORM_NAMES, build_model

#: Processor columns from one processor to far past every optimum.
P_GRID = np.concatenate(([1.0, 2.0], np.geomspace(4.0, 1e7, 30)))


def _overhead(model: PatternModel, T, P) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        H = np.asarray(
            pattern_overhead(T, P, model.errors, model.costs, model.speedup), dtype=float
        )
    return np.where(np.isfinite(H), H, np.inf)


def _oracle_zoom(model, P, lo, hi, points, rounds, starts, group_of):
    """The allocating zoom; also returns the round each group stopped in."""
    rows = np.arange(points)[:, None]
    cols = np.arange(P.size)
    active = np.ones(starts.size, dtype=bool)
    col_active = np.ones(P.size, dtype=bool)
    stopped = np.full(starts.size, rounds)
    for r in range(rounds):
        ratio = hi / lo
        Ts = lo[None, :] * ratio[None, :] ** (rows / (points - 1))
        Hs = _overhead(model, Ts, P[None, :])
        best = np.argmin(Hs, axis=0)
        lo = np.where(col_active, Ts[np.maximum(best - 1, 0), cols], lo)
        hi = np.where(col_active, Ts[np.minimum(best + 1, points - 1), cols], hi)
        converged = np.maximum.reduceat(hi / lo, starts) - 1.0 < 1e-11
        stopped[active & converged] = r + 1
        active &= ~converged
        if not active.any():
            break
        col_active = active[group_of]
    T_opt = np.sqrt(lo * hi)
    return T_opt, _overhead(model, T_opt, P), stopped


def _stacked(models, sizes) -> PatternModel:
    return models[0] if len(models) == 1 else stack_models(models, repeat=sizes)


def _oracle_grouped(models, P, sizes, points=17, rounds=14, seed_decades=3.0):
    """The grouped period solve (``_optimize_columns``) through the allocating zoom."""
    P = np.asarray(P, dtype=float)
    sizes = np.asarray(sizes, dtype=int)
    stacked = _stacked(models, sizes)
    T0 = np.asarray(optimal_period(P, stacked.errors, stacked.costs), dtype=float)
    lo = T0 * 10.0**-seed_decades
    hi = T0 * 10.0**seed_decades
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    group_of = np.repeat(np.arange(len(models)), sizes)
    T_opt, H_opt, stopped = _oracle_zoom(
        stacked, P, lo, hi, points, rounds, starts, group_of
    )
    pinned = ((T_opt / lo < 1.001) | (hi / T_opt < 1.001)) & np.isfinite(H_opt)
    for g, member in enumerate(models):
        idx = np.flatnonzero(pinned & (group_of == g))
        if idx.size:
            T_opt[idx], H_opt[idx], _ = _oracle_zoom(
                member, P[idx], lo[idx] * 1e-3, hi[idx] * 1e3, points, rounds,
                np.zeros(1, dtype=int), np.zeros(idx.size, dtype=int),
            )
    return T_opt, H_opt, stopped, pinned


def _oracle_allocation(models, points=33, rounds=12):
    """``optimize_allocation_batch``'s outer zoom, re-stacking every round."""
    p_maxs = [max(1e4, 100.0 / m.errors.lambda_ind) for m in models]

    def objective(xs, idx):
        k = idx.size
        T, H, _, _ = _oracle_grouped(
            [models[i] for i in idx], xs.T.ravel(), np.full(k, points)
        )
        return H.reshape(k, points).T, T.reshape(k, points).T

    return refine_log_minimum_batch(
        objective, 1.0, p_maxs, points=points, rounds=rounds, rtol=1e-10,
        track_aux=True,
    )


def _same_bits(got, want) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64)
    )


def _platform(lambda_ind, f, speedup, recovery=None) -> PatternModel:
    return PatternModel(
        errors=ErrorModel(lambda_ind=lambda_ind, fail_stop_fraction=f),
        costs=ResilienceCosts(
            checkpoint=CheckpointCost(a=60.0, b=1e4, c=0.05),
            verification=VerificationCost(v=10.0, u=500.0),
            downtime=120.0,
            recovery=recovery,
        ),
        speedup=speedup,
    )


class TestZoomWorkspaceParity:
    def _assert_grouped(self, models, P, sizes, seed_decades=3.0):
        T, H = _optimize_columns(
            _stacked(models, sizes).prepare(P), models, P, sizes, seed_decades
        )
        T_want, H_want, stopped, pinned = _oracle_grouped(
            models, P, sizes, rounds=period._ROUNDS, seed_decades=seed_decades
        )
        assert _same_bits(T, T_want)
        assert _same_bits(H, H_want)
        return stopped, pinned

    @pytest.mark.parametrize("platform", PLATFORM_NAMES)
    @pytest.mark.parametrize("scenario", [1, 2, 3, 4, 5, 6])
    def test_catalog_platforms_and_scenarios(self, platform, scenario):
        model = build_model(platform, scenario)
        T, H = optimize_period_batch(model, P_GRID)
        T_want, H_want, _, _ = _oracle_grouped([model], P_GRID, [P_GRID.size])
        assert _same_bits(T, T_want)
        assert _same_bits(H, H_want)

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
            _platform(lam, f, speedup)
            for speedup, lam, f in zip(speedups, (1e-7, 1e-8, 1e-9, 1e-6), (0.25, 0.5, 1.0, 0.1))
        ]
        self._assert_grouped(models, np.tile(P_GRID, len(models)), [P_GRID.size] * len(models))

    def test_fail_stop_free_columns(self):
        # lambda^f = 0 columns take the silent-only limit; mixed with
        # fail-stop columns, alone, and under a recovery override.
        silent = _platform(1e-8, 0.0, AmdahlSpeedup(0.1))
        mixed = [silent, _platform(1e-8, 0.5, AmdahlSpeedup(0.1))]
        self._assert_grouped([silent], P_GRID, [P_GRID.size])
        self._assert_grouped(mixed, np.tile(P_GRID, 2), [P_GRID.size] * 2)
        override = CheckpointCost(a=30.0, c=0.01)
        cheap = [_platform(1e-8, f, AmdahlSpeedup(0.1), override) for f in (0.0, 0.5)]
        self._assert_grouped(cheap, np.tile(P_GRID, 2), [P_GRID.size] * 2)

    def test_widened_bracket_path(self):
        models = [build_model("Hera", 1), build_model("Coastal", 3)]
        P = np.tile(np.geomspace(64.0, 4096.0, 9), 2)
        _, pinned = self._assert_grouped(models, P, [9, 9], seed_decades=0.01)
        assert pinned.any() and not pinned.all()

    def test_groups_converging_in_different_rounds(self, monkeypatch):
        # A column that overflows everywhere zooms onto its bracket's lower
        # edge, a sixteenth of the log-width per round, and its group stops
        # rounds before the finite one: the workspace must freeze it from
        # that round on, exactly as the allocating zoom did.
        models = [build_model("Hera", 1), build_model("Atlas", 3), build_model("Hera", 1)]
        P = np.concatenate((np.geomspace(64.0, 4096.0, 5), [1e5, 3e5], [1e12, 1e13]))
        monkeypatch.setattr(period, "_ROUNDS", 40)
        stopped, _ = self._assert_grouped(models, P, [5, 2, 2])
        assert len(set(stopped.tolist())) > 1
        assert stopped.max() < 40

    @pytest.mark.parametrize("others", [["Coastal"], []], ids=["taken", "alone"])
    def test_allocation_batch_matches_restacking_oracle(self, others, monkeypatch):
        # A perfectly parallel model with decaying costs pins to p_max and
        # leaves the outer zoom two rounds early.  The other models' later
        # rounds then zoom columns taken by index from the once-stacked
        # model, or, when one model is left, that model alone, unstacked.
        parallel = PatternModel(
            ErrorModel(lambda_ind=1e-9, fail_stop_fraction=0.5),
            ResilienceCosts(
                CheckpointCost.scaling(1e5), VerificationCost.scaling(1e3), downtime=60.0
            ),
            AmdahlSpeedup(0.0),
        )
        models = [build_model("Hera", 1), parallel] + [build_model(p, 5) for p in others]
        taken = []
        take = PreparedColumns.take
        monkeypatch.setattr(
            PreparedColumns, "take", lambda self, index: taken.append(index) or take(self, index)
        )
        got = optimize_allocation_batch(models)
        want = _oracle_allocation(models)
        assert want.rounds[1] < want.rounds[0]
        assert bool(taken) == bool(others)
        assert _same_bits([r.processors for r in got], want.x)
        assert _same_bits([r.period for r in got], want.aux)
        assert _same_bits([r.overhead for r in got], want.fun)
        assert [r.nfev for r in got] == [int(n) * 17 * 14 for n in want.nfev]
