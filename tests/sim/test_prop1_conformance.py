"""Conformance gate: simulated overheads against Proposition 1's exact mean.

Every sampler estimates the same quantity, ``E(T, P) / (T S(P))`` with
``E`` from :func:`repro.core.pattern.expected_pattern_time`.  This gate
scores each sampler on a grid of the paper's platforms and scenarios,
one independent seed per point (``SEED_BASE + i``): points that shared a
seed would share their random numbers, and counting CI hits over them
would measure about one draw.

The rule was fixed before the first scoring run and is not tuned to
pass: a point fails when ``|z| > Z_FAIL``, where
``z = (mean - expected) / stderr``.  The 95% CI coverage and the mean
``z`` are printed (``pytest -s``) but not asserted: at ``n_runs=50`` the
normal CI's coverage scatters a few points around 95%.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import PLATFORM_NAMES
from repro.core.pattern import expected_pattern_time
from repro.optimize.allocation import optimize_allocation
from repro.platforms.scenarios import SCENARIO_IDS, build_model
from repro.sim.montecarlo import simulate_overhead

ALPHAS = (0.0, 0.1)
PERIOD_SCALES = (0.5, 1.0, 2.0)
N_RUNS, N_PATTERNS = 50, 100
SEED_BASE = 1000
Z_FAIL = 4.0


@pytest.fixture(scope="module")
def grid():
    """``(label, model, T, P)`` per point: T scaled around T* at P*."""
    points = []
    for platform in PLATFORM_NAMES:
        for scenario in SCENARIO_IDS:
            for alpha in ALPHAS:
                model = build_model(platform, scenario, alpha=alpha)
                opt = optimize_allocation(model)
                for scale in PERIOD_SCALES:
                    label = f"{platform} sc{scenario} alpha={alpha} T={scale}T*"
                    points.append((label, model, scale * opt.period, opt.processors))
    assert len(points) == 144
    return points


@pytest.mark.parametrize("method", ["des", "batch", "vectorized"])
def test_simulated_mean_matches_proposition1(grid, method):
    z = []
    covered = 0
    misses = []
    for i, (label, model, T, P) in enumerate(grid):
        est = simulate_overhead(
            model, T, P, n_runs=N_RUNS, n_patterns=N_PATTERNS,
            seed=SEED_BASE + i, method=method,
        )
        E = expected_pattern_time(T, P, model.errors, model.costs)
        expected = float(E / (T * model.speedup.speedup(P)))
        score = (est.mean - expected) / est.stderr
        z.append(score)
        covered += est.contains(expected)
        if abs(score) > Z_FAIL:
            misses.append(f"{label}: z = {score:+.2f}")
    z = np.asarray(z)
    print(
        f"\n[prop1] {method}: {len(z)} points, {covered / len(z):.1%} inside "
        f"the 95% CI, mean z {z.mean():+.2f}, max |z| {np.abs(z).max():.2f}"
    )
    assert not misses, "\n".join(misses)
