"""Figure 2 bench: optimal patterns per scenario on all four platforms.

Prints, per platform, the same series the paper plots: first-order vs
numerical P* and T*, and predicted vs simulated overheads for the six
resilience scenarios.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig2_scenarios
from repro.experiments.spec import run_study
from repro.platforms import PLATFORM_NAMES

from conftest import emit


@pytest.mark.parametrize("platform", PLATFORM_NAMES)
def test_fig2_platform(benchmark, sim_settings, platform):
    results = benchmark.pedantic(
        lambda: run_study(fig2_scenarios.SPEC, platform=platform, settings=sim_settings),
        rounds=1,
        iterations=1,
    )
    emit(results)
    table = results[0]
    # Shape assertions mirroring the paper (Section IV-B.1).
    H_sim = [h for h in table.column("H_optimal_sim") if h is not None]
    assert all(0.10 < h < 0.13 for h in H_sim)
    assert table.column("P*_first_order")[5] is None  # scenario 6 numerical-only
