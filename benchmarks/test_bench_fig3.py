"""Figure 3 bench: processor-count sweep on Hera (period, overhead, gap)."""

from __future__ import annotations

import numpy as np

from repro.experiments import fig3_processors
from repro.experiments.spec import run_study

from conftest import emit


def test_fig3_hera(benchmark, sim_settings):
    results = benchmark.pedantic(
        lambda: run_study(fig3_processors.SPEC, platform="Hera", settings=sim_settings),
        rounds=1,
        iterations=1,
    )
    emit(results)
    periods, overheads, gaps = results
    # (a) Theorem-1 period decreases with P for bounded-cost scenarios.
    T3 = periods.column_array("scenario_3")
    assert np.all(np.diff(T3) < 0)
    # (c) first-order vs optimal gap below the paper's 0.2% bound.
    for sc in (1, 2, 3, 4, 5, 6):
        assert np.all(gaps.column_array(f"scenario_{sc}") < 0.2)
