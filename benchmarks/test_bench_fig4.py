"""Figure 4 bench: sequential-fraction sweep on Hera."""

from __future__ import annotations

from repro.experiments import fig4_alpha
from repro.experiments.spec import run_study

from conftest import emit


def test_fig4_hera(benchmark, sim_settings):
    results = benchmark.pedantic(
        lambda: run_study(fig4_alpha.SPEC, platform="Hera", settings=sim_settings),
        rounds=1,
        iterations=1,
    )
    emit(results)
    processors, periods, overheads = results
    # P* grows as alpha decreases (numerical column, scenario 1).
    P1 = processors.column_array("sc1_optimal")
    assert all(a < b for a, b in zip(P1, P1[1:]))
    # At alpha = 0 there is no first-order solution.
    assert processors.column("sc1_first_order")[-1] is None
    # Overhead falls toward the alpha floor.
    H1 = overheads.column_array("sc1_optimal")
    assert H1[0] > H1[-1]
