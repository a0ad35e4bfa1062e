"""Figure 6 bench: error-rate sweep for perfectly parallel jobs (alpha=0)."""

from __future__ import annotations

from repro.analysis.asymptotics import fit_loglog_slope
from repro.experiments import fig6_alpha_zero
from repro.experiments.spec import run_study

from conftest import emit


def test_fig6_hera(benchmark, sim_settings):
    results = benchmark.pedantic(
        lambda: run_study(fig6_alpha_zero.SPEC, platform="Hera", settings=sim_settings),
        rounds=1,
        iterations=1,
    )
    emit(results)
    processors, periods, overheads = results
    lams = processors.column_array("lambda_ind")
    # Numerical orders reported by the paper: -1/2 (sc 1), -1 (sc 3/5).
    assert fit_loglog_slope(lams, processors.column_array("scenario_1")).matches(
        -0.5, tol=0.05
    )
    assert fit_loglog_slope(lams, processors.column_array("scenario_3")).matches(
        -1.0, tol=0.05
    )
    # T* ~ O(1) for bounded costs: flat across four decades of lambda.
    T3 = periods.column_array("scenario_3")
    assert T3.max() / T3.min() < 1.1
    # Simulated overhead scales ~ lambda^1/2 (sc 1) and ~ lambda (sc 3).
    H1 = overheads.column_array("scenario_1")
    H3 = overheads.column_array("scenario_3")
    assert fit_loglog_slope(lams, H1).matches(0.5, tol=0.1)
    assert fit_loglog_slope(lams, H3).matches(1.0, tol=0.1)
