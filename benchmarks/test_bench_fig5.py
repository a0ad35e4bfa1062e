"""Figure 5 bench: error-rate sweep at alpha = 0.1 with slope fits."""

from __future__ import annotations

import numpy as np

from repro.analysis.asymptotics import fit_loglog_slope
from repro.experiments import fig5_error_rate
from repro.experiments.spec import run_study

from conftest import emit


def test_fig5_hera(benchmark, sim_settings):
    results = benchmark.pedantic(
        lambda: run_study(fig5_error_rate.SPEC, platform="Hera", settings=sim_settings),
        rounds=1,
        iterations=1,
    )
    emit(results)
    processors, periods, overheads = results
    lams = processors.column_array("lambda_ind")
    # Headline orders: P* ~ lambda^-1/4 (sc 1) and ~ lambda^-1/3 (sc 3).
    assert fit_loglog_slope(lams, processors.column_array("sc1_optimal")).matches(
        -0.25, tol=0.03
    )
    assert fit_loglog_slope(lams, processors.column_array("sc3_optimal")).matches(
        -1.0 / 3.0, tol=0.03
    )
    # T* ~ lambda^-1/2 (sc 1) and ~ lambda^-1/3 (sc 3).
    assert fit_loglog_slope(lams, periods.column_array("sc1_optimal")).matches(
        -0.5, tol=0.03
    )
    assert fit_loglog_slope(lams, periods.column_array("sc3_optimal")).matches(
        -1.0 / 3.0, tol=0.03
    )
    # Overhead tends to the alpha = 0.1 floor as processors become reliable.
    H1 = overheads.column_array("sc1_optimal")
    assert H1[0] < H1[-1]
    assert abs(H1[0] - 0.1) < 0.01
