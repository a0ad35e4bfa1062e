"""Extension bench: weak vs strong scaling under failures."""

from __future__ import annotations

import numpy as np

from repro.experiments import ext_weakscaling
from repro.experiments.spec import run_study

from conftest import emit


def test_weakscaling_hera(benchmark, sim_settings):
    results = benchmark.pedantic(
        lambda: run_study(ext_weakscaling.SPEC, platform="Hera", settings=sim_settings),
        rounds=1,
        iterations=1,
    )
    emit(results)
    sc1, sc3 = results
    # Strong scaling has a finite optimum; weak-scaling inflation is
    # monotone and catastrophically worse under linear checkpoint costs.
    H = sc1.column_array("strong_overhead")
    assert 0 < int(np.argmin(H)) < H.size - 1
    infl1 = sc1.column_array("weak_inflation")
    infl3 = sc3.column_array("weak_inflation")
    assert np.all(np.diff(infl1) > 0)
    assert infl1[-1] > 10 * infl3[-1]
