"""Figure 7 bench: downtime sweep on Hera."""

from __future__ import annotations

import numpy as np

from repro.experiments import fig7_downtime
from repro.experiments.spec import run_study

from conftest import emit


def test_fig7_hera(benchmark, sim_settings):
    results = benchmark.pedantic(
        lambda: run_study(fig7_downtime.SPEC, platform="Hera", settings=sim_settings),
        rounds=1,
        iterations=1,
    )
    emit(results)
    processors, periods, overheads = results
    # First-order P* does not depend on D; numerical P* decreases.
    fo = processors.column_array("sc1_first_order")
    assert fo.max() == fo.min()
    num = processors.column_array("sc1_optimal")
    assert num[0] > num[-1]
    # Yet the simulated overheads of the two stay nearly identical.
    H_fo = overheads.column_array("sc1_first_order")
    H_num = overheads.column_array("sc1_optimal")
    assert np.all(np.abs(H_fo - H_num) / H_num < 0.05)
