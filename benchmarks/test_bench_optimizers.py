"""Ablations of the optimisation stack.

* nested log-zoom allocation search;
* vectorised batch period optimisation vs a scalar loop;
* log-space zoom vs a naive linear scan over the processor range.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.optimize.allocation import optimize_allocation
from repro.optimize.period import optimize_period, optimize_period_batch
from repro.platforms import build_model


@pytest.fixture(scope="module")
def model():
    return build_model("Hera", 1)


def test_nested_allocation_search(benchmark, model):
    result = benchmark(lambda: optimize_allocation(model))
    assert result.interior


def test_period_batch_vectorised(benchmark, model):
    P = np.linspace(128.0, 1536.0, 12)
    T, H = benchmark(lambda: optimize_period_batch(model, P))
    assert T.shape == (12,)


def test_period_scalar_loop(benchmark, model):
    P = np.linspace(128.0, 1536.0, 12)

    def run():
        return [optimize_period(model, float(p)) for p in P]

    results = benchmark(run)
    assert len(results) == 12


def test_naive_linear_scan_ablation(benchmark, model):
    """The strawman DESIGN.md rejects: integer scan over a bounded range.

    Only feasible at all because this scenario's optimum (~207) is tiny;
    the Figure 6 optima (1e9+) are unreachable by linear scan.
    """

    def run():
        P = np.arange(50.0, 1000.0, 10.0)
        T, H = optimize_period_batch(model, P)
        i = int(np.argmin(H))
        return P[i], H[i]

    P_best, H_best = benchmark(run)
    nested = optimize_allocation(model)
    assert H_best == pytest.approx(nested.overhead, rel=1e-3)
