"""Extension bench: node-level failure superposition.

Prints the Palm-Khintchine table — simulated overhead of the Hera/sc1
optimal pattern when failures are generated per node (exponential,
stationary Weibull, fresh Weibull) against the aggregated-platform
analytic prediction — and times the node-level simulator against the
aggregated-platform protocol loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.io.tables import render_table
from repro.platforms import build_model
from repro.sim.nodes import simulate_run_nodes
from repro.sim.protocol import simulate_run
from repro.sim.rng import spawn_rngs
from repro.sim.streams import WeibullArrivals

T_OPT, P_OPT = 6554.9, 207
N_RUNS, N_PATTERNS = 25, 50


@pytest.fixture(scope="module")
def model():
    return build_model("Hera", 1)


def test_palm_khintchine_table(benchmark, model):
    lam_node = model.errors.lambda_ind * model.errors.fail_stop_fraction
    w = WeibullArrivals.from_mean(0.7, 1.0 / lam_node)
    work = N_PATTERNS * T_OPT * float(model.speedup.speedup(P_OPT))
    analytic = float(model.overhead(T_OPT, P_OPT))

    def sweep():
        rows = []
        configs = [
            ("aggregated analytic (paper)", None, None),
            ("exponential nodes", {}, 61),
            ("Weibull 0.7 nodes, stationary", {"node_process": w}, 62),
            ("Weibull 0.7 nodes, fresh machine", {"node_process": w, "stationary": False}, 63),
        ]
        for label, kwargs, seed in configs:
            if kwargs is None:
                rows.append((label, analytic))
                continue
            times = np.array(
                [
                    simulate_run_nodes(
                        model, T_OPT, P_OPT, N_PATTERNS, rng, **kwargs
                    ).total_time
                    for rng in spawn_rngs(N_RUNS, seed=seed)
                ]
            )
            rows.append((label, float(times.mean() / work)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ("failure model", "overhead"),
            rows,
            title=(
                "Hera sc1 at the optimal pattern: per-node failure laws vs the "
                "paper's aggregated Poisson platform (Palm-Khintchine in action)"
            ),
        )
    )
    by_label = dict(rows)
    # Stationary Weibull nodes behave like the Poisson platform...
    assert by_label["Weibull 0.7 nodes, stationary"] == pytest.approx(analytic, rel=0.02)
    # ...while a fresh machine of the same nodes pays infant mortality.
    assert by_label["Weibull 0.7 nodes, fresh machine"] > by_label[
        "Weibull 0.7 nodes, stationary"
    ]


def test_node_level_simulator_speed(benchmark, model):
    def run():
        return [
            simulate_run_nodes(model, T_OPT, P_OPT, N_PATTERNS, rng)
            for rng in spawn_rngs(5, seed=71)
        ]

    stats = benchmark(run)
    assert len(stats) == 5


def test_aggregated_reference_speed(benchmark, model):
    def run():
        return [
            simulate_run(model, T_OPT, P_OPT, N_PATTERNS, rng)
            for rng in spawn_rngs(5, seed=72)
        ]

    stats = benchmark(run)
    assert len(stats) == 5
