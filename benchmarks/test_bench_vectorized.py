"""Backend shoot-out: batch vs vectorized at the paper's 500x500 budget.

One workload per simulation-heavy figure (5, 6, 7): the numerically
optimal PATTERN(T*, P*) of a representative parameter point, simulated
at full paper fidelity.  The ``speedup`` tests pin the acceptance bar:
the aggregated vectorized backend must be at least 5x faster than the
per-pattern batch sampler on every workload (it lands at 10-50x here).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.optimize.allocation import optimize_allocation
from repro.platforms.catalog import DEFAULT_ALPHA
from repro.platforms.scenarios import build_model
from repro.sim.montecarlo import PAPER
from repro.sim.batch import simulate_batch
from repro.sim.rng import make_rng
from repro.sim.vectorized import simulate_vectorized

SEED = 20160913

#: The acceptance bar is 5x; CI derates via the environment because a
#: contended shared runner can compress the measured gap.
SPEEDUP_FLOOR = float(os.environ.get("REPRO_BENCH_SPEEDUP_FLOOR", "5.0"))

#: figure id -> model constructor kwargs (Hera, the headline platform).
WORKLOADS = {
    "fig5": dict(scenario_id=1, alpha=DEFAULT_ALPHA, lambda_ind=1e-9),
    "fig6": dict(scenario_id=3, alpha=0.0),
    "fig7": dict(scenario_id=1, alpha=DEFAULT_ALPHA, downtime=600.0),
}


@pytest.fixture(scope="module")
def workload_points():
    """(model, T*, P*) per figure workload, solved once per session."""
    points = {}
    for fig, kwargs in WORKLOADS.items():
        model = build_model("Hera", **kwargs)
        sol = optimize_allocation(model)
        points[fig] = (model, sol.period, sol.processors)
    return points


@pytest.mark.parametrize("fig", sorted(WORKLOADS))
def test_paper_budget_batch(benchmark, workload_points, fig):
    model, T, P = workload_points[fig]
    benchmark.group = f"{fig} paper-budget"
    benchmark.pedantic(
        lambda: simulate_batch(
            model, T, P, PAPER.n_runs, PAPER.n_patterns, make_rng(SEED)
        ),
        rounds=5,
        iterations=1,
    )


@pytest.mark.parametrize("fig", sorted(WORKLOADS))
def test_paper_budget_vectorized(benchmark, workload_points, fig):
    model, T, P = workload_points[fig]
    benchmark.group = f"{fig} paper-budget"
    benchmark.pedantic(
        lambda: simulate_vectorized(
            model, T, P, PAPER.n_runs, PAPER.n_patterns, seed=SEED
        ),
        rounds=5,
        iterations=1,
    )


def _best_of_alternating(fns, reps: int = 7) -> list[float]:
    """Best wall time of each of ``fns``, run in turn ``reps`` times.

    Alternating the callables inside one loop lets every one of them
    see the same machine state: drift between two separate timing
    phases cannot skew their ratio.
    """
    best = [float("inf")] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


@pytest.mark.parametrize("fig", sorted(WORKLOADS))
def test_vectorized_speedup_at_least_5x(workload_points, wallclock_assertions, fig):
    """The acceptance criterion of the backend: >=5x over batch."""
    model, T, P = workload_points[fig]

    def run_batch():
        simulate_batch(model, T, P, PAPER.n_runs, PAPER.n_patterns, make_rng(SEED))

    def run_vectorized():
        simulate_vectorized(model, T, P, PAPER.n_runs, PAPER.n_patterns, seed=SEED)

    run_batch(), run_vectorized()  # warm both paths
    t_batch, t_vec = _best_of_alternating([run_batch, run_vectorized])
    speedup = t_batch / t_vec
    print(f"\n  {fig}: batch {t_batch * 1e3:.2f} ms, "
          f"vectorized {t_vec * 1e3:.2f} ms, speedup {speedup:.1f}x")
    assert speedup >= SPEEDUP_FLOOR, (
        f"{fig}: vectorized only {speedup:.1f}x faster than batch "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


@pytest.mark.parametrize("fig", sorted(WORKLOADS))
def test_backends_agree_at_paper_budget(workload_points, fig):
    """Same budget, same distribution: means within pooled 5-sigma."""
    model, T, P = workload_points[fig]
    batch = simulate_batch(model, T, P, PAPER.n_runs, PAPER.n_patterns, make_rng(SEED))
    vec = simulate_vectorized(model, T, P, PAPER.n_runs, PAPER.n_patterns, seed=SEED)
    sem_b = batch.run_times.std(ddof=1) / batch.n_runs**0.5
    sem_v = vec.run_times.std(ddof=1) / vec.n_runs**0.5
    pooled = (sem_b**2 + sem_v**2) ** 0.5
    assert abs(batch.run_times.mean() - vec.run_times.mean()) < 5 * pooled
