"""Ablation: the event-level protocol loop vs the vectorised sampler.

DESIGN.md's choice of several samplers for one distribution is justified
here: both are benchmarked on the same workload (Hera scenario 1 at its
numerical optimum), so the report shows the speedup factor bought by the
closed-form vectorised sampling.  The equivalence of the distributions
is asserted statistically in ``tests/sim/test_batch.py`` and against
Proposition 1 in ``tests/sim/test_prop1_conformance.py``.
"""

from __future__ import annotations

import pytest

from repro.platforms import build_model
from repro.sim.batch import simulate_batch
from repro.sim.protocol import simulate_run
from repro.sim.rng import make_rng, spawn_rngs

#: Common workload: 20 runs x 50 patterns at the Figure-2 optimum.
N_RUNS, N_PATTERNS = 20, 50
T_OPT, P_OPT = 6554.9, 207.0


@pytest.fixture(scope="module")
def model():
    return build_model("Hera", 1)


def test_event_driven_reference(benchmark, model):
    def run():
        return [
            simulate_run(model, T_OPT, P_OPT, N_PATTERNS, rng)
            for rng in spawn_rngs(N_RUNS, seed=1)
        ]

    stats = benchmark(run)
    assert len(stats) == N_RUNS


def test_vectorised_batch(benchmark, model):
    def run():
        return simulate_batch(
            model, T_OPT, P_OPT, N_RUNS, N_PATTERNS, make_rng(1)
        )

    stats = benchmark(run)
    assert stats.n_runs == N_RUNS


def test_vectorised_batch_paper_budget(benchmark, model):
    # The full Section IV-A budget (500 x 500) in one call — the
    # vectorised path makes paper-fidelity sweeps routine.
    def run():
        return simulate_batch(model, T_OPT, P_OPT, 500, 500, make_rng(2))

    stats = benchmark(run)
    assert stats.n_runs == 500
