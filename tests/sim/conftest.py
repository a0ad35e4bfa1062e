"""Simulation-layer fixtures: resolving plain requests end to end."""

from __future__ import annotations

import pytest

from repro.experiments.common import SimSettings
from repro.experiments.pipeline import SimulationPipeline
from repro.sim.montecarlo import Fidelity
from repro.sim.plan import request_key


def _resolve(requests, **pipeline_kwargs):
    """Declare ``requests`` on one :class:`SimulationPipeline`, resolve
    them, and return ``(estimates, pipeline)``: the pipeline's memoised
    :class:`~repro.sim.results.OverheadEstimate` of each request, in
    submission order, and the (closed) pipeline for its cache counters."""
    with SimulationPipeline(**pipeline_kwargs) as pipe:
        for r in requests:
            settings = SimSettings(
                fidelity=Fidelity(r.n_runs, r.n_patterns), seed=r.seed, method=r.method
            )
            pipe.simulate_mean(r.model, r.T, r.P, settings)
        pipe.resolve()
        return [pipe._memo[request_key(r)] for r in requests], pipe


@pytest.fixture
def resolve_requests():
    return _resolve
