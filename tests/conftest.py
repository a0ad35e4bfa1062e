"""Shared fixtures: representative models at several parameter scales,
and an executor that completes jobs out of order."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AmdahlSpeedup,
    CheckpointCost,
    ErrorModel,
    PatternModel,
    ResilienceCosts,
    VerificationCost,
)
from repro.platforms import build_model
from repro.sim.executors import Executor, JobFuture


class ShuffledExecutor(Executor):
    """Defers execution and completes futures in seeded random order.

    A worst-case stand-in for a process pool: nothing completes in
    submission order, so any hidden completion-order dependence in the
    pipeline's bookkeeping would corrupt the merged results.  Its
    ``workers`` sizes the scheduler's default in-flight window.
    """

    def __init__(self, seed=0, workers=1):
        self.workers = workers
        self._rng = np.random.default_rng(seed)
        self._waiting: list[JobFuture] = []

    def submit(self, fn, item, tag=None):
        future = JobFuture(fn, item, tag)
        self._waiting.append(future)
        return future

    def next_completed(self):
        if not self._waiting:
            return None
        future = self._waiting.pop(int(self._rng.integers(len(self._waiting))))
        future._run_inline()
        return future


@pytest.fixture
def shuffled_executor():
    """The :class:`ShuffledExecutor` class: ``shuffled_executor(seed)``."""
    return ShuffledExecutor


@pytest.fixture
def simple_errors() -> ErrorModel:
    """A mid-scale error model: MTBF ~11.6 days/processor, half fail-stop."""
    return ErrorModel(lambda_ind=1e-6, fail_stop_fraction=0.5)


@pytest.fixture
def simple_costs() -> ResilienceCosts:
    """Constant costs: C=R=60s, V=10s, D=120s (textbook Young/Daly shape)."""
    return ResilienceCosts.simple(checkpoint=60.0, verification=10.0, downtime=120.0)


@pytest.fixture
def simple_model(simple_errors, simple_costs) -> PatternModel:
    """Amdahl alpha=0.1 application on the simple platform."""
    return PatternModel(errors=simple_errors, costs=simple_costs, speedup=AmdahlSpeedup(0.1))


@pytest.fixture
def linear_cost_model() -> PatternModel:
    """Theorem-2 regime: checkpoint cost grows linearly with P."""
    return PatternModel(
        errors=ErrorModel(lambda_ind=1e-8, fail_stop_fraction=0.25),
        costs=ResilienceCosts(
            checkpoint=CheckpointCost.linear(0.5),
            verification=VerificationCost.constant(15.0),
            downtime=3600.0,
        ),
        speedup=AmdahlSpeedup(0.1),
    )


@pytest.fixture
def constant_cost_model() -> PatternModel:
    """Theorem-3 regime: bounded combined cost."""
    return PatternModel(
        errors=ErrorModel(lambda_ind=1e-8, fail_stop_fraction=0.25),
        costs=ResilienceCosts(
            checkpoint=CheckpointCost.constant(300.0),
            verification=VerificationCost.constant(15.0),
            downtime=3600.0,
        ),
        speedup=AmdahlSpeedup(0.1),
    )


@pytest.fixture
def decaying_cost_model() -> PatternModel:
    """Case-3 regime: combined cost decays as h/P."""
    return PatternModel(
        errors=ErrorModel(lambda_ind=1e-8, fail_stop_fraction=0.25),
        costs=ResilienceCosts(
            checkpoint=CheckpointCost.scaling(300.0 * 512),
            verification=VerificationCost.scaling(15.0 * 512),
            downtime=3600.0,
        ),
        speedup=AmdahlSpeedup(0.1),
    )


@pytest.fixture
def hera_sc1() -> PatternModel:
    """Hera platform under scenario 1 (the paper's headline configuration)."""
    return build_model("Hera", 1)


@pytest.fixture
def hera_sc3() -> PatternModel:
    return build_model("Hera", 3)


@pytest.fixture
def hera_sc5() -> PatternModel:
    return build_model("Hera", 5)


@pytest.fixture
def hera_sc6() -> PatternModel:
    return build_model("Hera", 6)
