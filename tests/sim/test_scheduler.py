"""Event-driven scheduler: windowing, interleaving determinism, retries.

The scheduler's contract: out-of-order future completion, the in-flight
window size, and the executor behind it change wall-clock only — the
tables that come out of the pipeline are byte-identical to the serial
path, because per-point merging happens in chunk order and every job is
a pure function of its arguments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.experiments.common import SimSettings
from repro.experiments.pipeline import SimulationPipeline
from repro.platforms.scenarios import build_model
from repro.sim.executors import (
    Executor,
    JobFuture,
    SerialExecutor,
)
from repro.sim.montecarlo import Fidelity
from repro.sim.scheduler import Scheduler, default_inflight

SETTINGS = SimSettings(fidelity=Fidelity(n_runs=6, n_patterns=10), seed=7)


def _job(value):
    return (_identity, (value,), {})


def _identity(value):
    return value


def _boom(value):
    raise ValueError(f"job {value} failed")


class RecordingExecutor(Executor):
    """Inline executor recording submission order and peak window."""

    def __init__(self):
        self.submitted = []
        self.completed = []
        self.outstanding = 0
        self.peak_outstanding = 0

    def submit(self, fn, item, tag=None):
        self.submitted.append(tag)
        self.outstanding += 1
        self.peak_outstanding = max(self.peak_outstanding, self.outstanding)
        return super().submit(fn, item, tag=tag)

    def next_completed(self):
        future = super().next_completed()
        if future is not None:
            self.outstanding -= 1
            self.completed.append(future.tag)
        return future


class ShuffledExecutor(Executor):
    """Defers execution and completes futures in seeded random order.

    A worst-case stand-in for a process pool: nothing completes in
    submission order, so any hidden completion-order dependence in the
    pipeline's bookkeeping would corrupt the merged results.
    """

    def __init__(self, seed=0):
        self._rng = np.random.default_rng(seed)
        self._waiting: list[JobFuture] = []

    def submit(self, fn, item, tag=None):
        future = JobFuture(fn, item, tag)
        self._waiting.append(future)
        return future

    def next_completed(self):
        if not self._waiting:
            return None
        index = int(self._rng.integers(len(self._waiting)))
        future = self._waiting.pop(index)
        future._run_inline()
        return future

    def map(self, fn, items):
        return [fn(item) for item in items]


class TestSchedulerLoop:
    def test_yields_every_job_with_its_tag(self):
        scheduler = Scheduler(SerialExecutor(), max_inflight=3)
        for i in range(7):
            scheduler.add(_job(i * 10), tag=i)
        events = list(scheduler.events())
        assert sorted(events) == [(i, i * 10) for i in range(7)]

    def test_serial_executor_completes_in_submission_order(self):
        scheduler = Scheduler(SerialExecutor(), max_inflight=5)
        for i in range(6):
            scheduler.add(_job(i), tag=i)
        assert [tag for tag, _ in scheduler.events()] == list(range(6))

    def test_window_is_respected(self):
        executor = RecordingExecutor()
        scheduler = Scheduler(executor, max_inflight=2)
        for i in range(8):
            scheduler.add(_job(i), tag=i)
        list(scheduler.events())
        assert executor.peak_outstanding <= 2

    def test_max_inflight_1_degenerates_to_serial(self):
        """Window 1: strict submit-complete alternation in queue order."""
        executor = RecordingExecutor()
        scheduler = Scheduler(executor, max_inflight=1)
        for i in range(5):
            scheduler.add(_job(i), tag=i)
        events = [tag for tag, _ in scheduler.events()]
        assert events == list(range(5))
        assert executor.peak_outstanding == 1
        assert executor.submitted == executor.completed == list(range(5))

    def test_default_window_scales_with_workers(self):
        assert Scheduler(SerialExecutor()).max_inflight == default_inflight(1)
        assert default_inflight(4) == 16
        assert default_inflight(0) == 1

    def test_rejects_non_positive_window(self):
        with pytest.raises(SimulationError):
            Scheduler(SerialExecutor(), max_inflight=0)

    def test_job_exception_propagates(self):
        scheduler = Scheduler(SerialExecutor(), max_inflight=2)
        scheduler.add((_boom, (1,), {}), tag="bad")
        with pytest.raises(ValueError, match="job 1 failed"):
            list(scheduler.events())

    def test_reusable_between_drains(self):
        scheduler = Scheduler(SerialExecutor(), max_inflight=2)
        scheduler.add(_job(1), tag="a")
        assert list(scheduler.events()) == [("a", 1)]
        scheduler.add(_job(2), tag="b")
        assert list(scheduler.events()) == [("b", 2)]
        assert scheduler.pending == 0 and scheduler.outstanding == 0

    def test_add_during_a_drain_joins_the_same_drain(self):
        """The consumer may stage jobs while events() is yielding.

        The loop re-reads the queue after every event, so mid-drain
        additions run in the same drain — the hook the adaptive
        replicate engine's incremental wave staging relies on.
        """
        scheduler = Scheduler(SerialExecutor(), max_inflight=2)
        scheduler.add(_job(1), tag="a")
        seen = []
        for tag, result in scheduler.events():
            seen.append((tag, result))
            if tag == "a":
                scheduler.add(_job(2), tag="b")
            if tag == "b":
                scheduler.add(_job(3), tag="c")
        assert seen == [("a", 1), ("b", 2), ("c", 3)]
        assert scheduler.pending == 0 and scheduler.outstanding == 0


class TestInterleavingDeterminism:
    """Out-of-order completion must not change a single byte."""

    def _tables(self, executor=None, max_inflight=None):
        from repro.experiments.registry import REGISTRY
        from repro.experiments.spec import stage_study

        with SimulationPipeline(executor=executor, max_inflight=max_inflight) as pipe:
            staged = stage_study(REGISTRY["fig2"], settings=SETTINGS, pipeline=pipe)
            pipe.resolve()
            return [r.table() for r in staged.finish()]

    def test_shuffled_completion_is_bit_identical(self):
        reference = self._tables()
        for seed in (1, 2, 3):
            assert self._tables(ShuffledExecutor(seed), max_inflight=4) == reference

    def test_window_size_never_changes_tables(self):
        reference = self._tables()
        for window in (1, 2, 16):
            assert self._tables(max_inflight=window) == reference

    def test_shuffled_pipeline_points_match_serial(self):
        model = build_model("Hera", 1)
        points = [(model, 4000.0 + 100 * i, 256.0) for i in range(6)]
        with SimulationPipeline() as pipe:
            serial = [pipe.simulate_mean(m, T, P, SETTINGS) for m, T, P in points]
            pipe.resolve()
        with SimulationPipeline(executor=ShuffledExecutor(9), max_inflight=2) as pipe:
            shuffled = [pipe.simulate_mean(m, T, P, SETTINGS) for m, T, P in points]
            pipe.resolve()
        assert [d.value for d in shuffled] == [d.value for d in serial]


class TestRetry:
    """Transient failures: bounded backoff resubmission, inline fallback."""

    @staticmethod
    def _policy(attempts=2, **kw):
        from repro.sim.scheduler import RetryPolicy

        slept = []
        policy = RetryPolicy(attempts=attempts, sleep=slept.append, **kw)
        return policy, slept

    def test_transient_failure_is_retried(self):
        from repro.sim.faults import FaultPlan

        policy, slept = self._policy()
        scheduler = Scheduler(
            SerialExecutor(), max_inflight=2, retry=policy,
            fault=FaultPlan(fail_job=2, fail_times=1),
        )
        for i in range(4):
            scheduler.add(_job(i * 10), tag=i)
        events = dict(scheduler.events())
        assert events == {i: i * 10 for i in range(4)}
        assert scheduler.retries == 1
        assert scheduler.inline_fallbacks == 0
        assert slept == [policy.delay(1)]

    def test_backoff_sequence_then_inline_fallback(self):
        from repro.sim.faults import FaultPlan

        policy, slept = self._policy(attempts=3)
        # Fails more times than the retry budget: the scheduler's last
        # resort runs the original (unwrapped) job inline and succeeds.
        scheduler = Scheduler(
            SerialExecutor(), max_inflight=1, retry=policy,
            fault=FaultPlan(fail_job=1, fail_times=10),
        )
        scheduler.add(_job(42), tag="only")
        assert list(scheduler.events()) == [("only", 42)]
        assert scheduler.retries == 3
        assert scheduler.inline_fallbacks == 1
        assert slept == [policy.delay(1), policy.delay(2), policy.delay(3)]
        assert slept == sorted(slept)  # exponential: non-decreasing

    def test_delay_is_capped(self):
        from repro.sim.scheduler import RetryPolicy

        policy = RetryPolicy(base_delay=1.0, backoff=10.0, max_delay=3.0)
        assert policy.delay(1) == 1.0
        assert policy.delay(5) == 3.0

    def test_deterministic_error_is_never_retried(self):
        policy, slept = self._policy()
        scheduler = Scheduler(SerialExecutor(), max_inflight=2, retry=policy)
        scheduler.add((_boom, (1,), {}), tag="bad")
        with pytest.raises(ValueError, match="job 1 failed"):
            list(scheduler.events())
        assert scheduler.retries == 0 and slept == []

    def test_retry_none_restores_fail_fast(self):
        from repro.sim.faults import FaultPlan, TransientFault

        scheduler = Scheduler(
            SerialExecutor(), max_inflight=1, retry=None,
            fault=FaultPlan(fail_job=1),
        )
        scheduler.add(_job(1), tag="a")
        with pytest.raises(TransientFault):
            list(scheduler.events())

    def test_is_transient_taxonomy(self):
        from concurrent.futures import CancelledError
        from concurrent.futures.process import BrokenProcessPool

        from repro.sim.scheduler import is_transient

        assert is_transient(OSError("io"))
        assert is_transient(BrokenProcessPool("pool"))
        assert is_transient(CancelledError())
        assert not is_transient(ValueError("logic"))
        assert not is_transient(SimulationError("domain"))

    def test_retried_results_are_bit_identical(self):
        """A retried sweep produces exactly the no-fault values."""
        from repro.sim.faults import FaultPlan

        model = build_model("Hera", 1)

        def run(fault):
            policy, _ = self._policy(attempts=5)
            with SimulationPipeline(
                executor=SerialExecutor(), retry=policy, fault=fault
            ) as pipe:
                points = [
                    pipe.simulate_mean(model, 3600.0 + i, 700.0, SETTINGS)
                    for i in range(4)
                ]
                pipe.resolve()
                return [p.value for p in points]

        clean = run(None)
        faulty = run(FaultPlan(fail_job=2, fail_times=2))
        assert faulty == clean
