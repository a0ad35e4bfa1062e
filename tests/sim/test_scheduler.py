"""Event-driven scheduler: windowing, interleaving determinism, retries.

The scheduler's contract: out-of-order future completion, the in-flight
window size, and the executor behind it change wall-clock only — the
tables that come out of the pipeline are byte-identical to the serial
path, because per-point merging happens in chunk order and every job is
a pure function of its arguments.
"""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.experiments.common import SimSettings
from repro.experiments.pipeline import SimulationPipeline
from repro.platforms.scenarios import build_model
from repro.sim.executors import Executor, SerialExecutor
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


class ListTrace:
    """An in-memory trace writer: the scheduler's events as dicts."""

    enabled = True

    def __init__(self):
        self.events = []

    def event(self, ev, **fields):
        self.events.append({"ev": ev, **fields})

    def submitted(self):
        """Job labels in submission order, resubmissions included."""
        return [e["job"] for e in self.events if e["ev"] == "job_submit"]


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


def _fig2_tables(executor=None):
    """Figure 2's tables at :data:`SETTINGS`, resolved on ``executor``."""
    from repro.experiments.registry import REGISTRY
    from repro.experiments.spec import stage_study

    with SimulationPipeline(executor=executor) as pipe:
        staged = stage_study(REGISTRY["fig2"], settings=SETTINGS, pipeline=pipe)
        pipe.resolve()
        return [r.table() for r in staged.finish()]


class TestInterleavingDeterminism:
    """Out-of-order completion must not change a single byte."""

    def test_shuffled_completion_is_bit_identical(self, shuffled_executor):
        reference = _fig2_tables()
        for seed in (1, 2, 3):
            assert _fig2_tables(shuffled_executor(seed)) == reference

    def test_window_size_never_changes_tables(self, shuffled_executor):
        reference = _fig2_tables()
        for workers in (1, 2, 4):  # windows of 4, 8 and 16 jobs
            executor = shuffled_executor(seed=workers, workers=workers)
            assert _fig2_tables(executor) == reference

    def test_shuffled_pipeline_points_match_serial(self, shuffled_executor):
        model = build_model("Hera", 1)
        points = [(model, 4000.0 + 100 * i, 256.0) for i in range(6)]
        with SimulationPipeline() as pipe:
            serial = [pipe.simulate_mean(m, T, P, SETTINGS) for m, T, P in points]
            pipe.resolve()
        with SimulationPipeline(executor=shuffled_executor(9)) as pipe:
            shuffled = [pipe.simulate_mean(m, T, P, SETTINGS) for m, T, P in points]
            pipe.resolve()
        assert [d.value for d in shuffled] == [d.value for d in serial]


class TestRetry:
    """Transient failures: bounded backoff resubmission, inline fallback."""

    @staticmethod
    def _policy(attempts=2, **kw):
        from repro.sim.scheduler import RetryPolicy

        slept = []
        # A frozen clock: no time passes between a failure and the wait,
        # so each backoff is waited out in one sleep of its full delay.
        policy = RetryPolicy(
            attempts=attempts, sleep=slept.append, clock=lambda: 0.0, **kw
        )
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

    def test_backoff_never_stalls_dispatch(self, shuffled_executor):
        """A retry waits out its backoff beside the loop: ready jobs are
        submitted and completions consumed meanwhile, and the scheduler
        sleeps only with nothing in flight, until the retry is due."""
        from repro.sim.faults import FaultPlan
        from repro.sim.scheduler import RetryPolicy

        now = [0.0]
        slept = []

        def sleep(seconds):
            assert scheduler.outstanding == 0
            slept.append(seconds)
            now[0] += seconds

        trace = ListTrace()
        policy = RetryPolicy(attempts=2, sleep=sleep, clock=lambda: now[0])
        scheduler = Scheduler(
            shuffled_executor(3), max_inflight=3, retry=policy,
            fault=FaultPlan(fail_job=1, fail_times=2), trace=trace,
        )
        for i in range(8):
            scheduler.add(_job(i * 10), tag=i)
        events = dict(scheduler.events())
        assert events == {i: i * 10 for i in range(8)}
        assert scheduler.retries == 2
        # Every first submission went ahead of the not-yet-due retries.
        assert trace.submitted() == [*map(str, range(8)), "0", "0"]
        assert slept == pytest.approx([policy.delay(1), policy.delay(2)])

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


class TestCoalescedTasks:
    """Pooled executors receive guided-self-scheduled tasks of jobs."""

    @staticmethod
    def _pooled(shuffled_executor, seed=0, workers=2, broken=()):
        """A shuffled pooled fake recording task sizes and the window.

        Tasks whose id is in ``broken`` fail once as a whole, the way a
        dead worker fails every task in flight on its pool.
        """
        from concurrent.futures.process import BrokenProcessPool

        class Pooled(shuffled_executor):
            def __init__(self):
                super().__init__(seed, workers=workers)
                self.sizes = []
                self.peak = 0
                self.broken = set(broken)

            def submit(self, fn, item, tag=None):
                self.sizes.append(len(item))
                future = super().submit(fn, item, tag=tag)
                self.peak = max(self.peak, len(self._waiting))
                return future

            def next_completed(self):
                future = super().next_completed()
                if future is not None and future.tag in self.broken:
                    self.broken.discard(future.tag)
                    future._error = BrokenProcessPool("a worker died")
                return future

        return Pooled()

    def test_task_sizes_follow_guided_self_scheduling(self, shuffled_executor):
        executor = self._pooled(shuffled_executor)
        scheduler = Scheduler(executor, max_inflight=4)
        for i in range(20):
            scheduler.add(_job(i), tag=i)
        assert dict(scheduler.events()) == {i: i for i in range(20)}
        # ceil(queued / 4): large while the queue is long, then single jobs.
        assert executor.sizes[:4] == [5, 4, 3, 2]
        assert executor.sizes[-1] == 1
        assert sum(executor.sizes) == 20
        assert scheduler.tasks == len(executor.sizes)

    def test_serial_executor_keeps_single_job_tasks(self):
        executor = RecordingExecutor()
        scheduler = Scheduler(executor, max_inflight=2)
        for i in range(9):
            scheduler.add(_job(i), tag=i)
        assert [tag for tag, _ in scheduler.events()] == list(range(9))
        assert scheduler.tasks == 9

    def test_tasks_in_flight_never_exceed_the_window(self, shuffled_executor):
        for window in (1, 3, 8):
            executor = self._pooled(shuffled_executor, seed=window)
            scheduler = Scheduler(executor, max_inflight=window)
            for i in range(50):
                scheduler.add(_job(i), tag=i)
            assert dict(scheduler.events()) == {i: i for i in range(50)}
            assert executor.peak <= window
            assert max(executor.sizes) > 1

    def test_shuffled_multi_job_tasks_are_bit_identical(self, shuffled_executor):
        reference = _fig2_tables()
        for seed in (1, 2):
            executor = self._pooled(shuffled_executor, seed=seed, workers=2)
            tables = _fig2_tables(executor)
            assert tables == reference
            assert max(executor.sizes) > 1

    def test_transient_member_failure_retries_only_that_member(
        self, shuffled_executor
    ):
        from repro.sim.faults import FaultPlan

        trace = ListTrace()
        policy, _ = TestRetry._policy()
        scheduler = Scheduler(
            self._pooled(shuffled_executor), max_inflight=2, retry=policy,
            fault=FaultPlan(fail_job=3), trace=trace,
        )
        for i in range(8):
            scheduler.add(_job(i * 10), tag=i)
        assert dict(scheduler.events()) == {i: i * 10 for i in range(8)}
        submits = [e for e in trace.events if e["ev"] == "job_submit"]
        # Job 2 (the third submitted) shared its first task with jobs 0-3.
        assert [e["job"] for e in submits if e["task"] == 0] == ["0", "1", "2", "3"]
        attempts = {}
        for event in submits:
            attempts.setdefault(event["job"], []).append(event["attempt"])
        assert attempts.pop("2") == [0, 1]
        assert all(seen == [0] for seen in attempts.values())
        assert scheduler.retries == 1 and scheduler.inline_fallbacks == 0

    def test_broken_pool_retries_every_member_of_its_task(self, shuffled_executor):
        trace = ListTrace()
        policy, _ = TestRetry._policy()
        scheduler = Scheduler(
            self._pooled(shuffled_executor, broken={1}), max_inflight=2,
            retry=policy, trace=trace,
        )
        for i in range(8):
            scheduler.add(_job(i * 10), tag=i)
        assert dict(scheduler.events()) == {i: i * 10 for i in range(8)}
        submits = [e for e in trace.events if e["ev"] == "job_submit"]
        broken = [e["job"] for e in submits if e["task"] == 1]
        assert broken == ["4", "5"]  # ceil(4 / 2) jobs, after task 0 took 4
        retried = [e["job"] for e in submits if e["attempt"] == 1]
        assert sorted(retried) == broken
        assert [e["job"] for e in trace.events if e["ev"] == "job_retry"] == broken
        assert scheduler.retries == 2

    def test_deterministic_member_error_propagates(self, shuffled_executor):
        policy, slept = TestRetry._policy()
        scheduler = Scheduler(
            self._pooled(shuffled_executor), max_inflight=2, retry=policy
        )
        for i in range(6):
            scheduler.add(_job(i), tag=i)
        scheduler.add((_boom, (7,), {}), tag="bad")
        with pytest.raises(ValueError, match="job 7 failed"):
            list(scheduler.events())
        assert scheduler.retries == 0 and slept == []
