"""Event-driven job scheduling: one global in-flight window of tasks.

The wave-barriered pipeline resolved one study at a time: every chunk
job of a study had to finish before the next study's jobs could start,
so a single slow chunk stalled every figure behind it.  This module
replaces the barrier with a :class:`Scheduler` that treats *all*
queued jobs — across every study of an invocation — as one stream:

* jobs join the queue in plan dispatch order (slowest backend first);
* the scheduler coalesces queued jobs into *tasks* and keeps at most
  ``max_inflight`` tasks outstanding on the executor's
  :meth:`~repro.sim.executors.base.Executor.submit` /
  :meth:`~repro.sim.executors.base.Executor.next_completed` surface,
  refilling a slot the moment any completion lands;
* completions are yielded as ``(tag, result)`` events, one per job —
  the caller (:class:`repro.experiments.pipeline.SimulationPipeline`)
  delivers each into its per-point bookkeeping and resolves the
  point's deferred value the moment its last chunk arrives.

Task sizing is guided self-scheduling (Polychronopoulos & Kuck, IEEE
Trans. Computers 36(12), 1987): a task takes ⌈queued jobs /
``max_inflight``⌉ jobs off the queue's front, so tasks are large while
the queue is long and single jobs at its tail.  A pooled round trip
(pickling plus thread hand-offs, ~1 ms of scheduling-process CPU)
costs more than a typical vectorized chunk (~0.6 ms), so one task per
job left the workers half idle.  A serial executor has no round trip
to amortise and keeps tasks of one job.  :func:`_run_task` runs the
members in order and returns one outcome per job — a value or the
exception it raised — so a failing member never takes its task-mates
down with it.

The scheduler is also where the execution layer stops being
fail-fast.  A *transient* job failure — an :class:`OSError`-family
infrastructure error, a broken/cancelled process pool, an injected
:class:`~repro.sim.faults.TransientFault` — is retried under a
:class:`RetryPolicy`: bounded resubmissions with exponential backoff,
then one last inline execution in the scheduling process, and only if
*that* fails does the error propagate and abort the round.  Retries are
per job: a member's own failure retries that member alone, and only a
task-level failure (a dead worker's ``BrokenProcessPool``) retries
every member of the task, each under its own attempt count.  A backoff
never stalls dispatch: a retried job waits out its delay in a side
queue while the loop keeps consuming completions and submitting ready
jobs, and the scheduler sleeps only when nothing is in flight.  Job-level
errors that are not infrastructure (a :class:`SimulationError`, a
``ValueError`` from bad arguments) are never retried — retrying a
deterministic failure only hides it.  A :class:`~repro.sim.faults.FaultPlan`
can be attached to inject deterministic failures, worker kills and
simulated crashes for the crash-resume tests.

Determinism: the sampled numbers are pure functions of the job
arguments, and per-point merging happens in part order (never
completion order), so the window size, the task sizes, the executor,
the completion interleaving — and any retries, which re-run the
identical pure job — change wall-clock only.  With a serial executor
every submit resolves inline and the event stream degenerates to exact
submission order — ``max_inflight=1`` on any executor does the same.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..exceptions import SimulationError
from ..obs.trace import NULL_TRACE
from .plan import run_job

__all__ = [
    "Scheduler",
    "RetryPolicy",
    "is_transient",
    "default_inflight",
    "DEFAULT_WINDOW_FACTOR",
]


def _tag_str(tag) -> str:
    """A tag's stable trace label (``(3, 1)`` -> ``"3.1"``)."""
    if isinstance(tag, tuple):
        return ".".join(str(part) for part in tag)
    return str(tag)


def _run_task(jobs: list) -> tuple[list, int]:
    """Run a task's member jobs in order; one outcome per job.

    Module-level, so it pickles into pool workers.  Each outcome is
    ``(value, error, seconds)``: a member that raises records its
    exception and the next member still runs.  The executing process id
    rides along once per task for the trace's worker attribution.
    """
    outcomes = []
    for job in jobs:
        started = time.perf_counter()
        try:
            value, error = run_job(job), None
        except Exception as exc:
            value, error = None, exc
        outcomes.append((value, error, time.perf_counter() - started))
    return outcomes, os.getpid()


#: Default in-flight window per pool worker: deep enough to hide the
#: submit/collect round-trip, shallow enough that a cancelled run
#: abandons little queued work.
DEFAULT_WINDOW_FACTOR = 4


def default_inflight(workers: int) -> int:
    """The in-flight window implied by an executor's worker count."""
    return max(1, DEFAULT_WINDOW_FACTOR * int(workers))


def is_transient(error: BaseException) -> bool:
    """Whether a job failure is infrastructure-shaped (worth retrying).

    Transient: :class:`OSError` and subclasses (which covers the
    injected :class:`~repro.sim.faults.TransientFault`), a broken
    process pool, and a cancelled pool future (a broken pool's
    shutdown cancels its queue).  Everything else is treated as a
    deterministic job error and never retried.
    """
    from concurrent.futures import CancelledError
    from concurrent.futures.process import BrokenProcessPool

    return isinstance(error, (OSError, BrokenProcessPool, CancelledError))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient job failures.

    A failing job is resubmitted to the executor up to ``attempts``
    times, each no earlier than ``delay(attempt)`` after its failure
    (``base_delay * backoff ** (attempt-1)``, capped at ``max_delay``);
    if every resubmission fails transiently too, the job runs once
    *inline* in the scheduling process — the executor may be broken,
    but the run can still finish serially.  ``sleep`` and ``clock``
    are injectable so tests assert the backoff sequence without
    waiting it out.
    """

    attempts: int = 2
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 2.0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)
    clock: Callable[[], float] = field(default=time.monotonic, repr=False)

    def delay(self, attempt: int) -> float:
        """Backoff before the ``attempt``-th resubmission (1-based)."""
        return min(self.max_delay, self.base_delay * self.backoff ** (attempt - 1))


class _Entry:
    """One queued job with its retry bookkeeping."""

    __slots__ = ("job", "tag", "attempts", "not_before")

    def __init__(self, job: tuple, tag):
        self.job = job
        self.tag = tag
        self.attempts = 0
        #: ``RetryPolicy.clock`` time before which a retry is not resubmitted.
        self.not_before = 0.0


class Scheduler:
    """Windowed submit / next_completed dispatch over one executor.

    Jobs are ``(fn, args, kwargs)`` tuples (the
    :func:`repro.sim.plan.run_job` shape) queued via :meth:`add` with
    an opaque tag; :meth:`events` drives the dispatch loop and yields
    ``(tag, result)`` per completed job.  Jobs travel to the executor
    in tasks (see the module docstring), each submitted with its task
    id as the executor tag; ``max_inflight`` bounds tasks in flight.
    The scheduler holds no processes — lifecycle stays with the
    executor — and is reusable: new jobs may be added between drains
    *or* by the consumer while a drain is yielding (the loop re-reads
    the queue after every event, so mid-drain additions join the same
    drain's window — the hook the adaptive replicate engine's
    incremental staging relies on).

    ``retry`` (default :class:`RetryPolicy`) bounds how hard transient
    failures are retried before the run gives up; ``retry=None``
    restores the historical fail-fast behaviour.  ``fault`` attaches a
    deterministic :class:`~repro.sim.faults.FaultPlan` (test harness).
    """

    def __init__(
        self,
        executor,
        max_inflight: int | None = None,
        retry: RetryPolicy | None = RetryPolicy(),
        fault=None,
        trace=None,
        metrics=None,
    ):
        if max_inflight is None:
            max_inflight = default_inflight(executor.workers)
        if int(max_inflight) < 1:
            raise SimulationError("max_inflight must be >= 1")
        self.executor = executor
        self.max_inflight = int(max_inflight)
        self.retry = retry
        self.fault = fault
        self.trace = trace if trace is not None else NULL_TRACE
        self.metrics = metrics
        self._queue: deque[_Entry] = deque()
        #: Retried entries whose backoff has not run out, oldest due first.
        self._backoff: list[_Entry] = []
        self._inflight: dict = {}  # JobFuture -> list of member _Entry
        #: Collected job outcomes not yet yielded: (entry, value, error).
        self._ready: deque[tuple] = deque()
        #: Tasks submitted so far; the next task's id.
        self.tasks = 0
        #: Transient-failure resubmissions performed (observability).
        self.retries = 0
        #: Last-resort inline executions after retries were exhausted.
        self.inline_fallbacks = 0

    @property
    def pending(self) -> int:
        """Queued-but-unsubmitted jobs, retries in backoff included."""
        return len(self._queue) + len(self._backoff)

    @property
    def outstanding(self) -> int:
        """Submitted tasks whose completion has not been collected yet."""
        return len(self._inflight)

    def add(self, job: tuple, tag=None) -> None:
        """Queue one ``(fn, args, kwargs)`` job for dispatch."""
        self._queue.append(_Entry(job, tag))

    def _task_size(self) -> int:
        """Jobs in the next task: guided self-scheduling on pools."""
        if self.executor.workers <= 1:
            return 1
        return -(-len(self._queue) // self.max_inflight)

    def _submit_task(self) -> None:
        """Take the next task off the queue's front and submit it."""
        task = self.tasks
        self.tasks += 1
        entries = [self._queue.popleft() for _ in range(self._task_size())]
        jobs = []
        for entry in entries:
            job = entry.job
            if self.fault is not None:
                job = self.fault.wrap_job(job, entry.tag, entry.attempts)
            if self.trace.enabled:
                self.trace.event(
                    "job_submit",
                    job=_tag_str(entry.tag),
                    attempt=entry.attempts,
                    task=task,
                )
            jobs.append(job)
        future = self.executor.submit(_run_task, jobs, tag=task)
        self._inflight[future] = entries
        if self.metrics is not None:
            self.metrics.gauge("scheduler_inflight_highwater").update_max(
                len(self._inflight)
            )

    def _collect(self) -> None:
        """Wait for one task and file an outcome per member job.

        Successes (and inline-fallback results) join :attr:`_ready`;
        a transient failure goes to the backoff queue; a deterministic
        one joins :attr:`_ready` too and is raised when its turn to be
        yielded comes.  A task-level failure (a dead worker) fails every
        member the same way.
        """
        future = self.executor.next_completed()
        if future is None:  # pragma: no cover - executor contract
            raise SimulationError(
                f"executor lost track of {len(self._inflight)} in-flight tasks"
            )
        entries = self._inflight.pop(future)
        try:
            outcomes, pid = future.result()
        except Exception as error:
            outcomes, pid = [(None, error, None)] * len(entries), None
        for entry, (value, error, seconds) in zip(entries, outcomes):
            if error is not None and self.retry is not None and is_transient(error):
                self._retry(entry, error)
                continue
            if error is None and self.trace.enabled:
                self.trace.event(
                    "job_complete",
                    job=_tag_str(entry.tag),
                    dur=round(seconds, 6),
                    worker=pid,
                )
                if self.metrics is not None:
                    self.metrics.histogram(
                        "scheduler_job_seconds", worker=str(pid)
                    ).observe(seconds)
            self._ready.append((entry, value, error))

    def _retry(self, entry: _Entry, error: BaseException) -> None:
        """Resubmit a transiently failed job later, or run it inline."""
        entry.attempts += 1
        if entry.attempts <= self.retry.attempts:
            # Bounded resubmission with exponential backoff; the loop
            # keeps dispatching while the delay runs out.
            self.retries += 1
            if self.metrics is not None:
                self.metrics.counter("scheduler_retries").inc()
            if self.trace.enabled:
                self.trace.event(
                    "job_retry",
                    job=_tag_str(entry.tag),
                    attempt=entry.attempts,
                    error=type(error).__name__,
                )
            entry.not_before = self.retry.clock() + self.retry.delay(entry.attempts)
            self._backoff.append(entry)
            self._backoff.sort(key=lambda e: e.not_before)
            return
        # Retries exhausted: one last inline execution in this process
        # before the run gives up.  Jobs are pure, so an inline success
        # is the identical result; an inline failure propagates (nothing
        # left to try).
        self.inline_fallbacks += 1
        if self.metrics is not None:
            self.metrics.counter("scheduler_inline_fallbacks").inc()
        started = time.perf_counter()
        value = run_job(entry.job)
        if self.trace.enabled:
            self.trace.event(
                "job_inline",
                job=_tag_str(entry.tag),
                dur=round(time.perf_counter() - started, 6),
            )
        self._ready.append((entry, value, None))

    def _release_due(self) -> None:
        """Move retries whose backoff has run out to the queue's front."""
        if not self._backoff:
            return
        now = self.retry.clock()
        due = []
        while self._backoff and self._backoff[0].not_before <= now:
            due.append(self._backoff.pop(0))
        self._queue.extendleft(reversed(due))

    def _await_backoff(self) -> None:
        """Nothing ready and nothing in flight: wait out the earliest retry."""
        entry = self._backoff.pop(0)
        remaining = entry.not_before - self.retry.clock()
        if remaining > 0:
            self.retry.sleep(remaining)
        self._queue.appendleft(entry)

    def events(self) -> Iterator[tuple]:
        """Submit with a bounded window; yield ``(tag, result)`` events.

        A transient job failure is retried per :attr:`retry` (backoff
        resubmissions, then one inline run); a deterministic job
        exception — or a transient one that survives the whole retry
        ladder — propagates out of the iteration (the in-flight window
        is abandoned); the caller is responsible for closing the
        executor, which cancels whatever was still queued on the pool.
        """
        if self._queue and self.trace.enabled:
            self.trace.event(
                "schedule",
                jobs=len(self._queue),
                max_inflight=self.max_inflight,
                workers=self.executor.workers,
            )
        while self._queue or self._backoff or self._inflight or self._ready:
            # Refill the window before yielding what already landed, so
            # the workers stay busy while the consumer merges results.
            self._release_due()
            while self._queue and len(self._inflight) < self.max_inflight:
                self._submit_task()
            if not self._ready:
                if self._inflight:
                    self._collect()
                else:
                    self._await_backoff()
                continue
            entry, value, error = self._ready.popleft()
            if error is not None:
                raise error
            if self.metrics is not None:
                self.metrics.counter("scheduler_jobs").inc()
            yield entry.tag, value
            if self.fault is not None:
                self.fault.on_completion()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scheduler(max_inflight={self.max_inflight}, "
            f"pending={self.pending}, outstanding={self.outstanding}, "
            f"tasks={self.tasks}, retries={self.retries})"
        )
