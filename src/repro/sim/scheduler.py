"""Event-driven job scheduling: one global in-flight window.

The wave-barriered pipeline resolved one study at a time: every chunk
job of a study had to finish before the next study's jobs could start,
so a single slow chunk stalled every figure behind it.  This module
replaces the barrier with a :class:`Scheduler` that treats *all*
queued jobs — across every study of an invocation — as one stream:

* jobs join the queue in plan dispatch order (slowest backend first);
* the scheduler keeps at most ``max_inflight`` jobs outstanding on the
  executor's :meth:`~repro.sim.executors.base.Executor.submit` /
  :meth:`~repro.sim.executors.base.Executor.next_completed` surface,
  refilling a slot the moment any completion lands;
* completions are yielded as ``(tag, result)`` events in completion
  order — the caller (:class:`repro.experiments.pipeline.SimulationPipeline`)
  delivers each into its per-point bookkeeping and resolves the
  point's deferred value the moment its last chunk arrives.

The scheduler is also where the execution layer stops being
fail-fast.  A *transient* job failure — an :class:`OSError`-family
infrastructure error, a broken/cancelled process pool, an injected
:class:`~repro.sim.faults.TransientFault` — is retried under a
:class:`RetryPolicy`: bounded resubmissions with exponential backoff,
then one last inline execution in the scheduling process, and only if
*that* fails does the error propagate and abort the round.  Job-level
errors that are not infrastructure (a :class:`SimulationError`, a
``ValueError`` from bad arguments) are never retried — retrying a
deterministic failure only hides it.  A :class:`~repro.sim.faults.FaultPlan`
can be attached to inject deterministic failures, worker kills and
simulated crashes for the crash-resume tests.

Determinism: the sampled numbers are pure functions of the job
arguments, and per-point merging happens in part order (never
completion order), so the window size, the executor, the completion
interleaving — and any retries, which re-run the identical pure job —
change wall-clock only.  With a serial executor every submit resolves
inline and the event stream degenerates to exact submission order —
``max_inflight=1`` on any executor does the same.
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


class _TimedResult:
    """A job result wrapped with its wall time and worker identity."""

    __slots__ = ("value", "seconds", "pid")

    def __init__(self, value, seconds: float, pid: int):
        self.value = value
        self.seconds = seconds
        self.pid = pid

    def __getstate__(self):
        return (self.value, self.seconds, self.pid)

    def __setstate__(self, state):
        self.value, self.seconds, self.pid = state


def _timed_call(job: tuple) -> _TimedResult:
    """Run one job, capturing wall time and the executing process.

    The timing envelope rides the job *into* the worker (module-level,
    so it pickles) and back out — the scheduler unwraps it before
    yielding, so consumers and caches see the identical raw result.
    """
    started = time.perf_counter()
    value = run_job(job)
    return _TimedResult(value, time.perf_counter() - started, os.getpid())

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
    times, sleeping ``delay(attempt)`` before each resubmission
    (``base_delay * backoff ** (attempt-1)``, capped at ``max_delay``);
    if every resubmission fails transiently too, the job runs once
    *inline* in the scheduling process — the executor may be broken,
    but the run can still finish serially.  ``sleep`` is injectable so
    tests assert the backoff sequence without waiting it out.
    """

    attempts: int = 2
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 2.0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def delay(self, attempt: int) -> float:
        """Backoff before the ``attempt``-th resubmission (1-based)."""
        return min(self.max_delay, self.base_delay * self.backoff ** (attempt - 1))


class _Entry:
    """One queued job with its retry bookkeeping."""

    __slots__ = ("job", "tag", "attempts")

    def __init__(self, job: tuple, tag):
        self.job = job
        self.tag = tag
        self.attempts = 0


class Scheduler:
    """Windowed submit / next_completed dispatch over one executor.

    Jobs are ``(fn, args, kwargs)`` tuples (the
    :func:`repro.sim.plan.run_job` shape) queued via :meth:`add` with
    an opaque tag; :meth:`events` drives the dispatch loop and yields
    ``(tag, result)`` per completion.  The scheduler holds no processes
    — lifecycle stays with the executor — and is reusable: new jobs
    may be added between drains *or* by the consumer while a drain is
    yielding (the loop re-reads the queue after every event, so
    mid-drain additions join the same drain's window — the hook the
    adaptive replicate engine's incremental staging relies on).

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
        self._inflight: dict = {}  # JobFuture -> _Entry
        #: Transient-failure resubmissions performed (observability).
        self.retries = 0
        #: Last-resort inline executions after retries were exhausted.
        self.inline_fallbacks = 0

    @property
    def pending(self) -> int:
        """Queued-but-unsubmitted jobs."""
        return len(self._queue)

    @property
    def outstanding(self) -> int:
        """Submitted jobs whose completion has not been consumed yet."""
        return len(self._inflight)

    def add(self, job: tuple, tag=None) -> None:
        """Queue one ``(fn, args, kwargs)`` job for dispatch."""
        self._queue.append(_Entry(job, tag))

    def _submit(self, entry: _Entry) -> None:
        job = entry.job
        if self.fault is not None:
            job = self.fault.wrap_job(job, entry.tag, entry.attempts)
        if self.trace.enabled:
            # The timing envelope only rides when tracing asked for it —
            # the untraced submit path is byte-for-byte the historical one.
            self.trace.event(
                "job_submit", job=_tag_str(entry.tag), attempt=entry.attempts
            )
            job = (_timed_call, (job,), {})
        future = self.executor.submit(run_job, job, tag=entry.tag)
        self._inflight[future] = entry
        if self.metrics is not None:
            self.metrics.gauge("scheduler_inflight_highwater").update_max(
                len(self._inflight)
            )

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
        while self._queue or self._inflight:
            while self._queue and len(self._inflight) < self.max_inflight:
                self._submit(self._queue.popleft())
            future = self.executor.next_completed()
            if future is None:  # pragma: no cover - executor contract
                raise SimulationError(
                    f"executor lost track of {len(self._inflight)} in-flight jobs"
                )
            entry = self._inflight.pop(future)
            try:
                result = future.result()
            except Exception as error:
                if self.retry is None or not is_transient(error):
                    raise
                entry.attempts += 1
                if entry.attempts <= self.retry.attempts:
                    # Bounded resubmission with exponential backoff.
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
                    self.retry.sleep(self.retry.delay(entry.attempts))
                    self._queue.appendleft(entry)
                    continue
                # Retries exhausted: one last inline execution in this
                # process before the run gives up.  Jobs are pure, so
                # an inline success is the identical result; an inline
                # failure propagates (nothing left to try).
                self.inline_fallbacks += 1
                if self.metrics is not None:
                    self.metrics.counter("scheduler_inline_fallbacks").inc()
                started = time.perf_counter()
                result = run_job(entry.job)
                if self.trace.enabled:
                    self.trace.event(
                        "job_inline",
                        job=_tag_str(entry.tag),
                        dur=round(time.perf_counter() - started, 6),
                    )
            if isinstance(result, _TimedResult):
                if self.trace.enabled:
                    self.trace.event(
                        "job_complete",
                        job=_tag_str(entry.tag),
                        dur=round(result.seconds, 6),
                        worker=result.pid,
                    )
                if self.metrics is not None:
                    self.metrics.histogram(
                        "scheduler_job_seconds", worker=str(result.pid)
                    ).observe(result.seconds)
                result = result.value
            if self.metrics is not None:
                self.metrics.counter("scheduler_jobs").inc()
            yield entry.tag, result
            if self.fault is not None:
                self.fault.on_completion()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scheduler(max_inflight={self.max_inflight}, "
            f"pending={self.pending}, outstanding={self.outstanding}, "
            f"retries={self.retries})"
        )
