"""The executor protocol shared by serial, pooled and sharded dispatch.

Dispatch is event-driven: :meth:`Executor.submit` /
:meth:`Executor.next_completed`, driven by
:class:`repro.sim.scheduler.Scheduler`.  Jobs enter one at a time and
complete out of order, so a slow chunk never barriers the rest of the
sweep.  The base implementation runs each submitted job inline and
queues its (already resolved) :class:`JobFuture` FIFO — exactly serial
semantics — so every executor is schedulable even before it overrides
anything.

:meth:`Executor.owns` is the partitioning hook: the pipeline expands
only the points whose plan key the executor owns.  The default owns
everything; the sharded executor owns its static ``shard_of`` slice.
Jobs are pure functions of their arguments, so none of this ever
changes a sampled number — only where and when it is produced.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ...exceptions import SimulationError

__all__ = ["Executor", "JobFuture", "shard_of"]


def shard_of(key: str, shard_count: int) -> int:
    """Deterministic shard owning a plan key (hex SHA-256 digest).

    A pure function of the key and the shard count, so every machine of
    a multi-host sweep computes the same partition without coordination.
    """
    return int(key[:8], 16) % shard_count


class JobFuture:
    """Completion handle of one submitted executor job.

    Carries the job itself (``fn``, ``item``) so an executor without a
    usable pool can run it inline, plus an opaque ``tag`` the scheduler
    uses to map completions back to plan bookkeeping.  A job exception
    is captured and re-raised at :meth:`result` time.
    """

    __slots__ = ("fn", "item", "tag", "_done", "_result", "_error")

    def __init__(self, fn: Callable, item, tag=None):
        self.fn = fn
        self.item = item
        self.tag = tag
        self._done = False
        self._result = None
        self._error: BaseException | None = None

    def _finish(self, result) -> None:
        self._result = result
        self._done = True

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done = True

    def _run_inline(self) -> None:
        """Execute the job in the calling process."""
        try:
            self._finish(self.fn(self.item))
        except Exception as exc:
            self._fail(exc)

    @property
    def done(self) -> bool:
        return self._done

    def result(self):
        """The job's return value (raises the job's exception, if any)."""
        if not self._done:
            raise SimulationError("job future read before completion")
        if self._error is not None:
            raise self._error
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if not self._done else (
            "failed" if self._error is not None else "done"
        )
        return f"JobFuture({state}, tag={self.tag!r})"


class Executor:
    """Where the planned chunk jobs of a simulation batch run.

    :meth:`submit` returns a :class:`JobFuture` and
    :meth:`next_completed` drains completions in whatever order they
    land.  :meth:`owns` is the partitioning hook —
    the pipeline never expands a point whose plan key the executor does
    not own (serial and pooled executors own every key).
    """

    #: Worker-process count the executor dispatches over (1 = serial).
    workers: int = 1

    # -- partitioning ------------------------------------------------------

    def owns(self, key: str) -> bool:
        """Whether this executor computes the point with plan key ``key``."""
        return True

    # -- event-driven dispatch ---------------------------------------------

    @property
    def _completed(self) -> deque:
        """FIFO of resolved futures not yet handed to the caller."""
        queue = getattr(self, "_completed_futures", None)
        if queue is None:
            queue = self._completed_futures = deque()
        return queue

    def submit(self, fn: Callable, item, tag=None) -> JobFuture:
        """Submit one job; the base implementation runs it inline.

        Inline execution gives serial executors their semantics for
        free: every future is already resolved when it returns, and
        :meth:`next_completed` yields them in submission order.
        """
        future = JobFuture(fn, item, tag)
        future._run_inline()
        self._completed.append(future)
        return future

    def next_completed(self) -> JobFuture | None:
        """The next completed outstanding future, or ``None`` when idle.

        Blocks until a completion is available if jobs are genuinely
        in flight (pooled executors); never blocks when nothing is
        outstanding.
        """
        if self._completed:
            return self._completed.popleft()
        return None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release any held resources (idempotent).

        Also discards completed-but-unconsumed futures: after an
        aborted round their stale tags must never leak into the next
        round's bookkeeping.
        """
        self._completed.clear()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
