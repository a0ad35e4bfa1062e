"""Process-pool executor: one pool, created once, shared by every round."""

from __future__ import annotations

import os
import pickle
from typing import Callable

from ...exceptions import SimulationError
from .base import Executor, JobFuture

__all__ = ["PoolExecutor", "MAX_POOL_REBUILDS"]

#: Fresh pools forked per executor after a worker death; the next death
#: after that falls back to serial dispatch for good.
MAX_POOL_REBUILDS = 3


class PoolExecutor(Executor):
    """Dispatch jobs over one shared process pool.

    ``workers=None`` auto-sizes to the machine; ``workers <= 1`` (or a
    single-core box) runs serially in-process.  The pool is created
    lazily on the first submission and reused until :meth:`close`.

    A killed worker breaks its pool: every job in flight on it fails
    with ``BrokenProcessPool``, and the scheduler's
    :class:`~repro.sim.scheduler.RetryPolicy` resubmits them.  The dead
    pool is shut down once, and the next submission forks a fresh one,
    up to :data:`MAX_POOL_REBUILDS` times.  Past that cap, and whenever
    a pool cannot be used at all (a sandbox refusing to fork, an
    unpicklable job), dispatch falls back to serial for good:
    :meth:`submit` runs the job inline.  Because every job is a pure
    function of its arguments, neither changes results, only wall-clock.
    """

    def __init__(self, workers: int | None = None):
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))
        self._pool = None
        self._broken = False
        #: Fresh pools forked after a worker death (observability).
        self.rebuilds = 0
        #: stdlib future -> (JobFuture, the pool it runs on).
        self._inflight: dict = {}

    def _ensure_pool(self):
        """The live process pool, or ``None`` (pool impossible here)."""
        if self.workers <= 1 or self._broken:
            return None
        if self._pool is None:
            try:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            except (ImportError, OSError):  # pragma: no cover - host sandboxing
                self._mark_broken()
        return self._pool

    def _mark_broken(self) -> None:
        """Permanently fall back to serial dispatch (infra failure)."""
        self._broken = True
        self._shutdown_pool()

    def _pool_died(self, pool) -> None:
        """Discard ``pool`` after a worker death, once per pool.

        Every job in flight on a dead pool fails the same way; only the
        first failure of the live pool counts.  :meth:`_ensure_pool`
        forks the replacement at the next submission.
        """
        if pool is not self._pool:
            return
        if self.rebuilds >= MAX_POOL_REBUILDS:
            self._mark_broken()
        else:
            self.rebuilds += 1
            self._shutdown_pool()

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            # cancel_futures: a job exception aborts the dispatch loop
            # mid-run, and queued-but-unstarted jobs must not keep the
            # worker processes alive after the executor is closed.
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def submit(self, fn: Callable, item, tag=None) -> JobFuture:
        from concurrent.futures.process import BrokenProcessPool

        future = JobFuture(fn, item, tag)
        inner = None
        # Each pass either submits, discards a dead pool (bounded by the
        # rebuild cap) or falls back to serial, so the loop ends.
        while inner is None and (pool := self._ensure_pool()) is not None:
            try:
                inner = pool.submit(fn, item)
            except BrokenProcessPool:  # a worker died before we saw a failure
                self._pool_died(pool)
            except (OSError, pickle.PicklingError, RuntimeError):
                # pragma: no cover - depends on host sandboxing
                self._mark_broken()
        if inner is None:  # pool unavailable: permanent serial fallback
            future._run_inline()
            self._completed.append(future)
        else:
            self._inflight[inner] = (future, pool)
        return future

    def next_completed(self) -> JobFuture | None:
        if self._completed:
            return self._completed.popleft()
        if not self._inflight:
            return None
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        done, _ = wait(list(self._inflight), return_when=FIRST_COMPLETED)
        for inner in done:
            future, pool = self._inflight.pop(inner)
            try:
                future._finish(inner.result())
            except Exception as exc:
                # The scheduler's RetryPolicy decides what to retry.  Only
                # a dead pool (not a job's own OSError) replaces the pool:
                # shutting a live pool down would cancel its queued jobs.
                if isinstance(exc, BrokenProcessPool):
                    self._pool_died(pool)
                future._fail(exc)
            self._completed.append(future)
        if not self._completed:  # pragma: no cover - wait() contract
            raise SimulationError("process pool wait returned no completion")
        return self._completed.popleft()

    def close(self) -> None:
        # Drop unconsumed bookkeeping along with the pool: a round
        # aborted by a job exception must not leave stale completions
        # whose tags would collide with the next round's.
        self._inflight.clear()
        self._completed.clear()
        self._shutdown_pool()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PoolExecutor(workers={self.workers})"
