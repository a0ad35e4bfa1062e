"""Pluggable job executors for the fused simulation pipeline.

:mod:`repro.sim.plan` turns simulation requests into a flat list of
pure ``(fn, args, kwargs)`` chunk jobs; an *executor* decides where
those jobs run.  All executors preserve the bit-identity contract:
jobs are pure functions of their arguments, so the executor choice
changes wall-clock and placement only, never the sampled numbers.

* :class:`SerialExecutor` — in-process, no pool.  The default.
* :class:`PoolExecutor` — one process pool shared by every scheduling
  round (the ``--jobs`` behaviour).

Every executor speaks one dispatch dialect: the event-driven
:meth:`~repro.sim.executors.base.Executor.submit` /
:meth:`~repro.sim.executors.base.Executor.next_completed` pair consumed
by :class:`repro.sim.scheduler.Scheduler`.
"""

from .base import Executor, JobFuture
from .pooled import PoolExecutor
from .serial import SerialExecutor

__all__ = [
    "Executor",
    "JobFuture",
    "SerialExecutor",
    "PoolExecutor",
    "make_executor",
]


def make_executor(jobs: int | None = 1) -> Executor:
    """Build the executor implied by ``--jobs``.

    ``jobs`` follows :class:`PoolExecutor` semantics (``None``
    auto-sizes, ``<= 1`` is serial).
    """
    if jobs is not None and jobs <= 1:
        return SerialExecutor()
    return PoolExecutor(jobs)
