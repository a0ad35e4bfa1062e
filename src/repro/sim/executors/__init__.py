"""Pluggable job executors for the fused simulation pipeline.

:mod:`repro.sim.plan` turns simulation requests into a flat list of
pure ``(fn, args, kwargs)`` chunk jobs; an *executor* decides where
those jobs run.  All executors preserve the bit-identity contract:
jobs are pure functions of their arguments, so the executor choice
changes wall-clock and placement only, never the sampled numbers.

* :class:`SerialExecutor` — in-process, no pool.  The default.
* :class:`PoolExecutor` — one process pool shared by every scheduling
  round (the ``--jobs`` behaviour).
* :class:`ShardedExecutor` — computes a subset of the planned points
  and skips the rest, so a sweep can be split across machines; each
  shard writes its results into a content-addressed shard directory
  that ``repro-experiments merge`` fuses into one cache.  Partitioning
  is either the static ``shard_of`` key hash or a work-stealing claim
  over a shared :class:`ClaimBoard`.

Every executor speaks one dispatch dialect: the event-driven
:meth:`~repro.sim.executors.base.Executor.submit` /
:meth:`~repro.sim.executors.base.Executor.next_completed` pair consumed
by :class:`repro.sim.scheduler.Scheduler`.
"""

from .base import Executor, JobFuture, shard_of
from .pooled import PoolExecutor
from .serial import SerialExecutor
from .sharded import ClaimBoard, ShardedExecutor, claim_order, merge_shard_dirs

__all__ = [
    "Executor",
    "JobFuture",
    "SerialExecutor",
    "PoolExecutor",
    "ShardedExecutor",
    "ClaimBoard",
    "claim_order",
    "merge_shard_dirs",
    "shard_of",
    "make_executor",
]


def make_executor(
    jobs: int | None = 1,
    shard_index: int | None = None,
    shard_count: int | None = None,
    shard_mode: str = "static",
    claim_dir=None,
    claim_ttl: float | None = None,
) -> Executor:
    """Build the executor implied by the CLI flags.

    ``jobs`` follows :class:`PoolExecutor` semantics (``None``
    auto-sizes, ``<= 1`` is serial); shard flags wrap the
    resulting executor in a :class:`ShardedExecutor` (``shard_mode``
    picks the static partition or work stealing over ``claim_dir``;
    ``claim_ttl`` is the lease TTL in seconds after which a dead
    shard's claims may be reclaimed).
    """
    inner: Executor
    if jobs is not None and jobs <= 1:
        inner = SerialExecutor()
    else:
        inner = PoolExecutor(jobs)
    if shard_count is not None:
        return ShardedExecutor(
            shard_index if shard_index is not None else 0,
            shard_count,
            inner,
            mode=shard_mode,
            claim_dir=claim_dir,
            lease_ttl=claim_ttl,
        )
    return inner
