"""Sharded executor: a static key partition for sweeps.

A sharded run computes only a slice of the planned points and leaves
the rest unresolved.  Pointing the pipeline's result cache at a
per-shard directory turns each shard run into a content-addressed
``.npz`` drop; :func:`merge_shard_dirs` (the ``repro-experiments
merge`` command) fuses the shard directories into one cache, after
which an unsharded run over the same spec is served entirely from cache
— bit-identical to computing everything on one machine, because every
job, seed and reduction is a pure function of the plan key.

Shard ``i`` of ``N`` owns exactly the keys with ``shard_of(key, N) ==
i``: a coordination-free partition with no shared state.
"""

from __future__ import annotations

import filecmp
import shutil
from pathlib import Path
from typing import Callable, Sequence

from ...exceptions import SimulationError
from .base import Executor, JobFuture, shard_of
from .serial import SerialExecutor

__all__ = ["ShardedExecutor", "merge_shard_dirs"]


class ShardedExecutor(Executor):
    """Compute one shard's slice of the planned keys.

    Wraps an inner executor (serial or pooled) that runs the owned
    jobs; foreign points are skipped entirely — their chunk jobs are
    never expanded, so a shard's wall-clock scales with its share of
    the sweep.
    """

    def __init__(
        self,
        shard_index: int,
        shard_count: int,
        inner: Executor | None = None,
    ):
        if shard_count < 1:
            raise SimulationError("shard_count must be >= 1")
        if not 0 <= shard_index < shard_count:
            raise SimulationError(
                f"shard_index {shard_index} outside [0, {shard_count})"
            )
        self.shard_index = int(shard_index)
        self.shard_count = int(shard_count)
        self.inner = inner if inner is not None else SerialExecutor()

    @property
    def workers(self) -> int:  # type: ignore[override]
        return self.inner.workers

    def owns(self, key: str) -> bool:
        return shard_of(key, self.shard_count) == self.shard_index

    def submit(self, fn: Callable, item, tag=None) -> JobFuture:
        return self.inner.submit(fn, item, tag=tag)

    def next_completed(self) -> JobFuture | None:
        return self.inner.next_completed()

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedExecutor({self.shard_index}/{self.shard_count}, "
            f"inner={self.inner!r})"
        )


def merge_shard_dirs(
    shard_dirs: Sequence[str | Path], target: str | Path
) -> tuple[int, int]:
    """Fuse shard ``.npz`` drops into the cache directory ``target``.

    Entries are content-addressed (the file name is the plan key), so
    merging is a copy; a key present in several inputs must be
    byte-identical — a mismatch means a corrupt or foreign file and
    raises rather than silently preferring one side.  Returns
    ``(copied, skipped_duplicates)``.
    """
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)
    copied = skipped = 0
    for shard_dir in shard_dirs:
        shard_dir = Path(shard_dir)
        if not shard_dir.is_dir():
            raise SimulationError(f"shard directory {shard_dir} does not exist")
        for path in sorted(shard_dir.glob("*.npz")):
            if path.name.startswith("."):
                continue  # torn atomic-write temp: never a real entry
            dest = target / path.name
            if dest.exists():
                if not filecmp.cmp(path, dest, shallow=False):
                    raise SimulationError(
                        f"shard entry {path.name} conflicts with an existing "
                        f"cache entry under {target} — refusing to merge"
                    )
                skipped += 1
                continue
            tmp = dest.with_name(f".{path.name}.merge.tmp")
            shutil.copyfile(path, tmp)
            tmp.replace(dest)
            copied += 1
    return copied, skipped
