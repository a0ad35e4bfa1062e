"""Sharded executor: static or work-stealing key partition for sweeps.

A sharded run computes only a slice of the planned points and leaves
the rest unresolved.  Pointing the pipeline's result cache at a
per-shard directory turns each shard run into a content-addressed
``.npz`` drop; :func:`merge_shard_dirs` (the ``repro-experiments
merge`` command) fuses the shard directories into one cache, after
which an unsharded run over the same spec is served entirely from cache
— bit-identical to computing everything on one machine, because every
job, seed and reduction is a pure function of the plan key.

Two partitioning modes:

* ``static`` — the historical coordination-free partition: shard ``i``
  owns exactly the keys with ``shard_of(key, N) == i``.  No shared
  state, but a slow or dead shard leaves its slice uncomputed while the
  others sit idle.
* ``stealing`` — shards share a :class:`ClaimBoard` (a directory of
  atomically-created claim markers, e.g. on a shared filesystem) and
  claim keys exclusively in :func:`claim_order`: their own static
  partition first, then the other shards' keys in ring order.  An idle
  shard therefore drains whatever work is left, wherever it "belongs";
  every key is still computed by exactly one shard, so the merged
  result is identical to the static partition's.
"""

from __future__ import annotations

import filecmp
import os
import shutil
from pathlib import Path
from typing import Callable, Sequence

from ...exceptions import SimulationError
from .base import Executor, JobFuture, shard_of
from .serial import SerialExecutor

__all__ = ["ShardedExecutor", "ClaimBoard", "claim_order", "merge_shard_dirs"]

#: Valid ``ShardedExecutor`` partitioning modes.
SHARD_MODES = ("static", "stealing")


def claim_order(keys: Sequence[str], shard_index: int, shard_count: int) -> list[str]:
    """Deterministic order in which a stealing shard tries to claim keys.

    The shard's own static partition comes first (so under no
    contention the stealing mode degenerates to the static one), then
    foreign keys grouped by owning shard in ring order starting from
    the next shard — concurrent stealers fan out over *different*
    victims instead of colliding on the same keys.  Keys sort
    lexicographically within each group, so the order is a pure
    function of ``(keys, shard_index, shard_count)``.
    """

    def rank(key: str) -> tuple[int, str]:
        owner = shard_of(key, shard_count)
        return ((owner - shard_index) % shard_count, key)

    return sorted(keys, key=rank)


class ClaimBoard:
    """Filesystem claim registry: at most one shard computes each key.

    One marker file per claimed key, recording the claiming owner so
    re-claims by the same owner are idempotent (a restarted shard
    keeps its claims).  The marker is published with the classic
    lockfile pattern — write a private temp file, then ``os.link`` it
    to the claim name — so it appears *atomically with its owner
    already inside*: the first claimer wins even across machines, and
    a shard dying mid-claim can never leave a torn owner-less marker
    that would orphan the key for everyone.

    **Leases.** A marker's mtime is its lease timestamp: claiming (or
    re-claiming, which every scheduling round does) renews it.  With
    ``lease_ttl`` set, a *foreign* marker older than the TTL is
    treated as abandoned by a dead worker and reclaimed — previously
    such a key was blocked forever.  Reclamation is made safe by a
    tombstone rename: exactly one contender wins the ``os.rename`` of
    the stale marker (the loser's rename fails), and the winner then
    re-runs the normal atomic claim.  The one unavoidable TOCTOU
    window (a marker renewed between the staleness check and the
    rename) can at worst cause a duplicate computation — harmless,
    because jobs are pure and duplicate cache entries are
    byte-identical, which ``merge`` accepts.  Pick a TTL longer than
    the slowest single point plus the gap between scheduling rounds.
    """

    def __init__(self, directory: str | Path, lease_ttl: float | None = None):
        if lease_ttl is not None and lease_ttl <= 0:
            raise SimulationError("lease_ttl must be positive (or None)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.lease_ttl = lease_ttl
        #: Stale foreign claims taken over (observability/tests).
        self.reclaimed = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.claim"

    def _publish(self, key: str, owner: str) -> bool | None:
        """One atomic claim attempt: True won, False lost, None raced."""
        path = self._path(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(owner)
        try:
            os.link(tmp, path)
        except FileExistsError:
            if self.owner_of(key) == owner:
                os.utime(path, None)  # renew our lease
                return True
            return False
        finally:
            tmp.unlink(missing_ok=True)
        return True

    def try_claim(self, key: str, owner: str) -> bool:
        """Atomically claim ``key`` for ``owner`` (idempotent per owner).

        With a lease TTL, a stale foreign marker is reclaimed (see the
        class docstring) before one more claim attempt.
        """
        won = self._publish(key, owner)
        if won:
            return True
        if self.lease_ttl is None:
            return False
        age = self.age_of(key)
        if age is None or age <= self.lease_ttl:
            return False
        return self._reclaim(key, owner)

    def _reclaim(self, key: str, owner: str) -> bool:
        """Tombstone a stale marker, then re-run the atomic claim."""
        path = self._path(key)
        tomb = path.with_name(f".{path.name}.{os.getpid()}.stale")
        try:
            os.rename(path, tomb)
        except OSError:
            # Another contender renamed it first (and may already have
            # republished); fall back to whether we now own the key.
            return self.owner_of(key) == owner
        tomb.unlink(missing_ok=True)
        self.reclaimed += 1
        return bool(self._publish(key, owner))

    def age_of(self, key: str) -> float | None:
        """Seconds since the claim's lease was last renewed (None: unclaimed)."""
        import time as _time

        try:
            return _time.time() - self._path(key).stat().st_mtime
        except OSError:
            return None

    def owner_of(self, key: str) -> str | None:
        """The owner that claimed ``key``, or ``None`` if unclaimed."""
        try:
            return self._path(key).read_text()
        except OSError:
            return None

    def claimed(self) -> dict[str, str]:
        """Every claimed key with its owner (introspection/tests)."""
        out = {}
        for path in self.directory.glob("*.claim"):
            out[path.name[: -len(".claim")]] = path.read_text()
        return out


class ShardedExecutor(Executor):
    """Compute one shard's slice of the planned keys.

    Wraps an inner executor (serial or pooled) that runs the claimed
    jobs; foreign points are skipped entirely — their chunk jobs are
    never expanded, so a shard's wall-clock scales with its share of
    the sweep.  ``mode="stealing"`` replaces the static ``shard_of``
    partition with exclusive claims on a shared :class:`ClaimBoard`
    (``claim_dir``), letting idle shards take over unclaimed keys.
    """

    def __init__(
        self,
        shard_index: int,
        shard_count: int,
        inner: Executor | None = None,
        mode: str = "static",
        claim_dir: str | Path | None = None,
        lease_ttl: float | None = None,
    ):
        if shard_count < 1:
            raise SimulationError("shard_count must be >= 1")
        if not 0 <= shard_index < shard_count:
            raise SimulationError(
                f"shard_index {shard_index} outside [0, {shard_count})"
            )
        if mode not in SHARD_MODES:
            raise SimulationError(
                f"unknown shard mode {mode!r} (expected one of {SHARD_MODES})"
            )
        if mode == "stealing" and claim_dir is None:
            raise SimulationError(
                "work-stealing shards need a shared claim_dir (the claim board)"
            )
        self.shard_index = int(shard_index)
        self.shard_count = int(shard_count)
        self.inner = inner if inner is not None else SerialExecutor()
        self.mode = mode
        self.board = (
            ClaimBoard(claim_dir, lease_ttl=lease_ttl)
            if mode == "stealing"
            else None
        )
        self.owner_id = f"shard-{self.shard_index}"

    @property
    def workers(self) -> int:  # type: ignore[override]
        return self.inner.workers

    def owns(self, key: str) -> bool:
        if self.mode == "static":
            return shard_of(key, self.shard_count) == self.shard_index
        # Stealing: claim-on-query (single-key callers, e.g. generic
        # call jobs); batch rounds go through claim() for steal order.
        return self.board.try_claim(key, self.owner_id)

    def claim(self, keys: Sequence[str]) -> list[str]:
        if self.mode == "static":
            return [key for key in keys if self.owns(key)]
        ordered = claim_order(keys, self.shard_index, self.shard_count)
        return [key for key in ordered if self.board.try_claim(key, self.owner_id)]

    def submit(self, fn: Callable, item, tag=None) -> JobFuture:
        return self.inner.submit(fn, item, tag=tag)

    def next_completed(self) -> JobFuture | None:
        return self.inner.next_completed()

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedExecutor({self.shard_index}/{self.shard_count}, "
            f"mode={self.mode!r}, inner={self.inner!r})"
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
