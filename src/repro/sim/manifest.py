"""Durable runs: a checkpointed, append-only journal per CLI invocation.

The run itself as a durable object — which points it planned, which
completed, under which code/config world — dogfooding the paper's own
checkpoint-recovery story:

* a :class:`RunManifest` records the run id, the full CLI ``argv``, a
  config hash over the result-relevant arguments, the sha256 of the
  input file the command reads (a scenario or spec file; a resume
  whose file changed is refused, :func:`check_inputs`),
  :data:`repro.sim.plan.BACKEND_VERSION`, and a journal of plan keys
  with their fates (``computed`` / ``served``) — the run's one
  journal: nothing derivable from it and the cache is stored;
* a :class:`RunRecorder` journals each fate the event-driven scheduler
  delivers as one ``[key, fate]`` JSON line appended to
  ``<run>/fates.log`` — O(1) per point, whatever the run's size.  Each
  line is flushed at once, so a ``kill -9`` loses nothing delivered.
  ``manifest.json`` is the compacted checkpoint, rewritten atomically
  (temp file + fsync + ``os.replace``) when the run is created or
  resumed, at :meth:`~RunRecorder.finish` and when the recorder
  closes (``status`` stays ``running`` unless the run finished).  Each
  compaction folds the log into the checkpoint and deletes it;
  :meth:`RunManifest.load` replays a log a
  ``kill -9`` left over its checkpoint, up to the first torn or
  unparsable line, which is never trusted;
* those rewrites are the only fsyncs: neither log lines nor cache
  entries are synced, and a power loss is covered by validation.  On
  resume, :func:`validate_resume` re-derives the plan from the
  *current* world and checks every journaled fate against it (REQ-10,
  "checkpoint recovery integrity") before the staging round that
  declares its key.  A fate whose cache entry verifies is **reused**,
  served from the payload the check already read; a key whose entry is
  missing or damaged is **missing** or **invalidated** (the damaged
  file is deleted); a key the resumed round never declares (config
  drift, a ``BACKEND_VERSION`` bump) is **stale**.  A fate line lost to
  a power cut only means its point is served if its entry verifies
  and recomputed if not.  Recomputation is deterministic, so resumed
  output is byte-identical to an uninterrupted run.

The manifest never stores results — those live in the
content-addressed :class:`~repro.sim.plan.ResultCache`, which is why
``--run-id`` requires a cache directory.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..constants import DEFAULT_RUNS_DIR
from ..exceptions import ReproError
from .plan import BACKEND_VERSION

__all__ = [
    "RunManifest",
    "RunRecorder",
    "ResumeReport",
    "validate_resume",
    "config_hash",
    "check_inputs",
    "manifest_path",
    "DEFAULT_RUNS_DIR",
    "MANIFEST_NAME",
    "FATES_LOG_NAME",
]

MANIFEST_NAME = "manifest.json"

#: Append-only fate log beside the manifest: one ``[key, fate]`` JSON
#: line per delivered fate since the last compaction.
FATES_LOG_NAME = "fates.log"

_FATES = ("computed", "served")

#: Current manifest schema version (bumped on incompatible changes; a
#: mismatched manifest refuses to resume rather than misvalidating).
MANIFEST_FORMAT = 1

#: CLI flags that change *where/how fast* a run executes but never the
#: result bytes — excluded from the config hash so a resume may
#: override them (e.g. resume a serial run with ``--jobs 4``).
_EXECUTION_FLAGS = {
    "--jobs": 1,
    "--progress": 0,
    "--dry-run": 0,
    "--run-id": 1,
    "--runs-dir": 1,
    "--resume": 0,
    "--fault-plan": 1,
    "--trace": 0,
    "--trace-file": 1,
}


def config_hash(argv: list[str] | tuple[str, ...]) -> str:
    """Digest of the result-relevant CLI arguments plus backend version.

    Execution-only flags (:data:`_EXECUTION_FLAGS`) are stripped, so
    two invocations that must produce identical bytes hash identically
    even when their parallelism or observability flags differ.
    """
    import hashlib

    kept: list[str] = []
    skip = 0
    for arg in argv:
        if skip:
            skip -= 1
            continue
        flag, _, inline_value = arg.partition("=")
        if flag in _EXECUTION_FLAGS:
            if not inline_value:
                skip = _EXECUTION_FLAGS[flag]
            continue
        kept.append(arg)
    payload = ("run-config", MANIFEST_FORMAT, BACKEND_VERSION, tuple(kept))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def manifest_path(runs_dir: str | Path, run_id: str) -> Path:
    return Path(runs_dir) / run_id / MANIFEST_NAME


def _input_digests(paths) -> dict[str, str]:
    """The sha256 of each input file's bytes, keyed by its path as given."""
    import hashlib

    digests = {}
    for path in paths:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise ReproError(f"{path}: unreadable input file ({exc.strerror})") from None
        digests[str(path)] = hashlib.sha256(data).hexdigest()
    return digests


def check_inputs(manifest: "RunManifest") -> None:
    """Refuse a resume whose input files changed since the run began.

    A run's tables are a function of its input file as much as of its
    argv; resuming over an edited file would mix two inputs under one
    run id.  Manifests written before 1.28 record no digests and
    resume unchecked.
    """
    for path, digest in _input_digests(manifest.inputs).items():
        if digest != manifest.inputs[path]:
            raise ReproError(
                f"{path}: changed since run {manifest.run_id!r} started "
                "(sha256 differs from the manifest's); restore the file "
                "or start a new --run-id"
            )


def _read_fates_log(path: Path) -> dict[str, str]:
    """The fates of the log's valid prefix, in append order (last wins).

    Every complete line ends in a newline, so the text after the last
    newline is a torn write and is dropped.  Replay also stops at the
    first line that does not parse as ``[key, fate]``: a fate read from
    a damaged log is never trusted, so those points recompute.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return {}
    except OSError as exc:
        raise ReproError(f"unreadable fate log {path}: {exc}") from None
    fates: dict[str, str] = {}
    for line in data.split(b"\n")[:-1]:
        try:
            key, fate = json.loads(line)
        except (ValueError, TypeError):
            break
        if not isinstance(key, str) or fate not in _FATES:
            break
        fates[key] = fate
    return fates


@dataclass
class RunManifest:
    """The durable state of one run (see module docstring).

    ``fates`` maps each delivered plan key to how its value last
    materialized; duplicate declarations of one key share one entry,
    so ``len(fates)`` counts unique points, matching the cache.
    """

    run_id: str
    argv: tuple[str, ...]
    backend_version: int = BACKEND_VERSION
    config: str = ""
    status: str = "running"  # running | complete
    resumes: int = 0
    #: plan key -> "computed" | "served"
    fates: dict[str, str] = field(default_factory=dict)
    #: Fate tallies of the latest (resumed) round, for the
    #: zero-duplicate-work acceptance check.
    reused: int = 0
    recomputed: int = 0
    #: input file path -> sha256 of its bytes when the run began
    #: (:func:`check_inputs`).  Empty for commands without one.
    inputs: dict = field(default_factory=dict)
    #: Metrics-registry snapshot (``repro-metrics/1``) taken when the
    #: run finished — what ``resume`` diffs its own round against.
    #: Empty until a recorder with a registry finishes.
    metrics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.config:
            self.config = config_hash(self.argv)

    def counts(self) -> dict[str, int]:
        out = {"computed": 0, "served": 0}
        for fate in self.fates.values():
            out[fate] = out.get(fate, 0) + 1
        return out

    def to_json(self) -> dict:
        out = {
            "format": MANIFEST_FORMAT,
            "run_id": self.run_id,
            "argv": list(self.argv),
            "backend_version": self.backend_version,
            "config": self.config,
            "status": self.status,
            "resumes": self.resumes,
            "reused": self.reused,
            "recomputed": self.recomputed,
            "fates": self.fates,
        }
        # Only commands that read an input file carry digests, and
        # only finished runs carry a metrics snapshot; manifests
        # written before those features keep their historical shape.
        if self.inputs:
            out["inputs"] = self.inputs
        if self.metrics:
            out["metrics"] = self.metrics
        return out

    @classmethod
    def from_json(cls, data: dict) -> "RunManifest":
        if data.get("format") != MANIFEST_FORMAT:
            raise ReproError(
                f"run manifest format {data.get('format')!r} is not "
                f"{MANIFEST_FORMAT} (written by an incompatible version)"
            )
        return cls(
            run_id=data["run_id"],
            argv=tuple(data["argv"]),
            backend_version=data["backend_version"],
            config=data["config"],
            status=data["status"],
            resumes=data.get("resumes", 0),
            fates=dict(data.get("fates", {})),
            reused=data.get("reused", 0),
            recomputed=data.get("recomputed", 0),
            inputs=dict(data.get("inputs", {})),
            metrics=dict(data.get("metrics", {})),
        )

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        """The checkpoint at ``path`` with its fate log replayed over it."""
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise ReproError(f"no run manifest at {path}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"unreadable run manifest {path}: {exc}") from None
        manifest = cls.from_json(data)
        manifest.fates.update(_read_fates_log(path.with_name(FATES_LOG_NAME)))
        return manifest


class RunRecorder:
    """Journals a run's point fates: a flushed log line per fate.

    Designed as a ``SimulationPipeline.resolve`` ``on_event`` callback:
    every delivered :class:`~repro.experiments.pipeline.PointEvent`
    carrying a plan key that changes the fate map appends one
    ``[key, fate]`` line to ``fates.log`` and flushes it, so a process
    killed between any two events leaves checkpoint + log holding
    exactly the delivered prefix.  :meth:`write` compacts: it rewrites
    ``manifest.json`` atomically (the one fsync) and deletes the log.

    Use the recorder as a context manager: leaving the block by any
    route (an exception or an injected crash included) compacts the
    journal, with ``status`` still ``running`` unless :meth:`finish`
    ran.
    """

    def __init__(self, path: str | Path, manifest: RunManifest, metrics=None):
        self.path = Path(path)
        self.log_path = self.path.with_name(FATES_LOG_NAME)
        self.manifest = manifest
        #: The invocation's metrics registry: the reused/recomputed
        #: counters live here (``resume_points{outcome}``); the
        #: manifest ints mirror them so the journal stays readable
        #: without the registry, and :meth:`finish` snapshots the
        #: whole registry into the manifest.  ``None`` keeps the
        #: registry-free historical behaviour (library callers).
        self.metrics = metrics
        #: Fates journaled by previous (interrupted) rounds — the
        #: baseline the reused/recomputed accounting compares against.
        self._prior = dict(manifest.fates)
        #: Append handle of the fate log; ``None`` while every journaled
        #: fate is already in the checkpoint.
        self._log = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.write()

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        runs_dir: str | Path,
        run_id: str,
        argv: list[str] | tuple[str, ...],
        metrics=None,
        inputs=(),
    ) -> "RunRecorder":
        """Start a fresh run journal; refuses to clobber an existing one.

        ``inputs`` are the files the command reads (a scenario or spec
        file): their digests pin them for :func:`check_inputs`.
        """
        path = manifest_path(runs_dir, run_id)
        if path.exists():
            raise ReproError(
                f"run {run_id!r} already has a manifest under {path.parent} — "
                f"resume it (`repro-experiments resume {run_id}` or --resume), "
                f"or pick a new --run-id"
            )
        manifest = RunManifest(
            run_id=run_id, argv=tuple(argv), inputs=_input_digests(inputs)
        )
        return cls(path, manifest, metrics=metrics)

    @classmethod
    def resume(
        cls,
        runs_dir: str | Path,
        run_id: str,
        argv: list[str] | tuple[str, ...],
        metrics=None,
    ) -> "RunRecorder":
        """Reopen an existing run journal for a resumed round."""
        path = manifest_path(runs_dir, run_id)
        manifest = RunManifest.load(path)
        manifest.status = "running"
        manifest.resumes += 1
        manifest.reused = 0
        manifest.recomputed = 0
        # The *stored* argv stays authoritative for the config hash;
        # the resumed argv may override execution flags only, which the
        # hash ignores — a result-relevant drift shows up in validate.
        manifest.argv = tuple(argv)
        return cls(path, manifest, metrics=metrics)

    # -- journaling --------------------------------------------------------

    def _count(self, outcome: str) -> None:
        """Mirror one reused/recomputed tick into the metrics registry."""
        if self.metrics is not None:
            self.metrics.counter("resume_points", outcome=outcome).inc()

    def on_event(self, event) -> None:
        """Record one delivered point fate (events without keys pass)."""
        key = getattr(event, "key", None)
        if key is None:
            return
        changed = self.manifest.fates.get(key) != event.status
        self.manifest.fates[key] = event.status
        prior = self._prior.get(key)
        if event.status == "computed" and prior == "computed":
            # The acceptance smell: work a previous round already did.
            self.manifest.recomputed += 1
            self._count("recomputed")
        elif event.status == "served" and prior in ("computed", "served"):
            self.manifest.reused += 1
            self._count("reused")
        if changed:
            self._append(key, event.status)

    def _append(self, key: str, fate: str) -> None:
        """One log line, flushed (it survives a ``kill -9``), never
        fsynced: a line a power loss takes costs at most a recompute."""
        if self._log is None:
            self._log = open(self.log_path, "a")
        self._log.write(json.dumps([key, fate]) + "\n")
        self._log.flush()

    def finish(self, status: str = "complete") -> None:
        if self.metrics is not None and len(self.metrics):
            self.manifest.metrics = self.metrics.snapshot()
        self.manifest.status = status
        self.write()

    def close(self) -> None:
        """Compact fates logged since the last checkpoint (status kept)."""
        if self._log is not None:
            self.write()

    def write(self) -> None:
        """Compact: atomic checkpoint rewrite, then delete the folded log.

        The checkpoint (temp + fsync + ``os.replace``) lands before the
        log goes, so a crash in between leaves a log whose fates the
        checkpoint already holds — replaying it changes nothing.
        """
        tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        payload = json.dumps(self.manifest.to_json(), indent=1, sort_keys=True)
        with open(tmp, "w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        if self._log is not None:
            self._log.close()
            self._log = None
        try:
            self.log_path.unlink()
        except FileNotFoundError:
            pass


@dataclass(frozen=True)
class ResumeReport:
    """What a resume found when it checked the checkpoint against the world."""

    run_id: str
    backend_changed: bool
    config_changed: bool
    reusable: tuple[str, ...] = ()
    invalidated: tuple[str, ...] = ()  # cache entry corrupt: deleted, recomputed
    missing: tuple[str, ...] = ()  # cache entry vanished: recomputed
    stale: tuple[str, ...] = ()  # key the resumed round has not declared
    pending: int = 0  # points the resumed round has declared

    def lines(self) -> list[str]:
        """Human-readable validation summary (one ``[resume]`` line each)."""
        done = len(self.reusable) + len(self.invalidated) + len(self.missing)
        out = [
            f"[resume] run {self.run_id!r}: {done + len(self.stale)} journaled "
            f"fates, {self.pending} points declared this round",
        ]
        if self.backend_changed:
            out.append(
                "[resume] BACKEND_VERSION changed since the manifest was "
                "written — every journaled key is stale and recomputes"
            )
        if self.config_changed:
            out.append(
                "[resume] result-relevant CLI arguments changed — fates that "
                "no longer match the re-derived plan recompute"
            )
        out.append(
            f"[resume] {len(self.reusable)} reusable from cache, "
            f"{len(self.invalidated)} invalidated (corrupt), "
            f"{len(self.missing)} missing, {len(self.stale)} stale"
        )
        return out


def validate_resume(
    manifest: RunManifest,
    pending_keys,
    cache,
    argv: list[str] | tuple[str, ...] | None = None,
    report: ResumeReport | None = None,
) -> ResumeReport:
    """Check journaled fates against the current world.

    ``pending_keys`` is the set of plan keys the resumed invocation is
    about to resolve (re-derived from current code and config — these
    keys embed model parameters, seed, backend and
    :data:`~repro.sim.plan.BACKEND_VERSION`), ``cache`` the result
    cache that would serve them.  Each journaled fate whose key is
    pending is checked against its entry; the others are stale *so
    far*.  A round that declares more points as it goes (an adaptive
    run stages each wave from the data of the last) calls this again
    before every staging round, passing the previous ``report``: only
    its stale fates are checked, and the counts accumulate, so what is
    stale when the round ends is what the round never declared.
    Corrupt cache entries are deleted here so they read as clean
    misses; everything else is reported, not mutated.
    """
    pending_keys = set(pending_keys)
    if report is None:
        report = ResumeReport(
            run_id=manifest.run_id,
            backend_changed=manifest.backend_version != BACKEND_VERSION,
            config_changed=(
                manifest.config
                != config_hash(argv if argv is not None else manifest.argv)
            ),
            stale=tuple(sorted(manifest.fates)),
        )
        # The resumed round runs under the *current* backend; stamp it
        # so the manifest reflects the world its newest fates come from
        # (the drift is captured in backend_changed just above).
        manifest.backend_version = BACKEND_VERSION
    reusable: list[str] = []
    invalidated: list[str] = []
    missing: list[str] = []
    stale: list[str] = []
    for key in report.stale:
        if key not in pending_keys:
            stale.append(key)
            continue
        ok, reason = cache.verify_entry(key, retain=True)
        if ok:
            reusable.append(key)
        elif reason == "missing":
            missing.append(key)
        else:
            cache.invalidate(key)
            invalidated.append(key)
    return dataclasses.replace(
        report,
        reusable=report.reusable + tuple(reusable),
        invalidated=report.invalidated + tuple(invalidated),
        missing=report.missing + tuple(missing),
        stale=tuple(stale),
        pending=report.pending + len(pending_keys),
    )
