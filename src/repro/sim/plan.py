"""Fused simulation planning: many Monte-Carlo points, one dispatch.

The experiment harness evaluates *sweeps*: dozens of ``(model, T, P)``
points per figure, hundreds per full evaluation.  Calling
:func:`repro.sim.montecarlo.simulate_overhead` once per point is
correct but wasteful — every call re-derives its own chunk plan, and
nothing is shared or cached across points.  This module amortises that:

* a :class:`SimRequest` names one simulation point with its full budget
  (model, ``T``, ``P``, runs x patterns, seed, backend);
* :func:`plan_simulations` fuses a list of requests into one
  :class:`SimulationPlan` — deduplicating identical points and grouping
  the rest by resolved backend;
* :func:`request_jobs` expands a request into its jobs — the one
  point-to-jobs dispatch of the package: the chunk plan and spawned
  ``SeedSequence`` children of :func:`repro.sim.batch.plan_chunk_jobs`
  and the module-level chunk workers.
  :func:`~repro.sim.montecarlo.simulate_overhead` runs the same jobs
  in-process, so results are **bit-identical** to per-point calls with
  the same arguments, whatever executor runs the jobs;
* :func:`claim_serve_expand` serves cached points and tags the jobs
  of the rest for the event-driven
  :class:`repro.sim.scheduler.Scheduler`; :func:`merge_request_results`
  folds a point's completed jobs back into one
  :class:`~repro.sim.results.OverheadEstimate`;
* :class:`ResultCache` is a content-addressed on-disk cache (one
  ``.npz`` per point under a cache directory, keyed by a stable SHA-256
  over the model parameters, pattern, budget, seed, backend and a
  :data:`BACKEND_VERSION` tag) so repeated evaluations — ``all`` after
  ``fig5``, ``report`` after ``all``, CI re-runs — skip every
  already-computed point.

The experiment-facing wrapper (deferred values, generic DES jobs for
the extension studies, the event-driven scheduling round) lives in
:mod:`repro.experiments.pipeline`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..core.pattern import PatternModel
from ..exceptions import SimulationError
from . import batch as _batch
from .batch import (
    PatternRates,
    _batch_chunk_worker,
    check_failure_budget,
    merge_batch_stats,
    plan_chunk_jobs,
)
from .entry_codec import CorruptEntry, decode_entry, encode_entry
from .montecarlo import FAST, resolve_method
from .protocol import simulate_run
from .results import OverheadEstimate, overhead_estimate
from .rng import DEFAULT_SEED, make_rng, spawn_seed_sequences
from .vectorized import simulate_chunk

__all__ = [
    "BACKEND_VERSION",
    "SimRequest",
    "SimulationPlan",
    "ResultCache",
    "CacheEntry",
    "canonical_signature",
    "request_key",
    "plan_simulations",
    "request_jobs",
    "merge_request_results",
    "run_job",
    "PointJobs",
    "claim_serve_expand",
    "DISPATCH_ORDER",
]

#: Version tag mixed into every cache key.  Bump whenever a backend's
#: sampled stream changes, so stale cached results can never be served.
BACKEND_VERSION = 3

#: Upper bound on the jobs one DES request expands into (each job
#: simulates a consecutive slice of the request's runs).
_DES_SLICES = 8

#: Backend dispatch order, slowest first: event-driven jobs are queued
#: ahead of the array backends so the pool's tail is short.
DISPATCH_ORDER = ("des", "vectorized", "batch")


# -- requests and cache keys -------------------------------------------------


@dataclass(frozen=True)
class SimRequest:
    """One Monte-Carlo point: PATTERN(T, P) under ``model`` at a budget.

    Mirrors the signature of
    :func:`repro.sim.montecarlo.simulate_overhead`; a request is a pure
    value object, so identical requests are fused by the planner and
    share one computation (and one cache entry).
    """

    model: PatternModel
    T: float
    P: float
    n_runs: int = FAST.n_runs
    n_patterns: int = FAST.n_patterns
    seed: int | None = None
    method: str = "auto"

    @property
    def n_cells(self) -> int:
        return self.n_runs * self.n_patterns

    @property
    def resolved_method(self) -> str:
        """The concrete backend ``"auto"`` resolves to for this budget."""
        return resolve_method(self.method, self.n_runs, self.n_patterns)


def canonical_signature(obj):
    """Stable, hashable rendition of a (nested-dataclass) parameter tree.

    Floats are rendered via ``float.hex()`` so the signature is exact
    (no repr rounding); dataclasses carry their class name so two cost
    models with equal coefficients but different forms never collide.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            (f.name, canonical_signature(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        )
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, (tuple, list)):
        return ("seq",) + tuple(canonical_signature(v) for v in obj)
    if isinstance(obj, dict):
        return ("map",) + tuple(
            (k, canonical_signature(v)) for k, v in sorted(obj.items())
        )
    raise SimulationError(
        f"cannot build a stable cache signature for {type(obj).__name__!r}"
    )


#: ``id(model)`` -> (weak reference to the model, ``repr`` of its signature).
_MODEL_SIGNATURES: dict[int, tuple[weakref.ref, str]] = {}


def _model_signature_repr(model) -> str:
    """``repr(canonical_signature(model))``, computed once per object.

    Keyed by identity, never by value: models that compare equal can
    still sign differently (``0.0 == -0.0``, but their ``hex()`` differ).
    An entry goes when its model is collected, before its id can be
    reused.  The ``repr`` is kept rather than the tuple: a fifth of the
    memory, and it is what the key hashes.
    """
    key = id(model)
    entry = _MODEL_SIGNATURES.get(key)
    if entry is not None and entry[0]() is model:
        return entry[1]
    text = repr(canonical_signature(model))
    ref = weakref.ref(model, lambda _, key=key: _MODEL_SIGNATURES.pop(key, None))
    _MODEL_SIGNATURES[key] = (ref, text)
    return text


def _digest(payload: tuple) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def request_key(request: SimRequest) -> str:
    """Content address of a request's result (hex SHA-256).

    Two requests share a key iff the sequential path would produce the
    same numbers for both: same model parameters, pattern, budget,
    seed, resolved backend, and backend version.
    """
    fields = [
        "overhead",
        BACKEND_VERSION,
        float(request.T).hex(),
        float(request.P).hex(),
        request.n_runs,
        request.n_patterns,
        DEFAULT_SEED if request.seed is None else request.seed,
        request.resolved_method,
        # Former worker-count slot, kept so existing keys stay valid.
        None,
    ]
    # The repr of the tuple ("overhead", BACKEND_VERSION, signature, T,
    # P, ...), spelled out so the signature's repr can come memoised.
    items = [repr(v) for v in fields]
    items.insert(2, _model_signature_repr(request.model))
    return hashlib.sha256(f"({', '.join(items)})".encode()).hexdigest()


def call_key(fn: Callable, args: tuple, kwargs: dict) -> str:
    """Content address of a generic simulation call (extension studies)."""
    return _digest(
        (
            "call",
            BACKEND_VERSION,
            f"{fn.__module__}.{fn.__qualname__}",
            canonical_signature(args),
            canonical_signature(kwargs),
        )
    )


# -- planning ----------------------------------------------------------------


@dataclass(frozen=True)
class SimulationPlan:
    """A fused batch of unique simulation points.

    Attributes
    ----------
    requests:
        The unique requests, in first-seen order.
    slots:
        For every *input* request (in submission order), the index of
        its unique representative in :attr:`requests` — duplicated
        points are computed once and fanned back out.
    methods / keys:
        Resolved backend and cache key per unique request.
    """

    requests: tuple[SimRequest, ...]
    slots: tuple[int, ...]
    methods: tuple[str, ...]
    keys: tuple[str, ...]

    @property
    def n_points(self) -> int:
        """Submitted points (including duplicates)."""
        return len(self.slots)

    @property
    def n_unique(self) -> int:
        return len(self.requests)

    def groups(self) -> dict[str, tuple[int, ...]]:
        """Unique-request indices grouped by resolved backend.

        Dispatch expands the groups slowest-backend-first (see
        :data:`DISPATCH_ORDER`) so long event-driven jobs start while
        the pool still has idle workers.
        """
        out: dict[str, list[int]] = {}
        for i, method in enumerate(self.methods):
            out.setdefault(method, []).append(i)
        return {m: tuple(idx) for m, idx in out.items()}

    def dispatch_order(self) -> list[int]:
        """Unique-request indices in job-submission order."""
        groups = self.groups()
        return [
            i
            for method in sorted(groups, key=DISPATCH_ORDER.index)
            for i in groups[method]
        ]


def plan_simulations(
    requests: Sequence[SimRequest], keys: Sequence[str] | None = None
) -> SimulationPlan:
    """Fuse a list of requests into one deduplicated plan.

    Backend names are resolved (and validated) here, so an unknown
    ``method`` fails at plan time rather than mid-dispatch.  ``keys``
    are the requests' :func:`request_key` values when the caller has
    already hashed them (the experiment pipeline hashes each point once
    per invocation); by default each request is hashed here.
    """
    unique: list[SimRequest] = []
    methods: list[str] = []
    unique_keys: list[str] = []
    slots: list[int] = []
    by_key: dict[str, int] = {}
    if keys is None:
        keys = [request_key(r) for r in requests]  # validates each method
    for request, key in zip(requests, keys):
        slot = by_key.get(key)
        if slot is None:
            slot = len(unique)
            by_key[key] = slot
            unique.append(request)
            methods.append(request.resolved_method)
            unique_keys.append(key)
        slots.append(slot)
    return SimulationPlan(
        requests=tuple(unique),
        slots=tuple(slots),
        methods=tuple(methods),
        keys=tuple(unique_keys),
    )


# -- job expansion -----------------------------------------------------------


def _batch_single_job(
    rates: PatternRates, n_runs: int, n_patterns: int, seed
) -> _batch.BatchStats:
    """The unchunked batch path: one generator seeded with the master seed."""
    return _batch._simulate_batch_rates(rates, n_runs, n_patterns, make_rng(seed))


def _des_slice_job(
    model: PatternModel, T: float, P: float, n_patterns: int, seeds: tuple
) -> list:
    """A consecutive slice of a DES request's independent runs."""
    return [
        simulate_run(model, T, P, n_patterns, np.random.default_rng(ss))
        for ss in seeds
    ]


def run_job(job: tuple) -> object:
    """Execute one ``(fn, args, kwargs)`` job (module-level: picklable)."""
    fn, args, kwargs = job
    return fn(*args, **kwargs)


def request_jobs(request: SimRequest, method: str | None = None) -> list[tuple]:
    """Expand a request into the jobs that simulate it.

    The chunk plan and the spawned seed streams are pure functions of
    the request, so executing these jobs — in any pool, in any order,
    or in-process as :func:`repro.sim.montecarlo.simulate_overhead`
    does — and merging yields bit-identical numbers.
    """
    method = request.resolved_method if method is None else method
    model, T, P = request.model, request.T, request.P
    n_runs, n_patterns = request.n_runs, request.n_patterns
    if n_runs <= 0 or n_patterns <= 0:
        raise SimulationError("n_runs and n_patterns must be positive")
    if method == "des":
        seeds = spawn_seed_sequences(n_runs, request.seed)
        size = max(1, -(-n_runs // _DES_SLICES))
        return [
            (_des_slice_job, (model, T, P, n_patterns, tuple(seeds[i : i + size])), {})
            for i in range(0, n_runs, size)
        ]
    rates = PatternRates.from_model(model, T, P)
    if method == "batch" and request.n_cells <= _batch.MAX_CHUNK_ELEMENTS:
        # Single-pass sampler with its historical RNG stream.
        check_failure_budget(rates, request.n_cells)
        return [(_batch_single_job, (rates, n_runs, n_patterns, request.seed), {})]
    worker = _batch_chunk_worker if method == "batch" else simulate_chunk
    chunk_plan, seeds = plan_chunk_jobs(n_runs, n_patterns, request.seed)
    # Refused at planning time, before any job runs; the first chunk is
    # the largest.
    check_failure_budget(rates, chunk_plan[0] * n_patterns)
    if len(chunk_plan) == 1:
        return [(worker, (rates, n_runs, n_patterns, seeds[0]), {})]
    return [
        (worker, (rates, c, n_patterns, s), {}) for c, s in zip(chunk_plan, seeds)
    ]


def merge_request_results(
    request: SimRequest, method: str, parts: Sequence
) -> OverheadEstimate:
    """Merge a request's job results back into one overhead estimate."""
    if not parts:
        raise SimulationError("no job results to merge")
    if method == "des":
        runs = [run for part in parts for run in part]
        return overhead_estimate(request.model, request.T, request.P, runs)
    stats = parts[0] if len(parts) == 1 else merge_batch_stats(list(parts))
    return overhead_estimate(request.model, request.T, request.P, stats)


# -- on-disk result cache ----------------------------------------------------


class ResultCache:
    """Content-addressed ``.npz`` store for simulation results.

    One file per result under ``directory``, named by the request's
    SHA-256 key, written atomically (temp file + rename) so concurrent
    runs sharing a cache directory never observe torn files.  Each file
    holds one member, ``entry``, a 0-d structured record of the
    entry's fields; entries written by 1.14 and earlier (one member per
    field) still read (see :mod:`repro.sim.entry_codec`).  Unreadable
    or mismatched entries read as misses and are recomputed.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        # Observability hooks (see bind_obs): None until a pipeline
        # attaches its trace writer and metrics registry.
        self.trace = None
        self.metrics = None
        #: key -> payload that :meth:`verify_entry` read with
        #: ``retain=True``; the next get serves (and drops) it instead
        #: of reading the file a second time.
        self._verified: dict[str, dict] = {}

    def bind_obs(self, trace, metrics) -> None:
        """Attach a run's trace writer / metrics registry to this cache.

        The cache predates the obs layer and is constructed in many
        contexts that have neither (tests, `cache` subcommands), so the
        hooks arrive by late binding instead of constructor arguments.
        """
        self.trace = trace
        self.metrics = metrics

    def _note(self, event: str, key: str, **fields) -> None:
        """One cache access, into the metrics registry and the trace."""
        if self.metrics is not None:
            self.metrics.counter("cache", event=event).inc()
        if self.trace is not None and self.trace.enabled:
            self.trace.event(f"cache_{event}", key=key, **fields)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    @staticmethod
    def _read(path: Path) -> dict:
        """Every field of one entry, CRC-checked (a damaged file raises).

        The one-record layout :meth:`_store` writes and the one-member-
        per-field layout of 1.14 and earlier read as the same dict.
        """
        return decode_entry(path.read_bytes())

    def _load(self, key: str, kind: str) -> dict | None:
        """One lookup, counted: the entry's fields, or ``None`` (a miss)."""
        data = self._verified.pop(key, None)
        if data is None:
            path = self._path(key)
            try:
                data = self._read(path) if path.exists() else None
            except (OSError, CorruptEntry):
                pass  # gone, corrupt or foreign: a miss
        if data is None or str(data.get("kind")) != kind:
            self.misses += 1
            self._note("miss", key)
            return None
        self.hits += 1
        self._note("hit", key)
        return data

    def contains(self, key: str) -> bool:
        """Whether an entry exists for ``key`` (no hit/miss accounting).

        A cheap existence probe for dry-run previews; the entry may
        still read as a miss later if it turns out corrupt.
        """
        return self._path(key).exists()

    # -- integrity ---------------------------------------------------------

    #: Entry kinds this cache writes (anything else is a foreign file).
    _KINDS = ("estimate", "value")

    def verify_entry(self, key: str, retain: bool = False) -> tuple[bool, str]:
        """Integrity-check one entry without hit/miss accounting.

        Returns ``(True, "ok")`` for a fully readable entry,
        ``(False, "missing")`` when no file exists, and
        ``(False, <reason>)`` for a truncated/corrupt/foreign file.
        The whole file is read and every member CRC-checked, so a file
        truncated or damaged anywhere is caught, not just a mangled
        header.  With ``retain`` a good entry's payload is kept for the
        next get of ``key``, which serves it without reading the file
        again (a resume verifies every entry it is about to serve).
        """
        path = self._path(key)
        try:
            if path.stat().st_size == 0:
                return False, "empty file"
        except FileNotFoundError:
            return False, "missing"
        try:
            data = self._read(path)
            kind = str(data["kind"])
        except KeyError:
            return False, "no 'kind' field (foreign file)"
        except (OSError, CorruptEntry) as exc:
            return False, f"unreadable ({type(exc).__name__}: {exc})"
        if kind not in self._KINDS:
            return False, f"unknown entry kind {kind!r}"
        if retain:
            self._verified[key] = data
        return True, "ok"

    def verify(self) -> tuple[list["CacheEntry"], list[tuple["CacheEntry", str]]]:
        """Integrity-check every entry; returns ``(ok, corrupt)``.

        ``corrupt`` pairs each bad entry with its reason.  Corrupt
        entries are *reported*, never deleted — that is the caller's
        decision (``cache verify --delete``, or the resume validator).
        """
        ok: list[CacheEntry] = []
        corrupt: list[tuple[CacheEntry, str]] = []
        for entry in self.entries():
            good, reason = self.verify_entry(entry.key)
            if good:
                ok.append(entry)
            else:
                corrupt.append((entry, reason))
        return ok, corrupt

    def invalidate(self, key: str) -> bool:
        """Delete one entry (a corrupt checkpoint must read as a miss)."""
        self._verified.pop(key, None)
        try:
            self._path(key).unlink()
            return True
        except OSError:
            return False

    def _store(self, key: str, **fields) -> None:
        # Atomic publish: one write of the whole encoded entry to a
        # private temp file, then rename over the final name, so a
        # reader or a process crash never observes a torn entry.  It is
        # never fsynced: a power loss may leave it empty, short or
        # zero-filled, which the codec rejects, so it recomputes.
        started = time.perf_counter()
        path = self._path(key)
        tmp = path.with_name(f".{key}.{os.getpid()}.tmp.npz")
        with open(tmp, "wb") as handle:
            handle.write(encode_entry(fields))
        os.replace(tmp, path)
        dur = round(time.perf_counter() - started, 6)
        self._note("store", key, kind=fields["kind"], dur=dur)

    # -- overhead estimates ------------------------------------------------

    def get_estimate(self, key: str) -> OverheadEstimate | None:
        data = self._load(key, "estimate")
        if data is None:
            return None
        return OverheadEstimate(
            mean=float(data["mean"]),
            std=float(data["std"]),
            stderr=float(data["stderr"]),
            ci_low=float(data["ci_low"]),
            ci_high=float(data["ci_high"]),
            n_runs=int(data["n_runs"]),
        )

    def put_estimate(self, key: str, estimate: OverheadEstimate) -> None:
        self._store(
            key,
            kind="estimate",
            mean=estimate.mean,
            std=estimate.std,
            stderr=estimate.stderr,
            ci_low=estimate.ci_low,
            ci_high=estimate.ci_high,
            n_runs=estimate.n_runs,
        )

    # -- generic scalar values (extension-study DES sweeps) ----------------

    def get_value(self, key: str) -> float | None:
        data = self._load(key, "value")
        return None if data is None else float(data["value"])

    def put_value(self, key: str, value: float) -> None:
        self._store(key, kind="value", value=float(value))

    # -- introspection and garbage collection ------------------------------

    def entries(self) -> list["CacheEntry"]:
        """Every cache entry with its size and age, oldest first."""
        out = []
        for path in self.directory.glob("*.npz"):
            if path.name.startswith("."):
                continue  # in-flight atomic-write temp (or crash leftover)
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced with a concurrent prune
                continue
            out.append(CacheEntry(key=path.stem, path=path, size=stat.st_size,
                                  mtime=stat.st_mtime))
        out.sort(key=lambda e: (e.mtime, e.key))
        return out

    def stats(self) -> dict:
        """Aggregate cache statistics (entry count, bytes, age span)."""
        entries = self.entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "total_bytes": sum(e.size for e in entries),
            "oldest_mtime": entries[0].mtime if entries else None,
            "newest_mtime": entries[-1].mtime if entries else None,
            # Cheap corruption signal (no loads): a zero-byte entry can
            # only be a torn write from a pre-atomic cache or a full
            # disk; `verify` does the thorough per-entry check.
            "empty_entries": sum(1 for e in entries if e.size == 0),
        }

    def prune(
        self,
        max_age_days: float | None = None,
        max_size_mb: float | None = None,
        now: float | None = None,
        dry_run: bool = False,
    ) -> tuple[list["CacheEntry"], list["CacheEntry"]]:
        """Age- and size-based GC.  Returns ``(removed, kept)``.

        Entries older than ``max_age_days`` go first; if the survivors
        still exceed ``max_size_mb``, the oldest are evicted until the
        cache fits (LRU by file mtime — hits do not touch mtime, so
        this is creation-time eviction, which is the right order for a
        content-addressed store: older entries are the most likely to
        belong to superseded sweeps).
        """
        import time as _time

        entries = self.entries()
        now = _time.time() if now is None else now
        removed: list[CacheEntry] = []
        kept: list[CacheEntry] = []
        if max_age_days is not None:
            cutoff = now - max_age_days * 86400.0
            for entry in entries:
                (removed if entry.mtime < cutoff else kept).append(entry)
        else:
            kept = list(entries)
        if max_size_mb is not None:
            budget = max_size_mb * 1024 * 1024
            total = sum(e.size for e in kept)
            survivors = []
            for entry in kept:  # oldest first: evict from the front
                if total > budget:
                    removed.append(entry)
                    total -= entry.size
                else:
                    survivors.append(entry)
            kept = survivors
        if not dry_run:
            for entry in removed:
                try:
                    entry.path.unlink()
                except OSError:  # pragma: no cover - raced with another prune
                    pass
        return removed, kept


@dataclass(frozen=True)
class CacheEntry:
    """One content-addressed cache file (key = file stem)."""

    key: str
    path: Path
    size: int
    mtime: float


# -- execution ---------------------------------------------------------------


@dataclass
class PointJobs:
    """In-flight bookkeeping of one point's jobs.

    The event-driven scheduler completes jobs out of order; each
    completion is delivered into its part slot, and the point merges
    (in part order, never completion order — that is what keeps the
    reduction bit-identical) once the last part lands.
    """

    index: int
    parts: list
    remaining: int

    def deliver(self, part: int, result) -> bool:
        """Store one part result; ``True`` when the point is complete."""
        self.parts[part] = result
        self.remaining -= 1
        return self.remaining == 0


def claim_serve_expand(
    plan: SimulationPlan,
    cache: ResultCache | None = None,
    memo: dict | None = None,
    calls: Sequence[tuple[str, tuple]] = (),
) -> tuple[list, list[tuple], dict[int, "PointJobs"]]:
    """Cache-serve short-circuit and tagged expansion.

    A round's points are the plan's unique requests (indices below
    ``plan.n_unique``; payload: an :class:`OverheadEstimate`) followed
    by ``calls``, the ``(key, job)`` pairs of generic value points
    (payload: the job's float; one job each).  Memo and disk hits are
    served immediately — they never touch the scheduler; every other
    point expands into ``(job, (index, part))`` tagged jobs: requests in
    :meth:`SimulationPlan.dispatch_order` (slowest backend first), then
    calls.

    Returns ``(values, tagged_jobs, books)``: the served payload per
    point (``None`` where jobs must run), the tagged job list, and a
    :class:`PointJobs` book per expanded point.  Every point has either
    a value or a book.
    """
    n = plan.n_unique
    keys = plan.keys + tuple(key for key, _ in calls)
    values: list = [None] * len(keys)
    tagged: list[tuple] = []
    books: dict[int, PointJobs] = {}
    for i in plan.dispatch_order() + list(range(n, len(keys))):
        key = keys[i]
        if memo is not None and key in memo:
            values[i] = memo[key]
            continue
        if cache is not None:
            hit = cache.get_estimate(key) if i < n else cache.get_value(key)
            if hit is not None:
                values[i] = hit
                if memo is not None:
                    memo[key] = hit
                continue
        if i < n:
            jobs = request_jobs(plan.requests[i], plan.methods[i])
        else:
            jobs = [calls[i - n][1]]
        books[i] = PointJobs(index=i, parts=[None] * len(jobs), remaining=len(jobs))
        tagged.extend((job, (i, part)) for part, job in enumerate(jobs))
    return values, tagged, books

