"""Deferred, event-driven batched simulation for the figure modules.

A full evaluation simulates hundreds of (scenario, x-point) Monte-Carlo
points.  Calling :func:`repro.sim.montecarlo.simulate_overhead` once per
point would run them strictly in sequence, none of them shared or
cached.  This module batches them:

* a figure declares every Monte-Carlo point of its sweep up front by
  calling :meth:`SimulationPipeline.simulate_mean`, which returns a
  cheap :class:`Deferred` placeholder instead of a float;
* :meth:`SimulationPipeline.resolve` fuses all pending points into one
  :class:`repro.sim.plan.SimulationPlan`, serves memo/disk cache hits
  immediately, and hands the remaining chunk jobs to a
  :class:`repro.sim.scheduler.Scheduler` that keeps a bounded window
  of jobs in flight on the shared
  :class:`repro.sim.executors.Executor` (serial or pooled — reused
  across figures by the CLI runner).  Each :class:`Deferred`
  resolves the moment the last chunk of *its own point* completes —
  no wave barrier: a slow point never blocks an unrelated one, and the
  caller observes completions point by point via ``on_event``;
* :func:`materialize` swaps the placeholders inside already-built row
  structures for their values, so figure code keeps its natural
  row-building shape.

Extension studies whose samplers are event-driven (Weibull renewal,
per-node failures) join the same batch through
:meth:`SimulationPipeline.call`: any picklable module-level function
becomes a scheduled job, with the same content-addressed caching.

Every value is **bit-identical** to a per-point
:func:`~repro.sim.montecarlo.simulate_overhead` call with the same
:class:`~repro.experiments.common.SimSettings`: both map a point to
jobs through :func:`repro.sim.plan.request_jobs`, per-point merging is
in chunk order (never completion order), and the pool width, cache
state, in-flight window and completion interleaving never enter the
sampled numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..exceptions import SimulationError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACE
from .analytic import AnalyticMemo, evaluate_analytic
from ..sim.executors import Executor, make_executor
from ..sim.plan import (
    ResultCache,
    SimRequest,
    call_key,
    claim_serve_expand,
    merge_request_results,
    plan_simulations,
    request_jobs,
    request_key,
)
from ..sim.scheduler import RetryPolicy, Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (common imports sim)
    from ..core.pattern import PatternModel
    from .common import SimSettings

__all__ = [
    "Deferred",
    "PointEvent",
    "SimulationPipeline",
    "materialize",
]


class Deferred:
    """Placeholder for a simulation value the pipeline has not run yet."""

    __slots__ = ("_value", "_ready")

    def __init__(self) -> None:
        self._ready = False
        self._value = None

    @classmethod
    def resolved(cls, value) -> "Deferred":
        out = cls()
        out._set(value)
        return out

    def _set(self, value) -> None:
        self._value = value
        self._ready = True

    @property
    def ready(self) -> bool:
        return self._ready

    @property
    def value(self):
        if not self._ready:
            raise SimulationError(
                "deferred simulation value read before the pipeline resolved it; "
                "call SimulationPipeline.resolve() first"
            )
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deferred({self._value!r})" if self._ready else "Deferred(<pending>)"


@dataclass(frozen=True)
class PointEvent:
    """One declared point resolving (the ``on_event`` payload).

    ``status`` says how the value materialized: ``"computed"`` (its
    chunk jobs ran this round) or ``"served"`` (memo or disk cache).
    ``group`` is the study label active when the point was
    declared (see :attr:`SimulationPipeline.current_group`).  ``key``
    is the point's content-addressed plan key — what the run manifest
    journals so an interrupted run can be resumed; duplicates of one
    key fire one event each, all carrying the same key.
    """

    group: str | None
    status: str
    key: str | None = None


def materialize(obj):
    """Replace every :class:`Deferred` inside nested rows by its value."""
    if isinstance(obj, Deferred):
        return obj.value
    if isinstance(obj, tuple):
        return tuple(materialize(v) for v in obj)
    if isinstance(obj, list):
        return [materialize(v) for v in obj]
    if isinstance(obj, dict):
        return {k: materialize(v) for k, v in obj.items()}
    return obj


class _Declared:
    """One pending declaration (a request or a call) and its plan key."""

    __slots__ = ("kind", "item", "deferred", "group", "_key")

    def __init__(self, kind: str, item, deferred: Deferred, group: str | None):
        self.kind = kind
        self.item = item
        self.deferred = deferred
        self.group = group
        self._key: str | None = None

    @property
    def key(self) -> str:
        """The plan key, hashed once: resume validation, the dry-run
        preview and planning all read this one value."""
        if self._key is None:
            if self.kind == "request":
                self._key = request_key(self.item)
            else:
                self._key = call_key(*self.item)
        return self._key


class SimulationPipeline:
    """Shared scheduler + caches for all figure sweeps of one invocation.

    Parameters
    ----------
    jobs:
        Worker-process count of the shared pool.  ``None`` auto-sizes
        to the machine; ``0``/``1`` runs serially in-process.  The pool
        is created lazily on the first parallel dispatch and reused by
        every subsequent :meth:`resolve` until :meth:`close`.
    cache_dir:
        Directory of the content-addressed on-disk result cache, or
        ``None`` to disable disk caching.  An in-memory memo always
        deduplicates repeated points within one pipeline lifetime
        (e.g. across the figures of ``repro-experiments all``).
    executor:
        An explicit :class:`repro.sim.executors.Executor` overriding
        the one implied by ``jobs``.
    retry:
        The scheduler's :class:`~repro.sim.scheduler.RetryPolicy` for
        transient job failures; ``None`` restores fail-fast.  The
        scheduler's in-flight window is always its default, sized from
        the executor's worker count.
    fault:
        A deterministic :class:`~repro.sim.faults.FaultPlan` threaded
        into every scheduling round (dev/test harness).
    trace:
        A :class:`~repro.obs.trace.TraceWriter` journaling this
        invocation's span/point events (``--trace``), or ``None`` for
        the zero-overhead null writer.
    metrics:
        The invocation's :class:`~repro.obs.metrics.MetricsRegistry`;
        a private registry is created when none is passed, so the
        per-study counters always exist.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache_dir=None,
        executor: Executor | None = None,
        retry: RetryPolicy | None = RetryPolicy(),
        fault=None,
        trace=None,
        metrics=None,
    ):
        self.trace = trace if trace is not None else NULL_TRACE
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.executor = executor if executor is not None else make_executor(jobs)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        if self.cache is not None:
            self.cache.bind_obs(self.trace, self.metrics)
        self.retry = retry
        self.fault = fault
        #: Cross-replicate memo of analytic optima.  Always deduplicates
        #: in memory; persists alongside the npz cache only when disk
        #: caching is on, so runs without a cache leave no state behind.
        self.analytic_memo = AnalyticMemo(
            Path(cache_dir) / "analytic_memo.json" if cache_dir is not None else None
        )
        self._memo: dict[str, object] = {}
        self._pending: list[_Declared] = []
        #: Label attached to subsequently declared points (the staging
        #: engine sets it to the study name around each declare phase).
        self.current_group: str | None = None
        #: Scheduling rounds resolved so far (trace round numbering).
        self._rounds = 0

    @property
    def pending_points(self) -> int:
        """Declared-but-unresolved points."""
        return len(self._pending)

    # -- declaring work ----------------------------------------------------

    def simulate_mean(
        self, model: "PatternModel", T: float, P: float, settings: "SimSettings"
    ) -> Deferred:
        """Declare one Monte-Carlo point at ``settings``' budget.

        Returns a placeholder whose ``.value`` (after :meth:`resolve`)
        is the simulated mean overhead of PATTERN(T, P) — or ``None``
        immediately when ``settings.simulate`` is off.
        """
        if not settings.simulate:
            return Deferred.resolved(None)
        n_runs, n_patterns = settings.budget()
        request = SimRequest(
            model=model,
            T=float(T),
            P=float(P),
            n_runs=n_runs,
            n_patterns=n_patterns,
            seed=settings.seed,
            method=settings.method,
        )
        deferred = Deferred()
        self._pending.append(_Declared("request", request, deferred, self.current_group))
        return deferred

    def call(self, fn: Callable, *args, **kwargs) -> Deferred:
        """Defer a generic simulation call onto the shared scheduler.

        ``fn`` must be a picklable module-level function whose result is
        a float (the extension studies use this for their event-driven
        sweeps); the result is cached under a key derived from the
        function's qualified name and canonicalised arguments.
        """
        deferred = Deferred()
        self._pending.append(
            _Declared("call", (fn, args, kwargs), deferred, self.current_group)
        )
        return deferred

    def evaluate_analytic(self, models) -> list:
        """Analytic optima for a column of models, via the shared memo.

        Batched counterpart of the per-cell ``optimal_pattern`` /
        ``optimize_allocation`` calls the sweep evaluator used to make
        inline (see :mod:`repro.experiments.analytic`); unlike the sim
        columns the values come back immediately, not deferred.  The
        served/computed split is attributed to :attr:`current_group`,
        like sim declarations.
        """
        start = time.perf_counter()
        points, evaluated, served = evaluate_analytic(models, self.analytic_memo)
        dur = time.perf_counter() - start
        label = self.current_group if self.current_group is not None else "(ungrouped)"
        self.metrics.counter("analytic", study=label, kind="evaluated").inc(evaluated)
        self.metrics.counter("analytic", study=label, kind="served").inc(served)
        if self.trace.enabled:
            self.trace.event(
                "analytic_batch", study=label, evaluated=evaluated, served=served,
                dur=round(dur, 6),
            )
            if served:
                self.trace.event("memo_serve", study=label, count=served)
        return points

    def pending_keys(self) -> list[str]:
        """Plan keys of the pending declarations (deduplicated, in order).

        The resume path validates a run manifest against this set
        before each staging round: a journaled fate whose key no round
        declares is stale (the plan changed — different backend
        version, budget, seed…) and must not be reused.
        """
        keys: list[str] = []
        seen: set[str] = set()
        for declared in self._pending:
            key = declared.key
            if key not in seen:
                seen.add(key)
                keys.append(key)
        return keys

    # -- previewing it (dry runs) ------------------------------------------

    def pending_report(self) -> dict[str, dict[str, int]]:
        """Planned-work summary per study group, without executing.

        For every group (in first-declaration order): declared points,
        unique new keys, points deduplicated against compute planned by
        earlier declarations, points served without compute (in-memory
        memo or disk cache), points left to compute, and the chunk jobs
        they expand into.  Every point lands in exactly **one** of
        ``deduped`` / ``cache_hits`` / ``to_compute`` — a duplicate of
        a cache-served key counts as a cache hit in *its own* study
        (that is what resolve will report), never as a second expected
        disk hit for the study that declared it first, so summing the
        per-study rows can neither double-report nor drop hits.  Pure
        preview — pending points stay pending, and the cache's
        hit/miss accounting is untouched.

        Each entry also carries ``analytic_evaluated`` /
        ``analytic_served``: the group's analytic-engine traffic so far
        (those points resolve at declare time, so unlike the sim
        counters they describe work already done).  Groups that only
        did analytic work (``--no-sim`` previews) get a row too.

        The preview flows through the invocation's metrics registry
        (``plan{study,field}`` counters, refreshed on every call) —
        the returned dict is assembled *from* the registry, so dry-run
        consumers may read either surface.
        """
        fields = (
            "points",
            "unique",
            "deduped",
            "cache_hits",
            "to_compute",
            "jobs",
            "analytic_evaluated",
            "analytic_served",
        )
        self.metrics.clear("plan")
        entries: dict[str, dict] = {}

        def _entry(group: str) -> dict:
            entry = entries.get(group)
            if entry is None:
                entry = {
                    f: self.metrics.counter("plan", study=group, field=f)
                    for f in fields
                }
                entries[group] = entry
            return entry

        #: First-seen fate per plan key: ``True`` when the point will be
        #: served without compute (memo/disk), ``False`` when its jobs
        #: must run this round.
        served: dict[str, bool] = {}
        for declared in self._pending:
            group, key = declared.group, declared.key
            entry = _entry(group if group is not None else "(ungrouped)")
            entry["points"].inc()
            if key in served:
                # A later declaration of an already-classified key: it
                # shares its representative's fate, whichever study
                # staged that representative.
                entry["cache_hits" if served[key] else "deduped"].inc()
                continue
            if key in self._memo:
                served[key] = True
                entry["cache_hits"].inc()
                continue
            entry["unique"].inc()
            if self.cache is not None and self.cache.contains(key):
                served[key] = True
                entry["cache_hits"].inc()
                continue
            served[key] = False
            entry["to_compute"].inc()
            entry["jobs"].inc(
                len(request_jobs(declared.item)) if declared.kind == "request" else 1
            )
        for labels, metric in self.metrics.labeled("analytic"):
            _entry(labels["study"])[f"analytic_{labels['kind']}"].inc(metric.value)
        report: dict[str, dict[str, int]] = {}
        for labels, metric in self.metrics.labeled("plan"):
            report.setdefault(labels["study"], {})[labels["field"]] = metric.value
        return report

    # -- running it --------------------------------------------------------

    def resolve(
        self,
        on_event: Callable[[PointEvent], None] | None = None,
        on_round: Callable[[], object] | None = None,
    ) -> None:
        """Schedule pending points; deferreds fill as futures complete.

        Incremental: only points declared since the last resolve run;
        the executor and caches persist across rounds.  ``on_event``
        fires once per resolved declaration — the CLI runner streams
        its output from it.

        ``on_round`` turns one resolve call into a *staging loop*:
        callbacks (``on_event`` handlers, or ``on_round`` itself) may
        declare **new** points mid-round — they join the next round,
        deduplicating against everything already computed this
        invocation through the in-memory memo and the disk cache.
        After each round drains, ``on_round()`` is invoked (a safety
        net for callers whose staging is driven by events that may not
        fire, e.g. analytic-only studies); resolve keeps looping while
        ``on_round()`` returns truthy ("I advanced something") or
        points are pending.  Without ``on_round`` the behaviour is the
        single-round one, unchanged.
        """
        self._resolve_round(on_event)
        if on_round is None:
            return
        while True:
            progressed = bool(on_round())
            if self._pending:
                self._resolve_round(on_event)
                continue
            if not progressed:
                return

    def _resolve_round(
        self, on_event: Callable[[PointEvent], None] | None = None
    ) -> None:
        """One scheduling round over the currently-pending points.

        Requests and calls share one path: a point per unique key (the
        plan's unique requests, then the first-seen calls), one
        serve/expand pass, one scheduler drain.  They differ only
        in their payload — a request carries an
        :class:`~repro.sim.results.OverheadEstimate` whose mean its
        deferreds receive, a call the job's value itself.
        """
        if not self._pending:
            return
        self._rounds += 1
        round_no = self._rounds
        pending, self._pending = self._pending, []

        requests = [d for d in pending if d.kind == "request"]
        plan = plan_simulations(
            [d.item for d in requests], keys=[d.key for d in requests]
        )
        calls: list[tuple[str, tuple]] = []  # first-seen (key, job) pairs
        call_points: dict[str, int] = {}
        # Which deferreds each point fans out to (duplicates share one
        # computation).
        decls: dict[int, list[tuple[Deferred, str | None]]] = {}
        slots = iter(plan.slots)
        for declared in pending:
            if declared.kind == "request":
                i = next(slots)
            else:
                key = declared.key
                i = call_points.get(key)
                if i is None:
                    i = call_points[key] = plan.n_unique + len(calls)
                    calls.append((key, declared.item))
            decls.setdefault(i, []).append((declared.deferred, declared.group))
        keys = plan.keys + tuple(key for key, _ in calls)

        # Cache-serve short-circuit + tagged expansion (slowest backend
        # first, as always).
        values, tagged_jobs, books = claim_serve_expand(
            plan, self.cache, self._memo, calls=calls
        )

        def deliver(i: int, value, status: str) -> None:
            if i < plan.n_unique:
                value = value.mean
            for deferred, group in decls[i]:
                self.metrics.counter(
                    "points",
                    study=group if group is not None else "(ungrouped)",
                    status=status,
                ).inc()
                deferred._set(value)
                if self.trace.enabled:
                    self.trace.event("point", study=group, status=status, key=keys[i])
                if on_event is not None:
                    on_event(PointEvent(group=group, status=status, key=keys[i]))

        # Serve the points whose value needs no job this round.
        for i in decls:
            if i not in books:
                deliver(i, values[i], "served")

        if self.trace.enabled:
            self.trace.event(
                "plan",
                round=round_no,
                points=len(pending),
                unique=len(keys),
                jobs=len(tagged_jobs),
            )

        # Event-driven dispatch: one global in-flight window over the
        # executor; each point resolves the moment its last chunk lands.
        scheduler = Scheduler(
            self.executor,
            retry=self.retry,
            fault=self.fault,
            trace=self.trace,
            metrics=self.metrics,
        )
        for job, tag in tagged_jobs:
            scheduler.add(job, tag)
        try:
            with self.trace.span("execute", round=round_no):
                for (i, part), result in scheduler.events():
                    if not books[i].deliver(part, result):
                        continue
                    if i < plan.n_unique:
                        value = merge_request_results(
                            plan.requests[i], plan.methods[i], books[i].parts
                        )
                        if self.cache is not None:
                            self.cache.put_estimate(keys[i], value)
                    else:
                        value = result
                        if self.cache is not None:
                            self.cache.put_value(keys[i], float(value))
                    self._memo[keys[i]] = value
                    deliver(i, value, "computed")
        except BaseException:
            # A failed job must not leak worker processes: shut the
            # executor down (cancelling queued pool work) on the way out.
            self.executor.close()
            raise

    # -- lifecycle ---------------------------------------------------------

    @property
    def cache_stats(self) -> tuple[int, int]:
        """(hits, misses) of the on-disk cache, or (0, 0) when disabled."""
        if self.cache is None:
            return (0, 0)
        return (self.cache.hits, self.cache.misses)

    def close(self) -> None:
        self.analytic_memo.flush()
        self.executor.close()
        if self.trace.enabled and not self.trace.closed:
            # The final metrics snapshot rides the trace, then the
            # journal is sealed — `trace summary` cross-checks the
            # snapshot against the per-event tallies.
            self.trace.event("snapshot", metrics=self.metrics.snapshot())
            self.trace.close()

    def __enter__(self) -> "SimulationPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
